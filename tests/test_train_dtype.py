"""The compiled training step in float32 (``training.TRAIN_DTYPE``) against its float64 self.

``TrainStep`` runs its block kernels and its product with the routing
softmax in ``TRAIN_DTYPE``, on a float32 mirror of the float64 parameters,
while the objective, psi's gradient term, Adam and the tape path stay
float64. ``TestTrainStep`` in ``test_whole_model`` holds the float64 step
(the ``train_dtype`` fixture) to the tape path bit for bit; the tests here
hold the default float32 step to the float64 one within a bound derived as
``evalcheck`` derives the eval executor's, check that every kernel keeps
float32 from end to end, and that the tape path is float64 whatever
``TRAIN_DTYPE`` is.
"""

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import tensor as T
from gmlp import training
from gmlp.tensor import Tensor
from gmlp.training import TrainConfig, TrainStep, loss_terms
from evalcheck import FLOAT32_BOUND
from test_whole_model import (
    ARCHS,
    BARE_GFC_ARCH,
    BN_FIRST_MLP,
    ROUTED,
    STEP_CASES,
    STEP_CFGS,
    WIDE_MLP,
    _batch,
    _bits,
    _moments,
    _net,
    _step_net,
)

# The float32 forward runs the layers the eval executor runs, so its logits
# lie within FLOAT32_BOUND of the logit scale 1 + max|logit| (evalcheck). The
# cross-entropy's gradient in a row's logits sums to at most 2 in absolute
# value, so the mean cross-entropy moves by at most twice the largest logit
# error; the entropy and L2 terms are float64 on the same parameters. The
# backward runs the forward's layers again, in reverse, each again a sum of
# at most 1,024 rounded terms: twice the forward's error, of each tensor's
# gradient scale 1 + max|gradient|. Measured on STEP_CASES: logits 3.8e-7,
# loss 1.2e-7 and gradients 8.2e-6 of their scales.
LOSS_BOUND = 2 * FLOAT32_BOUND
GRAD_BOUND = 2 * FLOAT32_BOUND


def _steps(monkeypatch, arch, tau, cfg, **kwargs):
    """The float32 step and the float64 step of two copies of one net, each with its net."""
    assert training.TRAIN_DTYPE == np.float32
    nets = _step_net(arch, tau), _step_net(arch, tau)
    got = TrainStep(nets[0], cfg, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(training, "TRAIN_DTYPE", np.float64)
        want = TrainStep(nets[1], cfg, **kwargs)
    return (got, nets[0]), (want, nets[1])


def _modes(arch):
    return (False, True) if arch in ROUTED else (False,)


@pytest.mark.parametrize("arch, tau", STEP_CASES)
def test_step_within_the_float32_bound_of_the_float64_step(arch, tau, monkeypatch):
    x, y = _batch(_net(arch, seed=1))
    for lam, alpha in STEP_CFGS:
        cfg = TrainConfig(lambda_=lam, alpha=alpha)
        for hard in _modes(arch):
            (got, got_net), (want, net) = _steps(monkeypatch, arch, tau, cfg, hard=hard)
            logits = _step_net(arch, tau).forward(Tensor(x), training=True, mode="hard" if hard else "relaxed")
            scale = 1.0 + float(np.abs(logits.data).max())
            for a, b in zip(got.loss(x, y), want.loss(x, y)):
                assert abs(a - b) <= LOSS_BOUND * scale
            got.backward()
            want.backward()
            lo = net._flat.size - want.grad.size
            for (name, p), offset in zip(net.parameters(), net._offsets):
                if offset >= lo:
                    a, b = (g[offset - lo : offset - lo + p.size] for g in (got.grad, want.grad))
                    assert np.abs(a - b).max() <= GRAD_BOUND * (1.0 + np.abs(b).max()), name
            # float64 running moments, moved by the float32 batch moments
            for a, b in zip(_moments(got_net), _moments(net)):
                assert a.dtype == np.float64
                assert np.abs(a - b).max() <= FLOAT32_BOUND * (1.0 + np.abs(b).max())


# 64 slots into Concat: with 64 rows, its transpose copies in blocks
WIDE_CONCAT_ARCH = "GSel-32-2, GFC, ReLU, BNorm, Concat, FC-3"


@pytest.mark.parametrize("arch", ARCHS + [BARE_GFC_ARCH, WIDE_CONCAT_ARCH, WIDE_MLP, BN_FIRST_MLP])
def test_every_kernel_keeps_float32(arch):
    model = _step_net(arch, 0.3)
    x, y = _batch(model, n=64)
    cols = np.tile(np.arange(4), (model.routing.psi.shape[0], 1)) if model.routing is not None else None
    kinds = [{}, {"hard": True}, {"cols": cols}] if model.routing is not None else [{}]
    for kwargs in kinds:
        step = TrainStep(model, TrainConfig(lambda_=0.5, alpha=1e-2), **kwargs)
        h, saved = x.astype(np.float32), []
        for forward, _, _ in step._steps:
            h, s = forward(h)
            assert h.dtype == np.float32
            saved.append(s)
        g = np.ones_like(h)
        for i, ((_, backward, puts), s) in reversed(list(enumerate(zip(step._steps, saved)))):
            g, *param_grads = backward(g, s)
            # only a first Group-Select or FC skips its input's gradient
            assert g.dtype == np.float32 if g is not None else i == 0
            assert len(param_grads) == len(puts)
            # psi's gradient term is formed in float64 from the float64 softmax
            routed = model.routing is not None and i == 0
            assert all(p.dtype == (np.float64 if routed else np.float32) for p in param_grads)


@pytest.mark.parametrize("arch", ARCHS)
def test_tape_path_stays_float64(arch, monkeypatch):
    x, y = _batch(_net(arch, seed=1))
    cfg = TrainConfig(lambda_=0.5, alpha=1e-2)
    for hard in _modes(arch):
        taped = _step_net(arch, 0.3)
        params = taped.parameters()
        psi = taped.routing.psi if taped.routing is not None else None
        if hard and psi is not None:
            params, psi = params[1:], None
        tape = T.Tape()
        logits = taped.forward(Tensor(x), training=True, tape=tape, mode="hard" if hard else "relaxed")
        total, _, _ = loss_terms(tape, logits, y, psi, params, cfg)
        tape.backward(total)
        assert logits.data.dtype == np.float64 and all(p.grad.dtype == np.float64 for _, p in params)
        # the float64 step's bits, which test_whole_model holds to the tape path
        _, (want, net) = _steps(monkeypatch, arch, 0.3, cfg, hard=hard)
        assert want.loss(x, y)[0] == total.item()
        want.backward()
        npt.assert_array_equal(_bits(want.grad), _bits(np.concatenate([p.grad.reshape(-1) for _, p in params])))
        for got, kept in zip(_moments(taped), _moments(net)):
            npt.assert_array_equal(_bits(got), _bits(kept))
