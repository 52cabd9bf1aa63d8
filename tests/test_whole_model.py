"""Whole-network checks that do not depend on the layout of grouped activations.

``Model.forward`` has one walk per mode: training mode records the blocks'
training kernels (``Model._train_pairs``) on a tape, one node per block,
and ``loss_terms`` records the objective (cross-entropy, routing entropy
and L2) as one more node; eval mode runs the eval executor alone.
``TestObjectiveGradient`` compares the tape gradient of the full objective
with central finite differences of the same objective.
``TestForwardReference`` and ``TestEvalExecutor`` compare the eval
executor's logits with a plain-numpy forward pass (``_reference_logits``)
that keeps grouped activations as (batch, group, slot) arrays and shares no
code with the package; ``TestEvalExecutor`` also checks its folds, chunks
and buffers, and ``predictions``. ``TestTrainStep`` holds the compiled
training step that ``fit`` runs to the tape path bit for bit, and to
central finite differences. Both run the same block kernels and the same
``objective`` and ``objective_grad``, so the bit checks guard the order in
which the compiled step sums each parameter's gradient terms, and the
recording of each kernel on the tape. ``fit`` itself is held to a tape loop
that gathers the tape's gradients into one flat vector for Adam.
"""

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import tensor as T
from gmlp.data import Dataset, batches
from gmlp.errors import DomainError, ShapeError
from gmlp.model import MAX_CHUNK_ROWS, Model, parse_arch
from gmlp.tensor import Tensor
from gmlp.training import (
    AdamState,
    TrainConfig,
    TrainStep,
    adam_step,
    fit,
    loss_terms,
    predictions,
    schedule_step,
)
from gradcheck import finite_difference, finite_difference_at, max_rel_err

D = 5
N_CLASSES = 3
BN_EPS = 1e-5

ARCHS = [
    "GSel-8-2, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, Concat, FC-3",
    "GSel-8-2, GFC, ReLU, BNorm, GPool-max-4, GFC, ReLU, BNorm, Concat, FC-3",
    "GSel-8-2, GFC, ReLU, BNorm, GPool-mean, GFC, ReLU, BNorm, Concat, FC-3",
    "GSel-8-2, GFC, ReLU, BNorm, GPool-mean-4, GFC, ReLU, BNorm, Concat, FC-3",
    "GSel-8-2, GFC, ReLU, BNorm, GPool-linear, GFC, ReLU, BNorm, Concat, FC-3",
    "GSel-8-2, GFC, ReLU, BNorm, GPool-linear-4, GFC, ReLU, BNorm, Concat, FC-3",
    "FC-6, ReLU, BNorm, FC-4, ReLU, BNorm, FC-3",
]


# eval-mode dropout is the identity, as in _reference_logits
DROPOUT_ARCH = "GSel-8-2, GFC, ReLU, Dropout-0.5, BNorm, GPool-max, GFC, Concat, Dropout-0.3, FC-3"
# a 1,024-wide dense net: its eval chunks are the shortest the executor uses
WIDE_MLP = "FC-1024, ReLU, BNorm, FC-3"
# a batch-norm on the input, which no affine step and ReLU precede
BN_FIRST_MLP = "BNorm, ReLU, FC-4, ReLU, BNorm, FC-3"


def _net(arch, seed):
    model = Model(parse_arch(arch, d=D, seed=seed))
    if model.routing is not None:
        model.set_temperature(0.7)
    return model


class TestObjectiveGradient:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_full_objective_matches_finite_differences(self, arch):
        rng = np.random.default_rng(41)
        model = _net(arch, seed=2)
        params = model.parameters()
        psi = model.routing.psi if model.routing is not None else None
        cfg = TrainConfig(lambda_=0.5, alpha=1e-2)
        x = rng.normal(size=(6, D))
        y = rng.integers(0, N_CLASSES, size=6)

        def objective(tape):
            logits = model.forward(Tensor(x), training=True, tape=tape, mode="relaxed")
            total, _, ent = loss_terms(tape, logits, y, psi, params, cfg)
            assert (ent is not None) == (psi is not None)
            return total

        tape = T.Tape()
        tape.backward(objective(tape))
        analytic = [p.grad for _, p in params]
        numeric = finite_difference(lambda: objective(None).item(), [p.data for _, p in params])
        for (name, _), a, n in zip(params, analytic, numeric):
            assert a is not None, name
            assert max_rel_err(a, n) < 1e-5, name


def _reference_logits(model, x, mode):
    """Eval-mode logits in plain numpy, grouped activations held as (B, k, m)."""
    arrays = dict(model.state_arrays())
    spec = model.spec
    n = x.shape[0]
    h = x
    if spec.kind == "gmlp":
        psi = arrays["gsel.psi"]
        if mode == "hard":
            h = x[:, psi.argmax(axis=1)]
        else:
            z = psi / model.temperature
            e = np.exp(z - z.max(axis=1, keepdims=True))
            h = x @ (e / e.sum(axis=1, keepdims=True)).T
        h = h.reshape(n, spec.k, spec.m)
    for i, block in enumerate(spec.blocks):
        p = f"block{i}"
        tag = block[0]
        if tag == "gfc":
            w, b = arrays[f"{p}.gfc.weights"], arrays[f"{p}.gfc.biases"]
            h = np.stack([h[:, g, :] @ w[g].T + b[g] for g in range(w.shape[0])], axis=1)
        elif tag == "relu":
            h = np.where(h > 0.0, h, 0.0)
        elif tag == "batchnorm":
            flat = h.reshape(n, -1)
            mean, var = arrays[f"{p}.bn.running_mean"], arrays[f"{p}.bn.running_var"]
            gamma, beta = arrays[f"{p}.bn.gamma"], arrays[f"{p}.bn.beta"]
            h = ((flat - mean) / np.sqrt(var + BN_EPS) * gamma + beta).reshape(h.shape)
        elif tag == "pool":
            kind, br = block[1], block[2]
            step = h.shape[1] // br  # output group i merges groups i, i + step, ...
            strata = [h[:, t * step : (t + 1) * step, :] for t in range(br)]
            if kind == "max":
                h = np.max(strata, axis=0)
            elif kind == "mean":
                h = np.mean(strata, axis=0)
            else:
                w = arrays[f"{p}.pool.weights"]  # (k/b, m, b*m)
                cat = np.concatenate(strata, axis=2)  # (B, k/b, b*m), strata side by side
                h = np.stack([cat[:, g, :] @ w[g].T for g in range(w.shape[0])], axis=1)
        elif tag == "concat":
            h = h.reshape(n, -1)
        elif tag == "dense":
            h = h @ arrays[f"{p}.dense.w"] + arrays[f"{p}.dense.b"]
    return h


class TestForwardReference:
    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    def test_logits_match_plain_numpy(self, arch, mode):
        rng = np.random.default_rng(43)
        model = _net(arch, seed=3)
        # move every parameter and moment off its initial value, so biases,
        # batch-norm affine maps and running moments all take part
        for name, arr in model.state_arrays():
            if name.endswith("running_var"):
                arr[:] = rng.uniform(0.5, 2.0, size=arr.shape)
            else:
                arr += rng.normal(scale=0.3, size=arr.shape)
        x = rng.normal(size=(9, D))
        got = model.forward(Tensor(x), training=False, mode=mode).data
        want = _reference_logits(model, x, mode)
        assert got.shape == (9, N_CLASSES)
        npt.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def _perturb(model, rng):
    """Move every parameter and moment off its initial value, as TestForwardReference does."""
    for name, arr in model.state_arrays():
        if name.endswith("running_var"):
            arr[:] = rng.uniform(0.5, 2.0, size=arr.shape)
        else:
            arr += rng.normal(scale=0.3, size=arr.shape)


def _step_names(model, mode):
    """The factory or function name of each eval step, e.g. ``_floor_step``."""
    return [step.__qualname__.split(".")[0] for step, _ in model._eval_steps(mode)]


class TestEvalExecutor:
    @pytest.mark.parametrize("arch", ARCHS + [DROPOUT_ARCH, WIDE_MLP, BN_FIRST_MLP])
    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    def test_logits_match_reference(self, arch, mode):
        rng = np.random.default_rng(47)
        model = _net(arch, seed=4)
        _perturb(model, rng)
        x = rng.normal(size=(300, D))
        got = model.forward(Tensor(x), training=False, mode=mode).data
        npt.assert_allclose(got, _reference_logits(model, x, mode), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    def test_negative_and_zero_batchnorm_scale(self, mode):
        rng = np.random.default_rng(71)
        model = _net(ARCHS[0], seed=12)
        _perturb(model, rng)
        gammas = [p for name, p in model.parameters() if name.endswith("bn.gamma")]
        for g in gammas:
            np.abs(g.data, out=g.data)
        gammas[0].data[3] = -0.8  # this block cannot be folded
        gammas[1].data[5] = 0.0  # a zero scale still folds
        assert _step_names(model, mode).count("_floor_step") == 1
        x = rng.normal(size=(300, D))
        got = model.forward(Tensor(x), training=False, mode=mode).data
        npt.assert_allclose(got, _reference_logits(model, x, mode), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "arch, folds",
        [(ARCHS[0], 2), (ARCHS[4], 2), (DROPOUT_ARCH, 1), (BN_FIRST_MLP, 1), (ARCHS[-1], 2)],
    )
    def test_affine_relu_batchnorm_runs_are_folded(self, arch, folds):
        model = _net(arch, seed=13)
        names = _step_names(model, "hard")
        assert names.count("_floor_step") == folds
        assert names.count("_scale_shift_step") == arch.count("BNorm") - folds

    def test_reads_parameters_at_each_call(self):
        rng = np.random.default_rng(53)
        model = _net(ARCHS[0], seed=5)
        x = rng.normal(size=(20, D))
        before = model.forward(Tensor(x)).data
        _perturb(model, rng)
        model.set_temperature(0.2)
        after = model.forward(Tensor(x)).data
        assert not np.allclose(after, before)
        npt.assert_allclose(after, _reference_logits(model, x, "relaxed"), rtol=1e-10, atol=1e-12)

    def test_subnormal_routing_weights(self):
        model = _net(ARCHS[0], seed=11)
        psi = model.routing.psi.data
        psi[:] = 0.0
        psi[:, 1] = -7.2  # weight exp(-720) at tau 0.01: subnormal
        psi[::2, 3] = -9.0  # weight exp(-900): 0.0
        model.set_temperature(0.01)
        e = np.exp((psi - psi.max(axis=1, keepdims=True)) / 0.01)
        s = e / e.sum(axis=1, keepdims=True)  # the softmax before the flush to 0
        assert 0.0 < s[:, 1].max() < np.finfo(np.float64).tiny
        x = np.random.default_rng(63).normal(size=(30, D))
        got = model.forward(Tensor(x), mode="relaxed").data
        npt.assert_allclose(got, _reference_logits(model, x, "relaxed"), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("arch, chunk", [(ARCHS[0], MAX_CHUNK_ROWS), (WIDE_MLP, 128)])
    @pytest.mark.parametrize("hard", [True, False])
    def test_predictions_over_chunks_and_remainder(self, arch, chunk, hard):
        rng = np.random.default_rng(59)
        model = _net(arch, seed=6)
        _perturb(model, rng)
        x = rng.normal(size=(3 * chunk + 37, D))
        mode = "hard" if hard else "relaxed"
        want = _reference_logits(model, x, mode).argmax(axis=1)
        npt.assert_array_equal(predictions(model, x, hard=hard), want)

    def test_input_rows_are_not_written(self):
        model = _net("BNorm, ReLU, FC-4, ReLU, BNorm, FC-3", seed=7)
        _perturb(model, np.random.default_rng(61))
        x = np.random.default_rng(62).normal(size=(10, D))
        kept = x.copy()
        logits = model.forward(Tensor(x)).data
        npt.assert_array_equal(x, kept)
        npt.assert_allclose(logits, _reference_logits(model, x, "relaxed"), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("arch, chunk", [(ARCHS[0], MAX_CHUNK_ROWS), (WIDE_MLP, 128)])
    def test_buffers_reused_across_calls(self, arch, chunk):
        rng = np.random.default_rng(73)
        xs = [rng.normal(size=(n, D)) for n in (3 * chunk + 37, 5, 0)]

        def fresh():
            model = _net(arch, seed=14)
            _perturb(model, np.random.default_rng(74))
            return model

        model = fresh()
        got = [model.forward(Tensor(x)).data for x in xs[:1]]
        pair = model._eval_buffers
        got += [model.forward(Tensor(x)).data for x in xs[1:]]
        assert all(a is b for a, b in zip(model._eval_buffers, pair))
        kept = [g.copy() for g in got]
        for x, g, k in zip(xs, got, kept):
            npt.assert_array_equal(g, fresh().forward(Tensor(x)).data)
            npt.assert_array_equal(g, k)  # later calls left earlier results alone

    def test_two_models_do_not_interfere(self):
        rng = np.random.default_rng(75)
        x = rng.normal(size=(300, D))
        # chunk buffers of 2,048 x 16 and 128 x 1,024 floats
        models = [_net(ARCHS[0], seed=15), _net(WIDE_MLP, seed=16)]
        for model in models:
            _perturb(model, rng)
        want = [_reference_logits(model, x, "hard") for model in models]
        for _ in range(2):
            for model, w in zip(models, want):
                npt.assert_allclose(model.forward(Tensor(x), mode="hard").data, w, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("arch", [ARCHS[0], ARCHS[-1]])
    def test_no_rows_give_empty_labels(self, arch):
        pred = predictions(_net(arch, seed=8), np.zeros((0, D)), hard=True)
        assert pred.shape == (0,) and pred.dtype == np.int64

    def test_non_finite_input_raises(self):
        x = np.zeros((4, D))
        x[2, 1] = np.nan
        with pytest.raises(DomainError):
            predictions(_net(ARCHS[0], seed=9), x)

    def test_wrong_width_raises(self):
        with pytest.raises(ShapeError):
            predictions(_net(ARCHS[0], seed=10), np.zeros((4, D + 1)))


# ---------------------------------------------------------------------------
# the compiled training step

TAUS = [1.0, 0.3, 0.01]
# every architecture once per temperature; the temperature is moot in a dense net
STEP_CASES = [
    (arch, tau) for arch in ARCHS[:-1] + [DROPOUT_ARCH] for tau in TAUS
] + [(ARCHS[-1], 1.0), (WIDE_MLP, 1.0), (BN_FIRST_MLP, 1.0)]
# (lambda, alpha): both terms, neither, and each alone, so that each
# gradient slot is written first by L2, by the entropy and by its block
STEP_CFGS = [(0.5, 1e-2), (0.0, 0.0), (1.0, 0.0), (0.0, 1e-3)]


def _step_net(arch, tau, seed=21):
    """A net with every parameter and moment moved off its start and, if it routes, one subnormal routing weight."""
    model = _net(arch, seed)
    _perturb(model, np.random.default_rng(seed))
    if model.routing is not None:
        model.set_temperature(tau)
        psi = model.routing.psi.data
        j = (psi[0].argmax() + 1) % D
        psi[0, j] = psi[0].max() - 720.0 * tau  # weight exp(-720) at tau: subnormal
        assert 0.0 < np.exp((psi[0, j] - psi[0].max()) / tau) < np.finfo(np.float64).tiny
    return model


def _batch(model, n=6, seed=22):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, D)), rng.integers(0, model.spec.n_classes, size=n)


def _tape_step(model, x, y, cfg, rng):
    """(loss, ce, entropy term) and the flat gradient, through the tape path."""
    params = model.parameters()
    psi = model.routing.psi if model.routing is not None else None
    tape = T.Tape()
    logits = model.forward(Tensor(x), training=True, tape=tape, rng=rng)
    total, ce, ent = loss_terms(tape, logits, y, psi, params, cfg)
    tape.backward(total)
    grad = np.zeros_like(model._flat)
    for (_, p), offset in zip(params, model._offsets):
        grad[offset : offset + p.size] = p.grad.reshape(-1)
        p.grad = None
    return (total.item(), ce.item(), ent.item() if ent is not None else 0.0), grad


def _bits(a):
    """The raw bits of an array: equal bits, equal values, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def _moments(model):
    return [arr.copy() for name, arr in model.state_arrays() if ".running_" in name]


class TestTrainStep:
    @pytest.mark.parametrize("arch, tau", STEP_CASES)
    def test_same_bits_as_tape_path(self, arch, tau):
        x, y = _batch(_net(arch, seed=1))
        for lam, alpha in STEP_CFGS:
            cfg = TrainConfig(lambda_=lam, alpha=alpha)
            taped, compiled = _step_net(arch, tau), _step_net(arch, tau)
            want, want_grad = _tape_step(taped, x, y, cfg, np.random.default_rng(5))
            step = TrainStep(compiled, cfg, np.random.default_rng(5))
            assert step.loss(x, y) == want
            step.backward()
            npt.assert_array_equal(_bits(step.grad), _bits(want_grad))
            for got, kept in zip(_moments(compiled), _moments(taped)):
                npt.assert_array_equal(_bits(got), _bits(kept))

    @pytest.mark.parametrize("arch, tau", STEP_CASES)
    def test_gradient_matches_finite_differences(self, arch, tau):
        model = _step_net(arch, tau)
        x, y = _batch(model)
        rng = np.random.default_rng(5)
        start = rng.bit_generator.state
        # a small alpha: the subnormal weight's logit of about -720*tau
        # would make the L2 term, and the rounding of each difference, large
        step = TrainStep(model, TrainConfig(lambda_=0.5, alpha=1e-6), rng)

        def objective():
            rng.bit_generator.state = start  # the same dropout masks at every evaluation
            return step.loss(x, y)[0]

        objective()
        step.backward()
        analytic = step.grad.copy()
        pick = np.random.default_rng(6)
        for (name, p), offset in zip(model.parameters(), model._offsets):
            # at most 24 coordinates of each tensor: the wide net has 11k
            idx = np.sort(pick.choice(p.size, size=min(p.size, 24), replace=False))
            # psi enters divided by tau, so its differences step by 1e-5*tau
            eps = 1e-5 * (tau if name == "gsel.psi" else 1.0)
            numeric = finite_difference_at(objective, p.data, idx, eps)
            # an objective of about 5 is evaluated to about 1e-15, so each
            # difference carries up to 1e-8 of rounding at the smallest step:
            # entries below 1e-3 are compared on the 1e-3 scale
            assert max_rel_err(analytic[offset + idx], numeric, floor=1e-3) < 1e-5, name

    @pytest.mark.parametrize(
        "arch",
        ["GSel-8-4, GFC, ReLU, BNorm, Concat, FC-2", ARCHS[5], DROPOUT_ARCH],
    )
    def test_fit_matches_tape_loop(self, arch):
        model, reference = _net(arch, seed=23), _net(arch, seed=23)
        rng = np.random.default_rng(24)
        train = Dataset(rng.normal(size=(96, D)), rng.integers(0, model.spec.n_classes, 96),
                        model.spec.n_classes)
        cfg = TrainConfig(epochs=3, batch_size=16, lr0=1e-2, plateau_patience=3, seed=4)
        result = fit(model, train, train, cfg)
        losses = _tape_fit(reference, train, cfg)
        assert [r.train_loss for r in result.records] == losses
        for (name, got), (_, want) in zip(model.state_arrays(), reference.state_arrays()):
            npt.assert_array_equal(_bits(got), _bits(want), err_msg=name)


def _tape_fit(model, train, cfg):
    """``fit``'s training loop through the tape, the gradients gathered into one flat vector for Adam; the mean loss of each epoch.

    The plateau rule needs ``cfg.epochs`` completed epochs to act, so the
    learning rate stays ``lr0`` and no validation accuracy is needed.
    """
    assert cfg.plateau_patience >= cfg.epochs
    adam = AdamState.create(model._flat.size)
    dropout_rng = np.random.default_rng((cfg.seed, 7919))
    losses = []
    for epoch in range(cfg.epochs):
        lr, tau = schedule_step(epoch, [], cfg)
        model.set_temperature(tau)
        total_sum, n = 0.0, 0
        for xb, yb in batches(train, cfg.batch_size, cfg.seed, epoch):
            (total, _, _), grad = _tape_step(model, xb, yb, cfg, dropout_rng)
            adam_step(model._flat, grad, adam, lr)
            total_sum += total
            n += 1
        losses.append(total_sum / n)
    return losses
