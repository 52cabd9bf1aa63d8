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
code with the package, at float64 and at float32 (the ``eval_dtype``
fixture and ``evalcheck``); ``TestEvalExecutor`` also checks its folds,
chunks and buffers, and ``predictions``. ``TestTrainStep`` holds the compiled
training step that ``fit`` runs to the tape path bit for bit, and to
central finite differences, in both of its modes: relaxed, and hard (the
gather of the committed routing, psi left out). Both paths run the same
block kernels and the same ``objective`` and ``objective_grad``, so the
bit checks guard the order in which the compiled step sums each
parameter's gradient terms, and the recording of each kernel on the tape.
``fit`` itself, a hard epoch included, is held to a tape loop that
gathers the tape's gradients into one flat vector for Adam. These bit and
finite-difference checks run the step in float64, through the
``train_dtype`` fixture (``conftest.py``); ``test_train_dtype`` holds the
default float32 step to the float64 one.
"""

import concurrent.futures
import inspect
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import layers as L
from gmlp import model as M
from gmlp import tensor as T
from gmlp import training
from gmlp.data import Dataset, batches
from gmlp.errors import DomainError, ShapeError
from gmlp.layers import pin_routing
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
    relaxed_epochs,
    schedule_step,
)
from evalcheck import assert_eval_logits, float32_limit
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


# a last Group-FC with no ReLU or batch-norm before Concat: one run to fold
BARE_GFC_ARCH = "GSel-8-2, GFC, ReLU, BNorm, GPool-max, GFC, Concat, FC-3"
# a 1,024-wide dense net: its eval chunks are the shortest the executor uses
WIDE_MLP = "FC-1024, ReLU, BNorm, FC-3"
# a batch-norm on the input, which no affine step and ReLU precede
BN_FIRST_MLP = "BNorm, ReLU, FC-4, ReLU, BNorm, FC-3"
# a ReLU on the input: like BN_FIRST_MLP, its first step works in place
RELU_FIRST_MLP = "ReLU, FC-4, ReLU, BNorm, FC-3"


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
        tag = block.tag
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
            kind, br = block.args
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
    def test_logits_match_plain_numpy(self, arch, mode, eval_dtype):
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
        assert_eval_logits(got, want, rtol=1e-10, atol=1e-12)


def _perturb(model, rng):
    """Move every parameter and moment off its initial value, as TestForwardReference does."""
    for name, arr in model.state_arrays():
        if name.endswith("running_var"):
            arr[:] = rng.uniform(0.5, 2.0, size=arr.shape)
        else:
            arr += rng.normal(scale=0.3, size=arr.shape)


def _step_names(model, mode):
    """The factory or function name of each eval step, e.g. ``_floor_step``.

    A step that runs a ``layers`` kernel's forward is named by the kernel's
    factory, e.g. ``group_fc_pair``.
    """
    names = []
    for step, _ in model._eval_steps(mode):
        fn = inspect.getclosurevars(step).nonlocals.get("forward", step)
        names.append(fn.__qualname__.split(".")[0])
    return names


def _workers(monkeypatch, n):
    """Let prediction run on ``n`` workers: ``n`` usable cores, and a cap no lower."""
    monkeypatch.setattr(M, "_usable_cores", lambda: n)
    monkeypatch.setattr(M, "MAX_EVAL_WORKERS", max(n, M.MAX_EVAL_WORKERS))


def _commit(model):
    """Pin the routing, so relaxed routing gathers as after ``fit``'s hard phase."""
    model.set_temperature(0.01)
    pin_routing(model.routing, 0.01)


# nets and their rows per eval chunk: max, mean-4 and linear pooling, and a
# dense net, so every shared forward writes into buffer prefixes of full and
# tail chunks; the dense net's chunks are as long as its 1,024-wide layer
# allows at the default EVAL_DTYPE
CHUNKED = [(arch, MAX_CHUNK_ROWS) for arch in (ARCHS[0], ARCHS[3], ARCHS[4])] + [(WIDE_MLP, M._chunk_rows(1024))]


class TestEvalExecutor:
    @pytest.mark.parametrize("arch", ARCHS + [BARE_GFC_ARCH, WIDE_MLP, BN_FIRST_MLP])
    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    def test_logits_match_reference(self, arch, mode, eval_dtype):
        rng = np.random.default_rng(47)
        model = _net(arch, seed=4)
        _perturb(model, rng)
        x = rng.normal(size=(300, D))
        got = model.forward(Tensor(x), training=False, mode=mode).data
        assert_eval_logits(got, _reference_logits(model, x, mode), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    def test_negative_and_zero_batchnorm_scale(self, mode, eval_dtype):
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
        assert_eval_logits(got, _reference_logits(model, x, mode), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "arch, folds",
        [(ARCHS[0], 2), (ARCHS[4], 2), (BARE_GFC_ARCH, 1), (BN_FIRST_MLP, 1), (ARCHS[-1], 2)],
    )
    def test_affine_relu_batchnorm_runs_are_folded(self, arch, folds):
        model = _net(arch, seed=13)
        names = _step_names(model, "hard")
        assert names.count("_floor_step") == folds
        assert names.count("_scale_shift_step") == arch.count("BNorm") - folds
        # a fold keeps its affine step: one layers forward per GFC, FC and GPool
        assert names.count("group_fc_pair") == arch.count("GFC")
        assert names.count("dense_pair") == arch.count("FC-")
        pools = names.count("reduce_pool_pair") + names.count("linear_pool_pair")
        assert pools == arch.count("GPool")
        assert names.count("_relu_step") == arch.count("ReLU") - folds
        assert names[0] == "_cast_step"
        # a max pool after a folded run runs before the run's floor
        for i, name in enumerate(names):
            if name == "reduce_pool_pair":
                assert names[i - 1 : i + 2] == ["group_fc_pair", "reduce_pool_pair", "_floor_step"]

    def test_reads_parameters_at_each_call(self, eval_dtype):
        rng = np.random.default_rng(53)
        model = _net(ARCHS[0], seed=5)
        x = rng.normal(size=(20, D))
        before = model.forward(Tensor(x)).data
        _perturb(model, rng)
        model.set_temperature(0.2)
        after = model.forward(Tensor(x)).data
        assert not np.allclose(after, before)
        assert_eval_logits(after, _reference_logits(model, x, "relaxed"), rtol=1e-10, atol=1e-12)

    def test_subnormal_routing_weights(self, eval_dtype):
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
        assert_eval_logits(got, _reference_logits(model, x, "relaxed"), rtol=1e-10, atol=1e-12)
        # weight exp(-90): a normal float64 but a float32 subnormal, which the cast S must not hold
        psi[1::2, 3] = -0.9
        cast = L.routing_weights(psi, 0.01).astype(eval_dtype)
        assert eval_dtype == np.float64 or ((cast > 0.0) & (cast < np.finfo(np.float32).tiny)).any()
        s = inspect.getclosurevars(model._eval_steps("relaxed")[1][0]).nonlocals["s"]
        assert s.dtype == eval_dtype and not ((s > 0.0) & (s < np.finfo(eval_dtype).tiny)).any()
        npt.assert_array_equal(s, np.where(cast < np.finfo(eval_dtype).tiny, 0.0, cast))

    @pytest.mark.parametrize("arch, chunk", CHUNKED)
    @pytest.mark.parametrize("hard", [True, False])
    def test_predictions_over_chunks_and_remainder(self, arch, chunk, hard):
        rng = np.random.default_rng(59)
        model = _net(arch, seed=6)
        _perturb(model, rng)
        x = rng.normal(size=(3 * chunk + 37, D))
        mode = "hard" if hard else "relaxed"
        want = _reference_logits(model, x, mode).argmax(axis=1)
        npt.assert_array_equal(predictions(model, x, hard=hard), want)

    def test_input_rows_are_not_written(self, eval_dtype):
        model = _net("BNorm, ReLU, FC-4, ReLU, BNorm, FC-3", seed=7)
        _perturb(model, np.random.default_rng(61))
        x = np.random.default_rng(62).normal(size=(10, D))
        kept = x.copy()
        logits = model.forward(Tensor(x)).data
        npt.assert_array_equal(x, kept)
        assert_eval_logits(logits, _reference_logits(model, x, "relaxed"), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "arch, copies",
        [(ARCHS[0], False), (ARCHS[-1], False), (WIDE_MLP, False), (BN_FIRST_MLP, True), (RELU_FIRST_MLP, True)],
    )
    def test_float32_rows_are_read_in_place_and_never_written(self, arch, copies):
        model = _net(arch, seed=7)
        _perturb(model, np.random.default_rng(61))
        x = np.random.default_rng(62).normal(size=(300, D)).astype(np.float32)
        kept = x.copy()
        for mode in ("hard", "relaxed"):
            # the first step hands on the caller's rows, unless the next step works in place
            first = model._eval_steps(mode)[0][0]
            assert (first(x, np.empty(x.size, np.float32)) is x) != copies
            logits = model._eval_forward(x, mode)
            npt.assert_array_equal(x.view(np.int32), kept.view(np.int32))
            assert_eval_logits(logits, _reference_logits(model, kept.astype(np.float64), mode))

    @pytest.mark.parametrize(
        "arch, chunk", CHUNKED + [(BN_FIRST_MLP, MAX_CHUNK_ROWS), (RELU_FIRST_MLP, MAX_CHUNK_ROWS)]
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_float32_rows_give_the_bits_of_the_rows_they_were_cast_from(self, arch, chunk, workers, monkeypatch):
        _workers(monkeypatch, workers)
        rng = np.random.default_rng(88)
        model = _net(arch, seed=29)
        _perturb(model, rng)
        x = rng.normal(size=(3 * chunk + 37, D))
        x32 = x.astype(np.float32)
        for mode in ("hard", "relaxed"):
            want = _bits(model._eval_forward(x, mode))
            # float32 rows are read in place, in either memory order
            for rows in (x32, np.asfortranarray(x32), x32.astype(np.float64)):
                npt.assert_array_equal(_bits(model._eval_forward(rows, mode)), want)

    @pytest.mark.parametrize("arch, chunk", CHUNKED)
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    def test_buffers_reused_across_calls(self, arch, chunk, cores, mode, monkeypatch):
        monkeypatch.setattr(M, "_usable_cores", lambda: cores)
        rng = np.random.default_rng(73)
        xs = [rng.normal(size=(n, D)) for n in (3 * chunk + 37, 5, 0)]

        def fresh():
            model = _net(arch, seed=14)
            _perturb(model, np.random.default_rng(74))
            return model

        model = fresh()
        got = [model.forward(Tensor(x), mode=mode).data for x in xs[:1]]
        pairs = model._eval_buffers
        # a gathering group-connected net's 4 chunks run in one pair per worker;
        # the relaxed routing here mixes, and runs the loop as a dense net does
        assert len(pairs) == (cores if model.routing is not None and mode == "hard" else 1)
        got += [model.forward(Tensor(x), mode=mode).data for x in xs[1:]]
        assert len(model._eval_buffers) == len(pairs)
        for pair, kept_pair in zip(model._eval_buffers, pairs):
            assert all(a is b for a, b in zip(pair, kept_pair))
        kept = [g.copy() for g in got]
        for x, g, k in zip(xs, got, kept):
            npt.assert_array_equal(g, fresh().forward(Tensor(x), mode=mode).data)
            npt.assert_array_equal(g, k)  # later calls left earlier results alone

    @pytest.mark.parametrize("arch", ARCHS[:-1])
    @pytest.mark.parametrize("mode", ["hard", "relaxed"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_give_the_loops_bits(self, arch, mode, workers, monkeypatch):
        _workers(monkeypatch, workers)
        rng = np.random.default_rng(78)
        chunk = MAX_CHUNK_ROWS
        for n in (2 * workers * chunk - 1, 2 * workers * chunk, 2 * workers * chunk + 37):
            model = _net(arch, seed=20)
            _perturb(model, np.random.default_rng(79))
            _commit(model)
            x = rng.normal(size=(n, D))
            got = model.forward(Tensor(x), mode=mode).data
            assert len(model._eval_buffers) == workers
            # one chunk per call runs the one-worker loop
            want = [model.forward(Tensor(x[s : s + chunk]), mode=mode).data for s in range(0, n, chunk)]
            npt.assert_array_equal(got.view(np.int64), np.concatenate(want).view(np.int64))

    @pytest.mark.parametrize(
        "arch, n, mode",
        [
            (WIDE_MLP, 8 * 128, "relaxed"),
            (ARCHS[0], 2 * MAX_CHUNK_ROWS + 1, "hard"),
            (ARCHS[0], 8 * MAX_CHUNK_ROWS, "relaxed"),  # routing that mixes
        ],
    )
    def test_dense_nets_mixing_routing_and_short_inputs_run_the_loop(self, arch, n, mode, monkeypatch, eval_dtype):
        def refuse(*args):
            raise AssertionError("an executor was built")

        _workers(monkeypatch, 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        model = _net(arch, seed=22)
        if model.routing is not None and mode == "relaxed":
            assert _step_names(model, mode)[1] == "_mix_step"
        x = np.random.default_rng(80).normal(size=(n, D))
        want = _reference_logits(model, x, mode)
        assert_eval_logits(model.forward(Tensor(x), mode=mode).data, want, rtol=1e-10, atol=1e-12)
        assert len(model._eval_buffers) == 1

    def test_workers_stop_at_the_cap(self, monkeypatch, eval_dtype):
        built = []
        pool = concurrent.futures.ThreadPoolExecutor

        def counting(n):
            built.append(n)
            return pool(n)

        monkeypatch.setattr(M, "_usable_cores", lambda: 64)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
        model = _net(ARCHS[0], seed=25)
        x = np.random.default_rng(83).normal(size=(16 * MAX_CHUNK_ROWS, D))
        got = model.forward(Tensor(x), mode="hard").data
        # the caller and one thread: MAX_EVAL_WORKERS = 2, whatever the core count
        assert built == [1] and len(model._eval_buffers) == M.MAX_EVAL_WORKERS == 2
        assert_eval_logits(got, _reference_logits(model, x, "hard"), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("row", [0, -1])
    def test_error_in_a_chunk_reaches_the_caller(self, row, monkeypatch):
        monkeypatch.setattr(M, "_usable_cores", lambda: 2)
        model = _net(ARCHS[0], seed=23)
        x = np.random.default_rng(81).normal(size=(4 * MAX_CHUNK_ROWS, D))
        x[row, 0] = 1e6  # the caller runs the first chunk, a worker thread the last

        def check(h, spare):
            if (h == 1e6).any():
                raise RuntimeError("marked row")
            return h

        steps = model._eval_steps("hard")
        monkeypatch.setattr(model, "_eval_steps", lambda mode: [(check, False)] + steps)
        with pytest.raises(RuntimeError, match="marked row"):
            model.forward(Tensor(x), mode="hard")
        assert len(model._eval_buffers) == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_callers_errstate_holds_in_every_chunk(self, workers, monkeypatch):
        # in float64: the 1e300 row below is beyond float32, whose cast raises DomainError
        monkeypatch.setattr(M, "EVAL_DTYPE", np.float64)
        _workers(monkeypatch, workers)
        model = _net(ARCHS[0], seed=24)
        w = next(p for name, p in model.parameters() if name.endswith("gfc.weights"))
        w.data *= 1e10
        x = np.random.default_rng(82).normal(size=(2 * workers * MAX_CHUNK_ROWS, D))
        with np.errstate(over="raise"):
            model.forward(Tensor(x), mode="hard")  # ordinary rows do not overflow
        x[-1] *= 1e300  # in the last chunk, which a worker thread runs when there are two or more
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.forward(Tensor(x), mode="hard")

    @pytest.mark.parametrize("arch", [ARCHS[0], ARCHS[4]])
    def test_one_hot_relaxed_routing_runs_the_gather(self, arch, monkeypatch):
        monkeypatch.setattr(M, "EVAL_DTYPE", np.float64)  # for inputs beyond float32's range
        rng = np.random.default_rng(76)
        model = _net(arch, seed=17)
        _perturb(model, rng)
        model.set_temperature(0.01)
        pin_routing(model.routing, 0.01)
        # inputs from 1e-100 to 1e100, of either sign
        x = rng.normal(size=(3 * MAX_CHUNK_ROWS + 37, D)) * 10.0 ** rng.uniform(-100, 100, (1, D))
        assert _step_names(model, "relaxed")[1] == "gather_pair"
        gathered = model.forward(Tensor(x), mode="relaxed").data
        npt.assert_array_equal(_bits(gathered), _bits(model.forward(Tensor(x), mode="hard").data))
        r = model.routing
        steps = model._eval_steps("relaxed")
        mix = M._mix_step(L.routing_weights(r.psi.data, r.temperature), r.k, r.m)
        monkeypatch.setattr(model, "_eval_steps", lambda mode: steps[:1] + [(mix, True)] + steps[2:])
        npt.assert_array_equal(_bits(model.forward(Tensor(x), mode="relaxed").data), _bits(gathered))

    @pytest.mark.parametrize("arch", [ARCHS[0], ARCHS[4]])
    def test_committed_relaxed_routing_computes_no_softmax(self, arch, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("routing_weights was called")

        rng = np.random.default_rng(78)
        model = _net(arch, seed=20)
        _perturb(model, rng)
        _commit(model)
        model.set_temperature(1.0)  # committed, it gathers at every temperature
        x = rng.normal(size=(2 * MAX_CHUNK_ROWS + 5, D))
        hard = model.forward(Tensor(x), mode="hard").data
        monkeypatch.setattr(L, "routing_weights", refuse)
        assert _step_names(model, "relaxed")[1] == "gather_pair"
        npt.assert_array_equal(_bits(model.forward(Tensor(x), mode="relaxed").data), _bits(hard))

    def test_one_hot_gather_and_product_differ_only_in_the_sign_of_zero(self):
        model = _net(ARCHS[0], seed=19)
        model.set_temperature(0.01)
        pin_routing(model.routing, 0.01)
        r = model.routing
        s = L.routing_weights(r.psi.data, r.temperature)
        idx = s.argmax(1)
        x = np.random.default_rng(77).normal(size=(40, D))
        x[:, idx[0]] = -0.0
        x[:, (idx[0] + 1) % D] = 0.0
        gathered = L.gather_pair(idx, r.k, r.m)[0](x)[0]
        mixed = M._mix_step(s, r.k, r.m)(x, np.empty(r.k * r.m * len(x)))
        npt.assert_array_equal(gathered, mixed)  # -0.0 == 0.0
        # the gather keeps a chosen -0.0; the product adds it to +0.0 terms
        npt.assert_array_equal(_bits(gathered) != _bits(mixed), np.signbit(gathered) & (gathered == 0.0))
        assert np.signbit(gathered).any() and not np.signbit(mixed[gathered == 0.0]).any()

    def test_relaxed_routing_that_is_not_one_hot_mixes(self):
        model = _net(ARCHS[0], seed=18)
        model.set_temperature(0.01)
        pin_routing(model.routing, 0.01)
        model.routing.idx = None  # un-committed, as fit does before psi trains again
        psi = model.routing.psi.data
        psi[5, (psi[5].argmax() + 1) % D] = psi[5].max()  # a tie: two weights of 1/2
        assert _step_names(model, "relaxed")[1] == "_mix_step"
        assert _step_names(model, "hard")[1] == "gather_pair"

    def test_two_models_do_not_interfere(self, eval_dtype):
        rng = np.random.default_rng(75)
        x = rng.normal(size=(300, D))
        # chunk buffers of 2,048 x 16 values, and of 1 MiB at 1,024 values a row
        models = [_net(ARCHS[0], seed=15), _net(WIDE_MLP, seed=16)]
        for model in models:
            _perturb(model, rng)
        want = [_reference_logits(model, x, "hard") for model in models]
        for _ in range(2):
            for model, w in zip(models, want):
                assert_eval_logits(model.forward(Tensor(x), mode="hard").data, w, rtol=1e-10, atol=1e-12)

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

    @pytest.mark.parametrize("arch", [ARCHS[0], ARCHS[-1]])
    @pytest.mark.parametrize("warnings_action", ["error", "ignore", "default"])
    def test_input_beyond_float32_raises(self, arch, warnings_action, eval_dtype, monkeypatch):
        _workers(monkeypatch, 2)
        model = _net(arch, seed=26)
        x = np.random.default_rng(84).normal(size=(4 * MAX_CHUNK_ROWS, D))
        x[-1, 2] = 1e38  # within float32's range
        # 1e39 is finite in float64, beyond float32
        bad = [np.nan, np.inf, -np.inf] + ([1e39] if eval_dtype is np.float32 else [])
        with warnings.catch_warnings():
            warnings.simplefilter(warnings_action)
            assert predictions(model, x).shape == (len(x),)
            for value in bad:
                x[-1, 2] = value  # in the last chunk, a worker's when there are two (hard routing)
                for hard in (False, True):
                    with pytest.raises(DomainError, match=np.dtype(eval_dtype).name):
                        predictions(model, x, hard=hard)
                    with pytest.raises(DomainError, match=np.dtype(eval_dtype).name):
                        predictions(model, x[-1:], hard=hard)
        assert len(model._eval_buffers) == (1 if model.routing is None else 2)


# d and the number of rows of the benchmark's wide-784 workload
W2_D, W2_ROWS = 784, 4096
W2_ARCH = (
    "GSel-64-16, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, GPool-max, "
    "GFC, ReLU, BNorm, Concat, FC-10"
)


@pytest.mark.parametrize("mode", ["hard", "relaxed"])
def test_w2_scale_float32_logits_and_labels(mode):
    rng = np.random.default_rng(85)
    model = Model(parse_arch(W2_ARCH, d=W2_D, seed=27))
    model.set_temperature(0.3)
    _perturb(model, rng)
    x = rng.normal(size=(W2_ROWS, W2_D))
    got = model.forward(Tensor(x), mode=mode).data
    want = _reference_logits(model, x, mode)
    limit = float32_limit(want)
    assert np.abs(got - want).max() <= limit
    # where the reference's top two logits are further apart than twice the
    # bound, float32 must pick the same label
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 2 * limit
    assert clear.mean() > 0.99
    npt.assert_array_equal(got.argmax(1)[clear], want.argmax(1)[clear])
    assert all(buf.dtype == np.float32 for pair in model._eval_buffers for buf in pair)


# the W2 net at both budgets; the 1,024-wide dense net at the halved one
# only: OpenBLAS (0.3.31, 2-core Xeon) sums its 1,024 x 3 product in another
# order from about 328 rows on (M*N*K above 10**6), so its bits move with
# 512-row chunks, as a dense net's may wherever BLAS changes kernels
@pytest.mark.parametrize("arch, d, scales", [(W2_ARCH, W2_D, (0.5, 2.0)), (WIDE_MLP, D, (0.5,))])
@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_budget_leaves_the_logits_bits(arch, d, scales, workers, monkeypatch):
    def net():  # a fresh model: its buffers are sized by the budget of its first call
        model = Model(parse_arch(arch, d=d, seed=28))
        if model.routing is not None:
            model.set_temperature(0.3)
        _perturb(model, np.random.default_rng(86))
        return model

    _workers(monkeypatch, workers)
    model = net()
    rows = M._chunk_rows(model._widest)
    # chunks of the doubled budget: two per worker, and a tail
    x = np.random.default_rng(87).normal(size=(8 * rows + 37, d))
    modes = ("hard", "relaxed")
    want = [_bits(model.forward(Tensor(x), mode=mode).data) for mode in modes]
    budget = M.CHUNK_BYTES
    for scale in scales:
        monkeypatch.setattr(M, "CHUNK_BYTES", int(budget * scale))
        model = net()
        assert M._chunk_rows(model._widest) == int(rows * scale)
        for mode, w in zip(modes, want):
            npt.assert_array_equal(_bits(model.forward(Tensor(x), mode=mode).data), w)


# ---------------------------------------------------------------------------
# the compiled training step

TAUS = [1.0, 0.3, 0.01]
# every architecture once per temperature; the temperature is moot in a dense net
STEP_CASES = [(arch, tau) for arch in ARCHS[:-1] + [BARE_GFC_ARCH] for tau in TAUS] + [
    (ARCHS[-1], 1.0), (WIDE_MLP, 1.0), (BN_FIRST_MLP, 1.0)
]
# (lambda, alpha): both terms, neither, and each alone, so that each
# gradient slot is written first by L2, by the entropy and by its block
STEP_CFGS = [(0.5, 1e-2), (0.0, 0.0), (1.0, 0.0), (0.0, 1e-3)]
# the nets that route, for the hard step
ROUTED = ARCHS[:-1] + [BARE_GFC_ARCH]


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


def _tape_step(model, x, y, cfg, hard=False):
    """(loss, ce, entropy term) and the flat gradient, through the tape path.

    ``hard`` routes through the gather of psi's argmax and leaves psi out of
    the objective's terms and of the gradient, which then starts at the
    first parameter after psi.
    """
    params = model.parameters()
    psi = model.routing.psi if model.routing is not None else None
    lo = 0
    if hard and psi is not None:
        params, psi, lo = params[1:], None, psi.size
    tape = T.Tape()
    mode = "hard" if hard else "relaxed"
    logits = model.forward(Tensor(x), training=True, tape=tape, mode=mode)
    total, ce, ent = loss_terms(tape, logits, y, psi, params, cfg)
    tape.backward(total)
    grad = np.zeros_like(model._flat)
    for (_, p), offset in zip(params, model._offsets[-len(params) :]):
        grad[offset : offset + p.size] = p.grad.reshape(-1)
        p.grad = None
    assert model.parameters()[0][1].grad is None
    return (total.item(), ce.item(), ent.item() if ent is not None else 0.0), grad[lo:]


def _bits(a):
    """The raw bits of an array: equal bits, equal values, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def _moments(model):
    return [arr.copy() for name, arr in model.state_arrays() if ".running_" in name]


class TestTrainStep:
    @pytest.mark.usefixtures("train_dtype")
    @pytest.mark.parametrize("arch, tau", STEP_CASES)
    def test_same_bits_as_tape_path(self, arch, tau):
        x, y = _batch(_net(arch, seed=1))
        for lam, alpha in STEP_CFGS:
            cfg = TrainConfig(lambda_=lam, alpha=alpha)
            taped, compiled = _step_net(arch, tau), _step_net(arch, tau)
            want, want_grad = _tape_step(taped, x, y, cfg)
            step = TrainStep(compiled, cfg)
            assert step.loss(x, y) == want
            step.backward()
            npt.assert_array_equal(_bits(step.grad), _bits(want_grad))
            for got, kept in zip(_moments(compiled), _moments(taped)):
                npt.assert_array_equal(_bits(got), _bits(kept))

    @pytest.mark.usefixtures("train_dtype")
    @pytest.mark.parametrize("arch, tau", STEP_CASES)
    def test_gradient_matches_finite_differences(self, arch, tau):
        model = _step_net(arch, tau)
        x, y = _batch(model)
        # a small alpha: the subnormal weight's logit of about -720*tau
        # would make the L2 term, and the rounding of each difference, large
        step = TrainStep(model, TrainConfig(lambda_=0.5, alpha=1e-6))

        def objective():
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

    @pytest.mark.parametrize("arch, tau", STEP_CASES)
    def test_float32_batch_gives_the_bits_of_its_float64_upcast(self, arch, tau):
        x, y = _batch(_net(arch, seed=1))
        x32 = x.astype(np.float32)
        cfg = TrainConfig(lambda_=0.5, alpha=1e-2)
        for hard in (False, True) if arch in ROUTED else (False,):
            upcast, rounded = _step_net(arch, tau), _step_net(arch, tau)
            want, step = TrainStep(upcast, cfg, hard=hard), TrainStep(rounded, cfg, hard=hard)
            assert step.loss(x32, y) == want.loss(x32.astype(np.float64), y)
            step.backward()
            want.backward()
            npt.assert_array_equal(_bits(step.grad), _bits(want.grad))
            for got, kept in zip(_moments(rounded), _moments(upcast)):
                npt.assert_array_equal(_bits(got), _bits(kept))

    @pytest.mark.usefixtures("train_dtype")
    @pytest.mark.parametrize("arch", ROUTED)
    def test_hard_step_same_bits_as_tape_path(self, arch):
        x, y = _batch(_net(arch, seed=1))
        for lam, alpha in STEP_CFGS:
            cfg = TrainConfig(lambda_=lam, alpha=alpha)
            taped, compiled = _step_net(arch, 0.01), _step_net(arch, 0.01)
            want, want_grad = _tape_step(taped, x, y, cfg, hard=True)
            step = TrainStep(compiled, cfg, hard=True)
            assert step.loss(x, y) == want and want[2] == 0.0
            step.backward()
            assert step.grad.size == compiled._flat.size - compiled.routing.psi.size
            assert np.shares_memory(step.flat, compiled._flat[compiled.routing.psi.size :])
            npt.assert_array_equal(_bits(step.grad), _bits(want_grad))
            for got, kept in zip(_moments(compiled), _moments(taped)):
                npt.assert_array_equal(_bits(got), _bits(kept))

    @pytest.mark.usefixtures("train_dtype")
    @pytest.mark.parametrize("arch", ROUTED)
    def test_hard_gradient_matches_finite_differences(self, arch):
        model = _step_net(arch, 0.01)
        x, y = _batch(model)
        step = TrainStep(model, TrainConfig(lambda_=0.5, alpha=1e-2), hard=True)

        def objective():
            return step.loss(x, y)[0]

        value = objective()
        step.backward()
        analytic = step.grad.copy()
        psi = model.routing.psi.data
        lo = psi.size
        pick = np.random.default_rng(6)
        for (name, p), offset in zip(model.parameters()[1:], model._offsets[1:]):
            idx = np.sort(pick.choice(p.size, size=min(p.size, 24), replace=False))
            numeric = finite_difference_at(objective, p.data, idx, 1e-5)
            assert max_rel_err(analytic[offset - lo + idx], numeric, floor=1e-3) < 1e-5, name
        # psi is out of the objective but for its argmax: a logit that stays
        # below its row's maximum moves nothing
        j = (psi[1].argmax() + 1) % D
        psi[1, j] = (psi[1, j] + psi[1].max()) / 2
        assert objective() == value

    @pytest.mark.parametrize("arch", ROUTED)
    def test_narrowed_to_every_column_gives_the_dense_steps_bits(self, arch):
        x, y = _batch(_net(arch, seed=1))
        for lam, alpha in STEP_CFGS:
            cfg = TrainConfig(lambda_=lam, alpha=alpha)
            dense, narrowed = _step_net(arch, 0.3), _step_net(arch, 0.3)
            n = dense.routing.psi.size
            want = TrainStep(dense, cfg)
            got = TrainStep(narrowed, cfg, cols=np.tile(np.arange(D), (n // D, 1)))
            assert got.loss(x, y) == want.loss(x, y)
            got.backward()
            want.backward()
            assert np.shares_memory(got.flat, narrowed._flat[n:]) and got.flat.size == want.flat.size - n
            npt.assert_array_equal(_bits(got.grad_c), _bits(want.grad[:n]))
            npt.assert_array_equal(_bits(got.grad), _bits(want.grad[n:]))
            for got_m, want_m in zip(_moments(narrowed), _moments(dense)):
                npt.assert_array_equal(_bits(got_m), _bits(want_m))

    @pytest.mark.usefixtures("train_dtype")
    @pytest.mark.parametrize("arch, tau", [(arch, tau) for arch in ROUTED for tau in TAUS])
    def test_narrowed_gradient_matches_finite_differences(self, arch, tau):
        model = _step_net(arch, tau)
        x, y = _batch(model)
        psi = model.routing.psi.data
        # 3 of the 5 columns per row; row 0 keeps its argmax and the column whose weight is subnormal
        cols = np.sort(np.argsort(np.random.default_rng(7).random(psi.shape), axis=1)[:, :3], axis=1)
        j = psi[0].argmax()
        cols[0] = np.sort([j, (j + 1) % D, (j + 2) % D])
        step = TrainStep(model, TrainConfig(lambda_=0.5, alpha=1e-6), cols=cols)
        npt.assert_array_equal(step.psi_c, np.take_along_axis(psi, cols, 1))
        assert L.routing_weights(step.psi_c, tau)[0, list(cols[0]).index((j + 1) % D)] == 0.0

        def objective():
            return step.loss(x, y)[0]

        value = objective()
        step.backward()
        numeric = finite_difference_at(objective, step.psi_c, range(step.psi_c.size), 1e-5 * tau)
        assert max_rel_err(step.grad_c, numeric, floor=1e-3) < 1e-5
        analytic, lo = step.grad.copy(), psi.size
        pick = np.random.default_rng(6)
        for (name, p), offset in zip(model.parameters()[1:], model._offsets[1:]):
            idx = np.sort(pick.choice(p.size, size=min(p.size, 24), replace=False))
            numeric = finite_difference_at(objective, p.data, idx, 1e-5)
            assert max_rel_err(analytic[offset - lo + idx], numeric, floor=1e-3) < 1e-5, name
        # the step trains psi_c, a copy: psi itself is not read
        psi[...] = 0.0
        assert objective() == value

    @pytest.mark.usefixtures("train_dtype")
    @pytest.mark.parametrize(
        "arch", ["GSel-8-4, GFC, ReLU, BNorm, Concat, FC-2", ARCHS[5], BARE_GFC_ARCH]
    )
    def test_fit_matches_tape_loop(self, arch):
        model, reference = _net(arch, seed=23), _net(arch, seed=23)
        rng = np.random.default_rng(24)
        train = Dataset(rng.normal(size=(96, D)), rng.integers(0, model.spec.n_classes, 96),
                        model.spec.n_classes)
        # the last of the 4 epochs is hard
        cfg = TrainConfig(epochs=4, batch_size=16, lr0=1e-2, plateau_patience=4, seed=4)
        result = fit(model, train, train, cfg)
        losses = _tape_fit(reference, train, cfg)
        assert relaxed_epochs(cfg.epochs) == 3 and result.records[-1].entropy_term == 0.0
        assert [r.train_loss for r in result.records] == losses
        for (name, got), (_, want) in zip(model.state_arrays(), reference.state_arrays()):
            npt.assert_array_equal(_bits(got), _bits(want), err_msg=name)


    @pytest.mark.usefixtures("train_dtype")
    def test_fit_with_every_column_a_candidate_matches_tape_loop(self, monkeypatch):
        # d = 5 is not above 5 candidates, so fit does not narrow
        monkeypatch.setattr(training, "ROUTING_CANDIDATES", D)
        self.test_fit_matches_tape_loop(ARCHS[5])
        # the check can tell: 4 candidates narrow, and fit leaves the tape loop
        monkeypatch.setattr(training, "ROUTING_CANDIDATES", D - 1)
        with pytest.raises(AssertionError):
            self.test_fit_matches_tape_loop(ARCHS[5])


def _tape_fit(model, train, cfg):
    """``fit``'s training loop through the tape, the gradients gathered into one flat vector for Adam; the mean loss of each epoch.

    The plateau rule needs ``cfg.epochs`` completed epochs to act, so the
    learning rate stays ``lr0`` and no validation accuracy is needed. The
    epochs after ``relaxed_epochs(cfg.epochs)`` run on the pinned routing, with Adam
    over the parameters after psi, continuing their moments and the step
    count.
    """
    assert cfg.plateau_patience >= cfg.epochs
    adam = AdamState.create(model._flat.size)
    w = model._flat
    losses = []
    hard = False
    for epoch in range(cfg.epochs):
        if epoch == relaxed_epochs(cfg.epochs):
            hard, lo = True, model.routing.psi.size
            pin_routing(model.routing, cfg.tau_end)
            adam, w = AdamState(adam.m[lo:], adam.v[lo:], adam.step), w[lo:]
        lr, tau = schedule_step(epoch, [], cfg)
        model.set_temperature(tau)
        total_sum, n = 0.0, 0
        for xb, yb in batches(train, cfg.batch_size, cfg.seed, epoch):
            (total, _, _), grad = _tape_step(model, xb, yb, cfg, hard)
            adam_step(w, grad, adam, lr)
            total_sum += total
            n += 1
        losses.append(total_sum / n)
    return losses
