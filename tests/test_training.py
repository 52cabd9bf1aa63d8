import copy
import gc
import math
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlp import tensor as T
from gmlp import training
from gmlp.data import Dataset, SynthBayesNet, normalize, split, synth_generate
from gmlp.errors import ConfigError, DomainError, TrainingDiverged
from gmlp.model import Model, parse_arch
from gmlp.tensor import Tensor
from gmlp.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_TILE,
    AdamState,
    TrainConfig,
    accuracy,
    adam_step,
    entropy_term,
    fit,
    learning_rate_at,
    loss_terms,
    objective,
    objective_grad,
    schedule_step,
    temperature_at,
)
from gmlp.layers import PIN_TEMPERATURES, pin_routing, routing_weights
from gradcheck import check_tape_gradients, finite_difference, max_rel_err


def cfg(**kw):
    base = dict(epochs=10, batch_size=8, lambda_=0.0, alpha=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# exp(-715) ~ 1e-311 is subnormal: below float64's smallest normal, about exp(-708.4)
SUBNORMAL_GAP = 715.0


def masked_neg_entropy(a):
    """The masked p*log(p) formula: value and gradient (for an upstream 1)."""
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    plogp = np.zeros_like(p)
    pos = p > 0.0
    plogp[pos] = p[pos] * np.log(p[pos])
    return plogp.sum(), plogp - p * plogp.sum(axis=1, keepdims=True)


class TestEntropyTerm:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_masked_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=3.0, size=(6, 7))
        a[0] = [0.0, -1e3, -2e3, 5.0, -1e4, 0.0, 1.0]  # exact zeros after exp
        a[1] = [0.0, -SUBNORMAL_GAP, -740.0, -700.0, -30.0, -1e3, -0.5]  # subnormals
        a[2] = [50.0, -1e3, -1e3, -1e3, -1e3, -1e3, -1e3]  # saturated: value 0
        a[3] = 0.0  # uniform
        value, grad = masked_neg_entropy(a)
        # the term and psi's gradient at lambda 1 carry the outer factor -1/d, undone here
        d = a.shape[1]
        got = entropy_term(a)[0] * -d
        *_, saved = objective(np.zeros((1, 2)), np.array([0]), a, None, 1.0, 0.0)
        got_grad = objective_grad(1.0, saved)[1] * -d
        assert got == pytest.approx(value, rel=1e-12)
        npt.assert_allclose(got_grad, grad, rtol=1e-10, atol=1e-15)
        assert np.all(got_grad[2] == 0.0)

    def test_uniform_single_row(self):
        psi = np.zeros((1, 4))
        assert entropy_term(psi)[0] == pytest.approx(np.log(4) / 4, rel=1e-12)

    def test_saturated_rows_vanish(self):
        psi = np.eye(3) * 1e3
        assert entropy_term(psi)[0] == pytest.approx(0.0, abs=1e-6)

    def test_single_peaked_row_value(self):
        # independent evaluation of the row [10, 0, 0, 0]
        row = np.array([10.0, 0.0, 0.0, 0.0])
        p = np.exp(row) / np.exp(row).sum()
        expected = -(p * np.log(p)).sum() / 4
        psi = row.reshape(1, 4)
        assert entropy_term(psi)[0] == pytest.approx(expected, rel=1e-12)
        assert entropy_term(psi)[0] == pytest.approx(0.0014980 / 4, abs=1e-8)

    def test_monotone_decrease_as_one_logit_grows(self):
        values = []
        for v in np.linspace(0.0, 20.0, 21):
            psi = np.array([[v, 0.0, 0.0, 0.0]])
            values.append(entropy_term(psi)[0])
        assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(2, 12), st.integers(0, 2**31 - 1))
    def test_bounds(self, rows, d, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(scale=2.0, size=(rows, d))
        h = entropy_term(psi)[0]
        assert 0.0 <= h <= (rows / d) * np.log(d) + 1e-12

    def test_gradient_against_finite_differences(self):
        # psi's gradient in the objective is its entropy term's alone
        rng = np.random.default_rng(21)
        psi = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        tape = T.Tape()
        logits, y = Tensor(np.zeros((1, 2))), np.array([0])
        tape.backward(loss_terms(tape, logits, y, psi, [], cfg(lambda_=1.0))[0])
        (numeric,) = finite_difference(lambda: entropy_term(psi.data)[0], [psi.data])
        assert max_rel_err(psi.grad, numeric) < 1e-5

    def test_writes_into_the_given_buffers(self):
        rng = np.random.default_rng(22)
        psi = rng.normal(size=(3, 4))
        z, e = np.empty((3, 4)), np.empty((3, 4))
        value, saved = entropy_term(psi, z, e)
        assert value == entropy_term(psi)[0]
        assert saved[0] is z and saved[1] is e


def l2_sum(arrays):
    """The objective's L2 sum of the arrays, at alpha 1 on one saturated row, whose CE is exactly 0."""
    flats = [a.reshape(-1) for a in arrays]
    total, ce, _, _ = objective(np.array([[0.0, -1e3]]), np.array([0]), None, flats, 0.0, 1.0)
    assert ce == 0.0
    return total


class TestObjective:
    def test_cross_entropy_of_uniform_logits(self):
        _, ce, _, _ = objective(np.zeros((4, 2)), np.array([0, 1, 0, 1]), None, [], 0.0, 0.0)
        npt.assert_allclose(ce, np.log(2.0), rtol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            objective(np.zeros((1, 2)), np.array([2]), None, [], 0.0, 0.0)

    def test_sum_squares(self):
        rng = np.random.default_rng(19)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert l2_sum([a.data]) == pytest.approx(np.square(a.data).sum(), rel=1e-14)
        logits = Tensor(np.zeros((1, 2)))
        check_tape_gradients(
            lambda tp: loss_terms(tp, logits, np.array([0]), None, [("a", a)], cfg(alpha=1.0))[0],
            [a], tol=1e-6,
        )

    def test_sum_squares_over_several_tensors(self):
        rng = np.random.default_rng(23)
        ts = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in [(3, 4), (5,), (2, 3, 2)]]
        expected = 0.0
        for a in ts:
            expected += np.dot(a.data.reshape(-1), a.data.reshape(-1))
        assert l2_sum([a.data for a in ts]) == expected
        logits = Tensor(np.zeros((1, 2)))
        params = [(str(i), a) for i, a in enumerate(ts)]
        check_tape_gradients(
            lambda tp: loss_terms(tp, logits, np.array([0]), None, params, cfg(alpha=1.0))[0],
            ts, tol=1e-6,
        )


class TestLoss:
    def test_uniform_logits_gives_log2(self):
        logits = Tensor(np.zeros((6, 2)))
        total, ce, ent = loss_terms(
            None, logits, np.array([0, 1, 1, 0, 1, 0]), None, [], cfg()
        )
        assert total.item() == pytest.approx(math.log(2), rel=1e-12)
        assert ent is None

    def test_zero_weights_reduce_to_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(5, 3)))
        y = np.array([0, 2, 1, 1, 0])
        psi = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        params = [("psi", psi)]
        total, ce, _ = loss_terms(None, logits, y, psi, params, cfg())
        assert total.item() == ce.item()

    def test_entropy_and_l2_terms_add(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(5, 3)))
        y = np.array([0, 2, 1, 1, 0])
        psi = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        params = [("psi", psi), ("w", w)]
        c = cfg(lambda_=0.7, alpha=0.01)
        total, ce, ent = loss_terms(None, logits, y, psi, params, c)
        expected = (
            ce.item()
            + 0.7 * ent.item()
            + 0.01 * (np.square(psi.data).sum() + np.square(w.data).sum())
        )
        assert total.item() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_params", [1, 3, 7])
    def test_objective_is_one_node(self, n_params):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        psi = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        params = [("psi", psi)] + [
            (f"p{i}", Tensor(rng.normal(size=(i + 1, 2)), requires_grad=True))
            for i in range(n_params)
        ]
        tape = T.Tape()
        total, _, _ = loss_terms(tape, logits, np.array([0, 2, 1, 1, 0]), psi, params,
                                 cfg(lambda_=0.5, alpha=0.01))
        assert len(tape) == 1
        assert tape.nodes[0].out is total
        assert tape.nodes[0].inputs == (logits, psi, *(p for _, p in params))

    def test_objective_node_inputs_follow_the_weights(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        psi = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        params = [("psi", psi)]
        y = np.array([0, 2, 1, 1, 0])
        for lam, alpha, inputs in [(0.0, 0.0, (logits,)), (0.5, 0.0, (logits, psi)),
                                   (0.0, 0.01, (logits, psi))]:
            tape = T.Tape()
            loss_terms(tape, logits, y, psi, params, cfg(lambda_=lam, alpha=alpha))
            assert tape.nodes[0].inputs == inputs

    def test_label_out_of_range(self):
        with pytest.raises(Exception):
            loss_terms(None, Tensor(np.zeros((1, 2))), np.array([5]), None, [], cfg())

    def test_row_shift_invariance_without_l2(self):
        # psi only enters through softmax, so adding a constant to a row
        # changes nothing unless the L2 term sees the raw values
        spec = parse_arch("GSel-2-2, GFC, ReLU, BNorm, Concat, FC-2", d=4, seed=3)
        model = Model(spec)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(8, 4)), rng.integers(0, 2, 8)

        def total_loss(alpha):
            c = cfg(lambda_=1.0, alpha=alpha)
            logits = model.forward(Tensor(x), training=False)
            total, _, _ = loss_terms(
                None, logits, y, model.routing.psi, model.parameters(), c
            )
            return total.item()

        before_free, before_l2 = total_loss(0.0), total_loss(0.1)
        model.routing.psi.data[1] += 3.0
        assert total_loss(0.0) == pytest.approx(before_free, rel=1e-12)
        assert total_loss(0.1) != pytest.approx(before_l2, rel=1e-6)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = np.array([1.0])
        state = AdamState.create(1)
        adam_step(w, np.array([0.37]), state, lr=0.001)
        assert abs(1.0 - w[0]) == pytest.approx(0.001, rel=1e-4)

    def test_zero_gradient_leaves_parameters(self):
        w = np.array([1.0, -2.0])
        state = AdamState.create(2)
        adam_step(w, np.zeros(2), state, lr=0.1)
        npt.assert_array_equal(w, [1.0, -2.0])

    def test_shape_mismatch(self):
        state = AdamState.create(1)
        with pytest.raises(ConfigError):
            adam_step(np.array([1.0]), np.zeros(2), state, lr=0.1)

    @pytest.mark.parametrize("size", [3, 2 * ADAM_TILE + 37])
    def test_bit_identical_to_plain_expression(self, size):
        # one short slice, or several with the last one short
        rng = np.random.default_rng(5)
        w = rng.normal(size=size)
        state = AdamState.create(size)
        ref_w, m, v = w.copy(), np.zeros(size), np.zeros(size)
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 0.01
        for step in range(1, 6):
            g = rng.normal(scale=10.0 ** (step - 3), size=size)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            ref_w -= lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
            adam_step(w, g, state, lr)
            assert np.array_equal(w, ref_w) and np.array_equal(state.m, m)
            assert np.array_equal(state.v, v)

    def test_scratch_is_one_slice(self):
        w = np.ones(1 << 20)
        g = np.full(w.shape, 0.5)
        state = AdamState.create(w.size)
        tracemalloc.start()
        try:
            adam_step(w, g, state, lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * ADAM_TILE * 8


class TestSchedules:
    def test_temperature_endpoints_and_midpoint(self, monkeypatch):
        # no hard phase: the anneal spans every epoch
        monkeypatch.setattr(training, "HARDEN_FRACTION", 0.0)
        c = cfg(epochs=301)
        assert temperature_at(0, c) == pytest.approx(1.0)
        assert temperature_at(300, c) == pytest.approx(0.01)
        assert temperature_at(150, c) == pytest.approx(0.1)

    def test_anneal_ends_at_the_last_relaxed_epoch(self):
        # the last int(0.25 * 401) = 100 epochs are hard
        c = cfg(epochs=401)
        assert training.relaxed_epochs(401) == 301
        assert temperature_at(0, c) == pytest.approx(1.0)
        assert temperature_at(150, c) == pytest.approx(0.1)
        assert temperature_at(300, c) == pytest.approx(0.01)
        assert {temperature_at(e, c) for e in range(300, 401)} == {0.01}

    def test_a_single_relaxed_epoch_runs_at_tau_start(self, monkeypatch):
        monkeypatch.setattr(training, "HARDEN_FRACTION", 0.5)
        c = cfg(epochs=2)
        assert [temperature_at(e, c) for e in range(2)] == [1.0, 0.01]

    def test_annealing_disabled(self):
        c = cfg(epochs=100, tau_start=0.5, tau_end=0.5)
        assert {temperature_at(e, c) for e in range(100)} == {0.5}

    def test_improving_history_never_decays(self):
        c = cfg(epochs=50, plateau_patience=3)
        history = list(np.linspace(0.5, 0.99, 40))
        assert learning_rate_at(history, c) == c.lr0

    def test_plateau_decays_by_factor(self):
        c = cfg(epochs=50, plateau_patience=3, plateau_factor=5.0)
        assert learning_rate_at([0.9, 0.9, 0.9, 0.9], c) == pytest.approx(c.lr0 / 5)
        # a second full patience window decays again
        assert learning_rate_at([0.9] + [0.9] * 6, c) == pytest.approx(c.lr0 / 25)

    def test_sequences_monotone_non_increasing(self):
        c = cfg(epochs=40, plateau_patience=4)
        rng = np.random.default_rng(5)
        history = list(rng.uniform(0.4, 0.9, size=40))
        lrs = [schedule_step(e, history[:e], c)[0] for e in range(40)]
        taus = [schedule_step(e, history[:e], c)[1] for e in range(40)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_epoch_out_of_budget(self):
        with pytest.raises(ConfigError):
            schedule_step(10, [], cfg(epochs=10))


class TestFit:
    def _tiny_task(self, n=64, seed=0):
        ds = synth_generate(SynthBayesNet(xor_fidelity=1.0,
                                          target_rule=np.array([0.0, 0.0, 1.0, 1.0])),
                            n, seed=seed)
        return ds

    def test_memorizes_tiny_dataset(self):
        # noise-free XOR task, trained and scored on the same 96 rows. Inputs
        # are standardized as `gmlp train` does; with raw {0,1} inputs a
        # zero-bias GFC unit whose weights start <= 0 is dead on every row.
        # One epoch is only 6 steps, so the plateau rule is held off for the
        # whole budget, and each group gets 4 ReLU units, not the bare 2 one
        # XOR needs.
        (ds,), _ = normalize(self._tiny_task(96))
        model = Model(parse_arch("GSel-8-4, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=1))
        c = TrainConfig(epochs=150, batch_size=16, lambda_=0.5, alpha=1e-4, lr0=1e-2,
                        plateau_patience=150, seed=1)
        fit(model, ds, ds, c)
        assert accuracy(model, ds) == 1.0
        assert accuracy(model, ds, hard=True) == 1.0

    def test_determinism_bitwise(self):
        ds = self._tiny_task(64)
        train, val = split(ds, 0.25, seed=2)

        def run():
            model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=3))
            result = fit(model, train, val, cfg(epochs=6, lambda_=1.0, alpha=1e-4))
            return result, model

        r1, m1 = run()
        r2, m2 = run()
        assert [vars(a) for a in r1.records] == [vars(b) for b in r2.records] or all(
            _records_equal_except_wall(a, b) for a, b in zip(r1.records, r2.records)
        )
        for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_gradients_released_on_return(self):
        ds = self._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=3))
        before = dict(vars(model))
        fit(model, ds, ds, cfg(epochs=2, lambda_=1.0, alpha=1e-4))
        assert [name for name, p in model.parameters() if p.grad is not None] == []
        # no flat gradient or step buffer stays on the model: every attribute
        # is the object it was, but the eval buffers that scoring made
        after = vars(model)
        assert after.keys() == before.keys()
        assert [k for k in after if after[k] is not before[k]] == ["_eval_buffers"]

    def test_models_of_one_spec_share_no_state(self):
        ds = self._tiny_task(64)
        spec = parse_arch("GSel-4-2, GFC, ReLU, BNorm, GPool-linear, GFC, Concat, FC-2", d=6, seed=3)
        blocks = copy.deepcopy(spec.blocks)
        trained, other = Model(spec), Model(spec)
        initial = [arr.copy() for _, arr in other.state_arrays()]
        fit(trained, ds, ds, cfg(epochs=1))
        assert spec.blocks == blocks
        assert not np.array_equal(trained._flat, other._flat)
        for kept, (name, arr) in zip(initial, other.state_arrays()):
            npt.assert_array_equal(arr, kept, err_msg=name)

    def test_best_state_holds_copies(self):
        ds = self._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=3))
        result = fit(model, ds, ds, cfg(epochs=3, lambda_=1.0, alpha=1e-4))
        live = [arr for _, arr in model.state_arrays()]
        for name, saved in result.best_state:
            assert not any(np.shares_memory(saved, arr) for arr in live), name
            assert not np.shares_memory(saved, model._flat), name

    def test_divergence_detected(self):
        ds = self._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=4))
        with pytest.raises(TrainingDiverged):
            fit(model, ds, ds, cfg(epochs=5, lr0=1e18, alpha=1e-4))

    def test_divergence_error_names_the_bound(self):
        ds = self._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=4))
        with pytest.raises(TrainingDiverged, match="first batch loss") as info:
            fit(model, ds, ds, cfg(epochs=5, lr0=1e18, alpha=1e-4))
        assert info.value.epoch == 0
        assert info.value.value > 1e6

    def test_rising_loss_under_bound_completes(self):
        # lr0=1 overshoots: the loss climbs to about 5x its first value, far
        # below the 1e6x blow-up bound, so the run must finish all epochs
        ds = self._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=4))
        c = cfg(epochs=5, lr0=1.0, alpha=1e-4)
        logits = model.forward(Tensor(ds.X), training=True)
        start, _, _ = loss_terms(None, logits, ds.y, model.routing.psi, model.parameters(), c)
        result = fit(model, ds, ds, c)
        assert len(result.records) == 5
        assert max(r.train_loss for r in result.records) > 2 * start.item()

    def test_zero_epochs_no_records(self):
        ds = self._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=5))
        result = fit(model, ds, ds, cfg(epochs=0))
        assert result.records == []
        assert result.best_state is None

    def test_batch_size_too_large(self):
        ds = self._tiny_task(8)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=6))
        with pytest.raises(ConfigError):
            fit(model, ds, ds, cfg(epochs=1, batch_size=32))


class TestHardPhase:
    ARCH = "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2"

    def _fit(self, c, keep=None):
        """A fit of the tiny task; ``keep(model)`` runs after each epoch."""
        ds = TestFit()._tiny_task(64)
        model = Model(parse_arch(self.ARCH, d=6, seed=3))
        result = fit(model, ds, ds, c, on_epoch=keep and (lambda record: keep(model)))
        return model, result, ds

    def test_psi_and_its_moments_stay_in_hard_epochs(self, monkeypatch):
        calls = []

        def spy(w, g, state, lr):
            adam_step(w, g, state, lr)
            calls.append((w, state, state.m.copy(), state.v.copy()))

        monkeypatch.setattr(training, "adam_step", spy)
        psis = []
        c = cfg(epochs=8, lambda_=1.0, alpha=1e-4)  # the last 2 epochs are hard
        model, result, _ = self._fit(c, lambda model: psis.append(model.routing.psi.data.copy()))
        n = model.routing.psi.size
        steps = len(calls) // 8
        relaxed, hard = calls[: 6 * steps], calls[6 * steps :]
        assert all(w.size == model._flat.size for w, *_ in relaxed)
        assert all(np.shares_memory(w, model._flat[n:]) and w.size == model._flat.size - n
                   for w, *_ in hard)
        # the hard phase's moments are the tail of the relaxed phase's, and the step count runs on
        full = relaxed[-1][1]
        assert all(state.m.base is full.m and state.v.base is full.v for _, state, *_ in hard)
        assert [state.step for _, state, *_ in calls][-1] == len(calls)
        npt.assert_array_equal(full.m[:n], relaxed[-1][2][:n])
        npt.assert_array_equal(full.v[:n], relaxed[-1][3][:n])
        pinned = Model(parse_arch(self.ARCH, d=6, seed=3)).routing
        pinned.psi.data[...] = psis[5]
        pin_routing(pinned, c.tau_end)
        for psi in psis[6:]:
            npt.assert_array_equal(psi, pinned.psi.data)
        assert [r.entropy_term for r in result.records[6:]] == [0.0, 0.0]
        assert [r.tau for r in result.records[5:]] == [c.tau_end] * 3

    def test_fit_uncommits_a_committed_model_and_commits_it_at_the_pin(self):
        ds = TestFit()._tiny_task(64)
        c = cfg(epochs=8, lambda_=1.0, alpha=1e-4)  # the last 2 epochs are hard
        twins = [Model(parse_arch(self.ARCH, d=6, seed=3)) for _ in range(2)]
        for model in twins:
            pin_routing(model.routing, 0.5)
        twins[1].routing.idx = None
        committed = []
        results = [
            fit(twins[0], ds, ds, c, on_epoch=lambda r: committed.append(twins[0].routing.idx is not None)),
            fit(twins[1], ds, ds, c),
        ]
        assert committed == [False] * 6 + [True] * 2
        npt.assert_array_equal(twins[0].routing.idx, twins[0].routing.psi.data.argmax(axis=1))
        # committed or not, the same arrays train to the same bits and records
        assert twins[0]._flat.tobytes() == twins[1]._flat.tobytes()
        assert all(map(_records_equal_except_wall, results[0].records, results[1].records))

    def test_routing_ends_one_hot_and_modes_agree(self):
        argmax = []
        c = cfg(epochs=8, lambda_=1.0, alpha=1e-4)
        model, result, ds = self._fit(c, lambda model: argmax.append(model.routing.psi.data.argmax(1)))
        s = routing_weights(model.routing.psi.data, result.final_tau)
        assert result.final_tau == c.tau_end
        npt.assert_array_equal(s, np.eye(6)[argmax[5]])
        hard = model.forward(Tensor(ds.X), mode="hard").data
        relaxed = model.forward(Tensor(ds.X), mode="relaxed").data
        npt.assert_array_equal(hard.view(np.uint64), relaxed.view(np.uint64))
        assert [r.val_accuracy for r in result.records[6:]] == [
            r.val_accuracy_hard for r in result.records[6:]
        ]

    def test_zero_fraction_trains_every_epoch_relaxed(self, monkeypatch):
        monkeypatch.setattr(training, "HARDEN_FRACTION", 0.0)
        _, result, _ = self._fit(cfg(epochs=8, lambda_=1.0, alpha=1e-4))
        assert all(r.entropy_term > 0.0 for r in result.records)

    def test_hard_epochs_evaluate_only_the_hard_gather(self, monkeypatch):
        calls = []

        def spy(model, ds, hard=False):
            calls.append(hard)
            return accuracy(model, ds, hard=hard)

        monkeypatch.setattr(training, "accuracy", spy)
        monkeypatch.setattr(training, "routing_sparsity", lambda model: calls.append("sparsity") or 0.5)
        _, result, _ = self._fit(cfg(epochs=4))  # the last epoch is hard
        assert calls == [False, True, "sparsity"] * 3 + [True]
        assert [r.sparsity_fraction for r in result.records] == [0.5, 0.5, 0.5, 1.0]

    def test_dense_net_has_no_hard_phase(self, monkeypatch):
        ds = TestFit()._tiny_task(64)
        flats = []
        for fraction in (0.0, 0.5):
            monkeypatch.setattr(training, "HARDEN_FRACTION", fraction)
            model = Model(parse_arch("FC-4, ReLU, BNorm, FC-2", d=6, seed=3))
            result = fit(model, ds, ds, cfg(epochs=4, alpha=1e-4))
            flats.append(model._flat.copy())
            assert all(r.val_accuracy_hard == r.val_accuracy for r in result.records)
        npt.assert_array_equal(flats[0], flats[1])


class TestCandidatePhase:
    """A d = 6 net whose routing rows keep 3 candidate columns after epoch 0."""

    ARCH = "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2"
    K = 3

    def _fit(self, monkeypatch, keep=None, epochs=8):
        """The last 2 of 8 epochs are hard; epochs 1-5 are narrowed. ``keep(model, record)`` runs after each epoch."""
        monkeypatch.setattr(training, "ROUTING_CANDIDATES", self.K)
        ds = TestFit()._tiny_task(64)
        model = Model(parse_arch(self.ARCH, d=6, seed=3))
        c = cfg(epochs=epochs, lambda_=1.0, alpha=1e-4)
        result = fit(model, ds, ds, c, on_epoch=keep and (lambda record: keep(model, record)))
        return model, result

    def test_narrowed_epochs_route_through_the_same_candidates_and_commit_one(self, monkeypatch):
        psis, taus = [], []
        model, result = self._fit(
            monkeypatch, lambda model, r: (psis.append(model.routing.psi.data.copy()), taus.append(r.tau))
        )
        supports = []
        for psi, tau in zip(psis[1:6], taus[1:6]):
            # the non-candidates trail each row's maximum by PIN_TEMPERATURES * tau
            fill = psi.max(1, keepdims=True) - PIN_TEMPERATURES * tau
            candidate = psi != fill
            assert (candidate.sum(1) == self.K).all()
            supports.append(candidate)
            s = routing_weights(psi, tau)
            assert (s[~candidate] == 0.0).all()
            cols = np.nonzero(candidate)[1].reshape(-1, self.K)
            want = routing_weights(np.take_along_axis(psi, cols, 1), tau)
            npt.assert_allclose(np.take_along_axis(s, cols, 1), want, rtol=0, atol=1e-15)
        assert all((support == supports[0]).all() for support in supports)
        assert supports[0][np.arange(8), model.routing.idx].all()
        # at the pin the non-candidates took their row's least candidate logit
        final = model.routing.psi.data
        low = np.where(supports[0], np.inf, final).min(1)
        npt.assert_array_equal(np.where(supports[0], low[:, None], final), np.broadcast_to(low[:, None], final.shape))
        assert np.abs(final[~supports[0]]).max() <= np.abs(psis[5][supports[0]]).max()

    def test_entropy_term_is_the_candidates_after_epoch_0(self, monkeypatch):
        _, result = self._fit(monkeypatch)
        # the entropy term of 8 rows over 6 columns is at most (8/6) log 6, over 3 candidates (8/6) log 3
        ents = [r.entropy_term for r in result.records]
        assert ents[0] > (8 / 6) * math.log(self.K) and all(0.0 < e <= (8 / 6) * math.log(self.K) for e in ents[1:6])
        assert ents[6:] == [0.0, 0.0]

    def test_no_psi_sized_adam_array_outlives_the_first_epoch(self, monkeypatch):
        dense, narrowed, steps = {}, {}, []  # weak references to the moments by id, and to the steps
        n = 8 * 6  # psi's entries

        def spy(w, g, state, lr):
            adam_step(w, g, state, lr)
            for a in (state.m, state.v):
                if a.size == model_size:
                    dense[id(a)] = weakref.ref(a)
                elif a.size == 8 * self.K:
                    narrowed[id(a)] = weakref.ref(a)

        class Step(training.TrainStep):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                steps.append(weakref.ref(self))

        alive = []

        def keep(model, record):
            gc.collect()
            live = [sum(r() is not None for r in refs.values()) for refs in (dense, narrowed)]
            alive.append((*live, [r() is not None for r in steps]))

        model_size = Model(parse_arch(self.ARCH, d=6, seed=3))._flat.size
        monkeypatch.setattr(training, "adam_step", spy)
        monkeypatch.setattr(training, "TrainStep", Step)
        self._fit(monkeypatch, keep)
        assert model_size > n
        # after epoch 0: psi's dense moments and the dense step are gone; after the pin, psi_c's moments and step
        assert alive[0] == (2, 0, [True])
        assert alive[1:6] == [(0, 2, [False, True])] * 5
        assert alive[6:] == [(0, 0, [False, False, True])] * 2

    def test_a_short_fit_ends_on_the_written_back_candidates(self, monkeypatch):
        # 3 epochs: no hard phase, so fit returns an uncommitted psi from a narrowed epoch
        model, result = self._fit(monkeypatch, epochs=3)
        assert model.routing.idx is None
        s = routing_weights(model.routing.psi.data, result.final_tau)
        assert ((s > 0.0).sum(1) <= self.K).all()


class TestModelSelection:
    def test_best_state_is_the_best_hard_epoch(self, monkeypatch):
        # relaxed accuracy peaks at epoch 0, hard accuracy at epoch 2
        scores = {False: iter([0.9, 0.5, 0.6, 0.4]), True: iter([0.2, 0.3, 0.7, 0.7])}
        monkeypatch.setattr(training, "accuracy", lambda model, ds, hard=False: next(scores[hard]))
        states = []
        ds = TestFit()._tiny_task(64)
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=6, seed=3))
        monkeypatch.setattr(training, "HARDEN_FRACTION", 0.0)
        result = fit(model, ds, ds, cfg(epochs=4),
                     on_epoch=lambda r: states.append([a.copy() for _, a in model.state_arrays()]))
        assert [r.val_accuracy for r in result.records] == [0.9, 0.5, 0.6, 0.4]
        assert [r.val_accuracy_hard for r in result.records] == [0.2, 0.3, 0.7, 0.7]
        assert (result.best_epoch, result.best_val_accuracy) == (2, 0.7)
        for (_, saved), kept in zip(result.best_state, states[2]):
            npt.assert_array_equal(saved, kept)


def _records_equal_except_wall(a, b):
    da, db = vars(a).copy(), vars(b).copy()
    da.pop("wall_time")
    db.pop("wall_time")
    return da == db
