import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlp import tensor as T
from gmlp.data import Dataset, SynthBayesNet, normalize, split, synth_generate
from gmlp.errors import ConfigError, TrainingDiverged
from gmlp.model import Model, parse_arch
from gmlp.tensor import Tensor
from gmlp.training import (
    ADAM_TILE,
    AdamState,
    TrainConfig,
    accuracy,
    adam_step,
    entropy_term,
    fit,
    learning_rate_at,
    loss_terms,
    schedule_step,
    temperature_at,
)
from gradcheck import finite_difference, max_rel_err


def cfg(**kw):
    base = dict(epochs=10, batch_size=8, lambda_=0.0, alpha=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestEntropyTerm:
    def test_uniform_single_row(self):
        psi = Tensor(np.zeros((1, 4)), requires_grad=True)
        assert entropy_term(None, psi).item() == pytest.approx(np.log(4) / 4, rel=1e-12)

    def test_saturated_rows_vanish(self):
        psi = Tensor(np.eye(3) * 1e3)
        assert entropy_term(None, psi).item() == pytest.approx(0.0, abs=1e-6)

    def test_single_peaked_row_value(self):
        # independent evaluation of the row [10, 0, 0, 0]
        row = np.array([10.0, 0.0, 0.0, 0.0])
        p = np.exp(row) / np.exp(row).sum()
        expected = -(p * np.log(p)).sum() / 4
        psi = Tensor(row.reshape(1, 4))
        assert entropy_term(None, psi).item() == pytest.approx(expected, rel=1e-12)
        assert entropy_term(None, psi).item() == pytest.approx(0.0014980 / 4, abs=1e-8)

    def test_monotone_decrease_as_one_logit_grows(self):
        values = []
        for v in np.linspace(0.0, 20.0, 21):
            psi = Tensor(np.array([[v, 0.0, 0.0, 0.0]]))
            values.append(entropy_term(None, psi).item())
        assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(2, 12), st.integers(0, 2**31 - 1))
    def test_bounds(self, rows, d, seed):
        rng = np.random.default_rng(seed)
        psi = Tensor(rng.normal(scale=2.0, size=(rows, d)))
        h = entropy_term(None, psi).item()
        assert 0.0 <= h <= (rows / d) * np.log(d) + 1e-12

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(21)
        psi = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        tape = T.Tape()
        tape.backward(entropy_term(tape, psi))
        (numeric,) = finite_difference(
            lambda: entropy_term(None, psi).item(), [psi.data]
        )
        assert max_rel_err(psi.grad, numeric) < 1e-5


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
    def test_l2_is_one_sum_squares_node(self, n_params):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        params = [(f"p{i}", Tensor(rng.normal(size=(i + 1, 2)), requires_grad=True))
                  for i in range(n_params)]
        tape = T.Tape()
        loss_terms(tape, logits, np.array([0, 2, 1, 1, 0]), None, params, cfg(alpha=0.01))
        l2_nodes = [n for n in tape.nodes if n.backward.__qualname__.startswith("sum_squares.")]
        assert len(l2_nodes) == 1
        assert l2_nodes[0].inputs == tuple(p for _, p in params)

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
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.37])
        state = AdamState.create([("p", p)])
        adam_step([("p", p)], state, lr=0.001)
        assert abs(1.0 - p.data[0]) == pytest.approx(0.001, rel=1e-4)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState.create([("p", p)])
        adam_step([("p", p)], state, lr=0.1)
        npt.assert_array_equal(p.data, [1.0, -2.0])

    def test_missing_gradient_skipped(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState.create([("p", p)])
        adam_step([("p", p)], state, lr=0.1)
        npt.assert_array_equal(p.data, [1.0])

    def test_shape_mismatch(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState.create([("p", p)])
        with pytest.raises(ConfigError):
            adam_step([("p", p)], state, lr=0.1)

    def test_bit_identical_to_plain_expression(self):
        rng = np.random.default_rng(5)
        params = [("a", Tensor(rng.normal(size=(7, 5)), requires_grad=True)),
                  ("b", Tensor(rng.normal(size=3), requires_grad=True)),
                  # several slices, the last one short
                  ("c", Tensor(rng.normal(size=(1, 2 * ADAM_TILE + 37)), requires_grad=True))]
        state = AdamState.create(params)
        ref = {name: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)] for name, p in params}
        b1, b2, eps, lr = state.beta1, state.beta2, state.eps, 0.01
        for step in range(1, 6):
            for name, p in params:
                p.grad = rng.normal(scale=10.0 ** (step - 3), size=p.shape)
                w, m, v = ref[name]
                g = p.grad
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g)
                w -= lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
            adam_step(params, state, lr)
            for name, p in params:
                w, m, v = ref[name]
                assert np.array_equal(p.data, w) and np.array_equal(state.m[name], m)
                assert np.array_equal(state.v[name], v)

    def test_scratch_is_one_slice(self):
        p = Tensor(np.ones((1 << 10, 1 << 10)), requires_grad=True)
        p.grad = np.full(p.shape, 0.5)
        state = AdamState.create([("p", p)])
        tracemalloc.start()
        try:
            adam_step([("p", p)], state, lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * ADAM_TILE * 8


class TestSchedules:
    def test_temperature_endpoints_and_midpoint(self):
        c = cfg(epochs=301)
        assert temperature_at(0, c) == pytest.approx(1.0)
        assert temperature_at(300, c) == pytest.approx(0.01)
        assert temperature_at(150, c) == pytest.approx(0.1)

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


def _records_equal_except_wall(a, b):
    da, db = vars(a).copy(), vars(b).copy()
    da.pop("wall_time")
    db.pop("wall_time")
    return da == db
