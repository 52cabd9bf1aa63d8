import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlp import tensor as T
from gmlp.errors import DomainError, GraphError, ShapeError
from gradcheck import finite_difference, max_rel_err


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def batch_last(a):
    """A (B, k, m) array of grouped activations as the (k, m, B) array the ops take."""
    return np.asarray(a, dtype=np.float64).transpose(1, 2, 0)


class TestForward:
    def test_matmul_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(T.matmul(None, a, b).data, b.data)

    def test_matmul_hand(self):
        out = T.matmul(None, t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(None, t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_relu(self):
        npt.assert_array_equal(T.relu(None, t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("op", [T.add, T.mul])
    def test_broadcasts_only_a_bias_row(self, op):
        a = t(np.zeros((2, 3)))
        assert op(None, a, t(np.ones(3))).shape == (2, 3)
        for shape in [(1,), (1, 3), (2, 1)]:
            with pytest.raises(ShapeError):
                op(None, a, t(np.ones(shape)))

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(DomainError):
            t([np.nan])
        with pytest.raises(DomainError):
            t([np.inf])

    def test_forward_deterministic(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
        r1 = T.matmul(None, t(a), t(b)).data
        r2 = T.matmul(None, t(a), t(b)).data
        assert np.array_equal(r1, r2)


class TestSoftmaxRows:
    def test_uniform(self):
        out = T.softmax_rows(None, t([[0.0, 0.0, 0.0]]), 1.0)
        npt.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_dominant_logit_low_temperature(self):
        out = T.softmax_rows(None, t([[0.0, 0.0, 10.0]]), 0.01)
        npt.assert_allclose(out.data, [[0.0, 0.0, 1.0]], atol=1e-9)

    def test_two_logit_value(self):
        # exp(1)/(exp(1)+exp(2)) and its complement
        out = T.softmax_rows(None, t([[1.0, 2.0]]), 1.0)
        npt.assert_allclose(out.data, [[0.26894, 0.73106]], atol=1e-5)

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            T.softmax_rows(None, t([[1.0, 2.0]]), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 9),
        st.floats(0.01, 4.0),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_sum_to_one_and_positive(self, r, c, tau, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(scale=3.0, size=(r, c)))
        s = T.softmax_rows(None, a, tau).data
        npt.assert_allclose(s.sum(axis=1), np.ones(r), rtol=0, atol=1e-12)
        # exp underflows to 0.0 once the scaled gap to the row max passes
        # about 745; positivity is owed only where exp(-gap) / c stays a
        # normal float64
        gap = (a.data.max(axis=1, keepdims=True) - a.data) / tau
        representable = gap < -np.log(np.finfo(np.float64).tiny) - np.log(c)
        assert np.all(s[representable] > 0.0)
        assert np.all(s >= 0.0)


class TestBackwardBasics:
    def test_sum_gradient(self):
        w = t([1.0, 5.0, -2.0], rg=True)
        tape = T.Tape()
        tape.backward(T.tsum(tape, w))
        npt.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_sum_of_squares_gradient(self):
        w = t([1.0, 2.0], rg=True)
        tape = T.Tape()
        loss = T.tsum(tape, T.mul(tape, w, w))
        tape.backward(loss)
        npt.assert_allclose(w.grad, [2.0, 4.0])

    def test_product_rule(self):
        x, y = t([2.0], rg=True), t([3.0], rg=True)
        tape = T.Tape()
        loss = T.tsum(tape, T.mul(tape, x, y))
        tape.backward(loss)
        npt.assert_array_equal(x.grad, [3.0])
        npt.assert_array_equal(y.grad, [2.0])

    def test_repeated_backward_is_error(self):
        w = t([1.0], rg=True)
        tape = T.Tape()
        loss = T.tsum(tape, w)
        tape.backward(loss)
        with pytest.raises(GraphError):
            tape.backward(loss)

    def test_non_scalar_loss_is_error(self):
        w = t([1.0, 2.0], rg=True)
        tape = T.Tape()
        out = T.mul(tape, w, w)
        with pytest.raises(GraphError):
            tape.backward(out)

    def test_detached_loss_is_error(self):
        w = t([1.0], rg=True)
        tape = T.Tape()
        loss = T.tsum(None, w)  # computed off-tape
        with pytest.raises(GraphError):
            tape.backward(loss)

    def test_shared_input_accumulates(self):
        # d/dx sum(x*x + x) = 2x + 1
        x = t([3.0, -1.0], rg=True)
        tape = T.Tape()
        loss = T.tsum(tape, T.add(tape, T.mul(tape, x, x), x))
        tape.backward(loss)
        npt.assert_allclose(x.grad, [7.0, -1.0])


def _fd_check(build, arrays, tol=1e-5, eps=1e-5):
    """build(tape) -> scalar Tensor; arrays are the raw leaves to perturb."""
    tape = T.Tape()
    loss = build(tape)
    tape.backward(loss)
    analytic = [a.grad for a in arrays]
    numeric = finite_difference(lambda: build(None).item(), [a.data for a in arrays], eps=eps)
    for a, n in zip(analytic, numeric):
        assert a is not None
        assert max_rel_err(a, n) < tol


class TestGradientsAgainstFiniteDifferences:
    def test_matmul_sum_projection(self):
        rng = np.random.default_rng(7)
        a = t(rng.normal(size=(3, 4)), rg=True)
        b = t(rng.normal(size=(4, 2)), rg=True)
        _fd_check(lambda tp: T.tsum(tp, T.matmul(tp, a, b)), [a, b], tol=1e-6)

    @pytest.mark.parametrize("seed", range(24))
    def test_primitive_mix(self, seed):
        # >= 20 random instances across the primitive vocabulary
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 5)), rg=True)
        b = t(rng.normal(size=(4, 5)), rg=True)
        w = t(rng.normal(size=(5, 3)), rg=True)
        r = t(rng.normal(size=(3,)), rg=True)

        def build(tp):
            h = T.add(tp, T.mul(tp, a, a), T.mul(tp, a, b))
            h = T.relu(tp, T.matmul(tp, h, w))
            h = T.add(tp, h, r)
            mean = T.scale(tp, T.tsum(tp, h), 1.0 / h.size)
            return T.add(tp, mean, T.scale(tp, T.sum_squares(tp, T.transpose(tp, h)), 0.1))

        _fd_check(build, [a, b, w, r], tol=1e-5)

    @pytest.mark.parametrize("seed", range(6))
    def test_softmax_rows_projection(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 6)), rg=True)
        proj = np.asarray(rng.normal(size=(4, 6)))
        tau = float(rng.uniform(0.2, 2.0))
        _fd_check(
            lambda tp: T.tsum(tp, T.mul(tp, T.softmax_rows(tp, a, tau), t(proj))),
            [a],
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_group_linear(self, seed):
        rng = np.random.default_rng(seed)
        z = t(batch_last(rng.normal(size=(3, 4, 2))), rg=True)
        w = t(rng.normal(size=(4, 2, 2)), rg=True)
        b = t(rng.normal(size=(4, 2)), rg=True)
        proj = t(batch_last(rng.normal(size=(3, 4, 2))))
        _fd_check(
            lambda tp: T.tsum(tp, T.mul(tp, T.group_linear(tp, z, w, b), proj)),
            [z, w, b],
        )

    def test_gather_rows_accumulates_duplicates(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(4, 5)).T, rg=True)
        idx = np.array([2, 0, 2, 4])
        proj = t(rng.normal(size=(4, 4)).T)
        _fd_check(
            lambda tp: T.tsum(tp, T.mul(tp, T.gather_rows(tp, x, idx), proj)),
            [x],
        )

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, training):
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(6, 3)), rg=True)
        gamma = t(rng.uniform(0.5, 1.5, size=3), rg=True)
        beta = t(rng.normal(size=3), rg=True)
        proj = t(rng.normal(size=(6, 3)))

        def build(tp):
            rm, rv = np.zeros(3), np.ones(3)  # fresh stats so eval path is fixed
            y = T.batchnorm(tp, x, gamma, beta, rm, rv, 0.1, 1e-5, training)
            return T.tsum(tp, T.mul(tp, y, proj))

        _fd_check(build, [x, gamma, beta], tol=2e-5)

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_grouped(self, training):
        # a (k, m, B) input normalizes each slot as a (B, k*m) input does each column
        rng = np.random.default_rng(12)
        xb = rng.normal(size=(6, 2, 2))
        x = t(batch_last(xb), rg=True)
        gamma = t(rng.uniform(0.5, 1.5, size=4), rg=True)
        beta = t(rng.normal(size=4), rg=True)
        proj = t(batch_last(rng.normal(size=(6, 2, 2))))
        mean, var = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)

        def bn(tp, inp):
            return T.batchnorm(tp, inp, gamma, beta, mean.copy(), var.copy(), 0.1, 1e-5, training)

        _fd_check(lambda tp: T.tsum(tp, T.mul(tp, bn(tp, x), proj)), [x, gamma, beta], tol=2e-5)
        flat = bn(None, t(xb.reshape(6, 4))).data
        npt.assert_allclose(
            bn(None, x).data, batch_last(flat.reshape(6, 2, 2)), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("kind", ["max", "mean", "concat"])
    @pytest.mark.parametrize("branching", [2, 4])
    def test_pools(self, kind, branching):
        rng = np.random.default_rng(13)
        z = t(batch_last(rng.normal(size=(3, 8, 2))), rg=True)
        op = {"max": T.pool_max, "mean": T.pool_mean, "concat": T.pool_concat}[kind]
        k, m, n = op(None, z, branching).shape
        proj = t(batch_last(rng.normal(size=(n, k, m))))
        _fd_check(lambda tp: T.tsum(tp, T.mul(tp, op(tp, z, branching), proj)), [z])

    def test_cross_entropy(self):
        rng = np.random.default_rng(17)
        logits = t(rng.normal(size=(5, 3)), rg=True)
        y = np.array([0, 2, 1, 2, 0])
        _fd_check(lambda tp: T.cross_entropy_logits(tp, logits, y), [logits])

    def test_sum_squares(self):
        rng = np.random.default_rng(19)
        a = t(rng.normal(size=(3, 3)), rg=True)
        assert T.sum_squares(None, a).item() == pytest.approx(np.square(a.data).sum(), rel=1e-14)
        _fd_check(lambda tp: T.sum_squares(tp, a), [a], tol=1e-6)

    def test_sum_squares_over_several_tensors(self):
        rng = np.random.default_rng(23)
        ts = [t(rng.normal(size=shape), rg=True) for shape in [(3, 4), (5,), (2, 3, 2)]]
        expected = 0.0
        for a in ts:
            expected += np.dot(a.data.reshape(-1), a.data.reshape(-1))
        assert T.sum_squares(None, *ts).item() == expected
        _fd_check(lambda tp: T.sum_squares(tp, *ts), ts, tol=1e-6)


# exp(-715) ~ 1e-311 is subnormal: below float64's smallest normal, about exp(-708.4)
SUBNORMAL_GAP = 715.0


class TestRelaxedSelect:
    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_matches_softmax_then_product(self, tau):
        rng = np.random.default_rng(31)
        psi = t(rng.normal(size=(6, 5)))
        x = t(rng.normal(size=(4, 5)))
        s = T.softmax_rows(None, psi, tau).data
        npt.assert_allclose(T.relaxed_select(None, psi, x, tau).data, s @ x.data.T, rtol=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_gradient_against_finite_differences(self, tau):
        rng = np.random.default_rng(32)
        psi = rng.normal(size=(4, 5))
        # row 0 holds a weight that exp leaves subnormal, which the op sets to 0
        psi[0] = [0.0, -SUBNORMAL_GAP * tau, 0.5, 0.2, -1.0]
        psi, x = t(psi, rg=True), t(rng.normal(size=(3, 5)), rg=True)
        assert T.routing_weights(psi.data, tau)[0, 1] == 0.0
        proj = t(rng.normal(size=(4, 3)))
        _fd_check(lambda tp: T.tsum(tp, T.mul(tp, T.relaxed_select(tp, psi, x, tau), proj)), [psi, x])

    def test_routing_weights_flush_only_subnormals(self):
        rng = np.random.default_rng(33)
        psi = rng.normal(size=(5, 6))
        psi[:, 0] = -SUBNORMAL_GAP
        psi[:, 1] = 0.0
        psi[4, 2] = -800.0  # exp underflows to an exact 0
        s = T.softmax_rows(None, t(psi), 1.0).data
        flushed = T.routing_weights(psi, 1.0)
        subnormal = (s > 0.0) & (s < np.finfo(np.float64).tiny)
        assert subnormal[:, 0].all()
        npt.assert_array_equal(flushed[subnormal], 0.0)
        npt.assert_array_equal(flushed[~subnormal], s[~subnormal])

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            T.relaxed_select(None, t(np.zeros((2, 3))), t(np.zeros((1, 3))), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.relaxed_select(None, t(np.zeros((2, 3))), t(np.zeros((1, 4))), 1.0)


class TestDataOperands:
    """A node computes no gradient for an operand that does not require one."""

    def _node_grads(self, build):
        tape = T.Tape()
        out = build(tape)
        assert len(tape) == 1
        return tape.nodes[0].backward(np.ones(out.shape))

    def test_matmul(self):
        rng = np.random.default_rng(41)
        x, w = t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 2)), rg=True)
        dx, dw = self._node_grads(lambda tp: T.matmul(tp, x, w))
        assert dx is None
        npt.assert_allclose(dw, x.data.T @ np.ones((4, 2)), rtol=1e-14)
        v = t(rng.normal(size=(2, 4)), rg=True)
        dv, dx = self._node_grads(lambda tp: T.matmul(tp, v, x))
        assert dx is None
        npt.assert_allclose(dv, np.ones((2, 3)) @ x.data.T, rtol=1e-14)

    def test_relaxed_select(self):
        rng = np.random.default_rng(42)
        psi, x = t(rng.normal(size=(4, 3)), rg=True), t(rng.normal(size=(5, 3)))
        dpsi, dx = self._node_grads(lambda tp: T.relaxed_select(tp, psi, x, 0.5))
        assert dpsi.shape == psi.shape and dx is None

    def test_transpose_and_gather_record_nothing(self):
        x = t(np.arange(6.0).reshape(2, 3))
        tape = T.Tape()
        T.gather_rows(tape, T.transpose(tape, x), [2, 0])
        assert len(tape) == 0

    def test_model_input_gets_no_gradient(self):
        rng = np.random.default_rng(43)
        x = t(rng.normal(size=(3, 4)))
        w = t(rng.normal(size=(4, 2)), rg=True)
        tape = T.Tape()
        tape.backward(T.tsum(tape, T.matmul(tape, x, w)))
        assert x.grad is None and w.grad is not None


def masked_neg_entropy(a):
    """The masked p*log(p) formula: value and gradient (for an upstream 1)."""
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    plogp = np.zeros_like(p)
    pos = p > 0.0
    plogp[pos] = p[pos] * np.log(p[pos])
    return plogp.sum(), plogp - p * plogp.sum(axis=1, keepdims=True)


class TestNegEntropyRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_masked_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=3.0, size=(6, 7))
        a[0] = [0.0, -1e3, -2e3, 5.0, -1e4, 0.0, 1.0]  # exact zeros after exp
        a[1] = [0.0, -SUBNORMAL_GAP, -740.0, -700.0, -30.0, -1e3, -0.5]  # subnormals
        a[2] = [50.0, -1e3, -1e3, -1e3, -1e3, -1e3, -1e3]  # saturated: value 0
        a[3] = 0.0  # uniform
        value, grad = masked_neg_entropy(a)
        at = t(a, rg=True)
        tape = T.Tape()
        out = T.neg_entropy_rows(tape, at)
        tape.backward(out)
        assert out.item() == pytest.approx(value, rel=1e-12)
        npt.assert_allclose(at.grad, grad, rtol=1e-10, atol=1e-15)
        assert np.all(at.grad[2] == 0.0)


class TestPoolSemantics:
    def test_max_pool_halves_pairing(self):
        # groups 0..3; branching 2 pairs group i with i + k/2
        z = t(batch_last([[[1.0, 4.0], [9.0, 9.0], [3.0, 2.0], [-1.0, 0.0]]]))
        out = T.pool_max(None, z, 2)
        npt.assert_array_equal(out.data, batch_last([[[3.0, 4.0], [9.0, 9.0]]]))

    def test_mean_pool(self):
        z = t(batch_last([[[1.0, 4.0], [3.0, 2.0]]]))
        npt.assert_array_equal(T.pool_mean(None, z, 2).data, batch_last([[[2.0, 3.0]]]))

    def test_concat_orders_strata(self):
        z = t(batch_last([[[1.0, 2.0], [3.0, 4.0]]]))
        npt.assert_array_equal(
            T.pool_concat(None, z, 2).data, batch_last([[[1.0, 2.0, 3.0, 4.0]]])
        )

    def test_indivisible_group_count(self):
        with pytest.raises(ShapeError):
            T.pool_max(None, t(batch_last(np.zeros((1, 3, 2)))), 2)

    def test_max_pool_tie_sends_gradient_to_lowest_stratum(self):
        # groups 0 and 2 tie in every slot; group 1 beats group 3 in slot 0 only
        z = t(batch_last([[[1.0, 2.0], [5.0, 0.0], [1.0, 2.0], [4.0, 0.0]]]), rg=True)
        tape = T.Tape()
        tape.backward(T.tsum(tape, T.pool_max(tape, z, 2)))
        npt.assert_array_equal(z.grad, batch_last([[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]]))

    def test_max_pool_dominates_inputs(self):
        rng = np.random.default_rng(5)
        z = batch_last(rng.normal(size=(2, 6, 3)))
        out = T.pool_max(None, t(z), 2).data
        zr = z.reshape(2, 3, 3, 2)
        assert np.all(out >= zr[0]) and np.all(out >= zr[1])


class TestCrossEntropyValues:
    def test_uniform_logits_two_classes(self):
        logits = t(np.zeros((4, 2)))
        loss = T.cross_entropy_logits(None, logits, np.array([0, 1, 0, 1]))
        npt.assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            T.cross_entropy_logits(None, t(np.zeros((1, 2))), np.array([2]))


class TestReshapeTranspose:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_transpose_round_trip(self, r, c, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(r, c)))
        npt.assert_array_equal(T.transpose(None, T.transpose(None, a)).data, a.data)

    def test_transpose_large_array(self):
        # big enough on both axes to be copied block by block, with a ragged last block
        a = t(np.arange(130.0 * 70).reshape(130, 70))
        npt.assert_array_equal(T.transpose(None, a).data, a.data.T)

    def test_reshape_backward(self):
        a = t(np.arange(6.0).reshape(2, 3), rg=True)
        proj = t(np.arange(6.0).reshape(3, 2))
        _fd_check(
            lambda tp: T.tsum(tp, T.mul(tp, T.reshape(tp, a, (3, 2)), proj)),
            [a],
            tol=1e-6,
        )
