import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlp import layers as L
from gmlp import tensor as T
from gmlp.errors import DomainError, GraphError
from gmlp.training import TrainConfig, loss_terms
from gradcheck import check_tape_gradients, projected


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def weights(alpha=0.0):
    """The objective's weights: cross-entropy, plus the L2 term when ``alpha`` > 0."""
    return TrainConfig(lambda_=0.0, alpha=alpha)


class TestForward:
    def test_relu(self):
        npt.assert_array_equal(T.node(None, L.RELU_PAIR, t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(DomainError):
            t([np.nan])
        with pytest.raises(DomainError):
            t([np.inf])


# exp(-715) ~ 1e-311 is subnormal: below float64's smallest normal, about exp(-708.4)
SUBNORMAL_GAP = 715.0


def softmax(a, tau):
    """The row softmax of a at temperature tau, without the flush of subnormal weights."""
    e = np.exp((a - a.max(axis=1, keepdims=True)) / tau)
    return e / e.sum(axis=1, keepdims=True)


class TestRoutingWeights:
    def test_uniform(self):
        out = T.routing_weights(np.zeros((1, 3)), 1.0)
        npt.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_dominant_logit_low_temperature(self):
        out = T.routing_weights(np.array([[0.0, 0.0, 10.0]]), 0.01)
        npt.assert_allclose(out, [[0.0, 0.0, 1.0]], atol=1e-9)

    def test_two_logit_value(self):
        # exp(1)/(exp(1)+exp(2)) and its complement
        out = T.routing_weights(np.array([[1.0, 2.0]]), 1.0)
        npt.assert_allclose(out, [[0.26894, 0.73106]], atol=1e-5)

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            T.routing_weights(np.array([[1.0, 2.0]]), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 9),
        st.floats(0.01, 4.0),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_sum_to_one_and_positive(self, r, c, tau, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=3.0, size=(r, c))
        s = T.routing_weights(a, tau)
        npt.assert_allclose(s.sum(axis=1), np.ones(r), rtol=0, atol=1e-12)
        # exp underflows to 0.0 once the scaled gap to the row max passes
        # about 745, and weights below the smallest normal are set to 0;
        # positivity is owed only where exp(-gap) / c stays a normal float64
        gap = (a.max(axis=1, keepdims=True) - a) / tau
        representable = gap < -np.log(np.finfo(np.float64).tiny) - np.log(c)
        assert np.all(s[representable] > 0.0)
        assert np.all(s >= 0.0)

    def test_flush_only_subnormals(self):
        rng = np.random.default_rng(33)
        psi = rng.normal(size=(5, 6))
        psi[:, 0] = -SUBNORMAL_GAP
        psi[:, 1] = 0.0
        psi[4, 2] = -800.0  # exp underflows to an exact 0
        s = softmax(psi, 1.0)
        flushed = T.routing_weights(psi, 1.0)
        subnormal = (s > 0.0) & (s < np.finfo(np.float64).tiny)
        assert subnormal[:, 0].all()
        npt.assert_array_equal(flushed[subnormal], 0.0)
        npt.assert_array_equal(flushed[~subnormal], s[~subnormal])


# a node that reads its input twice, as its input and as a parameter: value x.x
TWICE_PAIR = (lambda h: (np.asarray(np.dot(h, h)), h), lambda g, h: (g * h, g * h))


class TestBackwardBasics:
    def test_projection_gradient(self):
        w = t([1.0, 5.0, -2.0], rg=True)
        tape = T.Tape()
        tape.backward(projected(tape, w, np.array([1.0, 1.0, 2.5])))
        npt.assert_array_equal(w.grad, [1.0, 1.0, 2.5])

    def test_chain_through_two_nodes(self):
        w = t([1.0, -2.0], rg=True)
        tape = T.Tape()
        loss = projected(tape, T.node(tape, L.RELU_PAIR, w), np.array([3.0, 4.0]))
        tape.backward(loss)
        npt.assert_array_equal(w.grad, [3.0, 0.0])

    def test_each_input_of_a_node_gets_its_gradient(self):
        x, w, b = t([[2.0]], rg=True), t([[3.0]], rg=True), t([0.5], rg=True)
        tape = T.Tape()
        loss = projected(tape, L.dense_forward(tape, x, w, b), np.array([[1.0]]))
        tape.backward(loss)
        npt.assert_array_equal(x.grad, [[3.0]])
        npt.assert_array_equal(w.grad, [[2.0]])
        npt.assert_array_equal(b.grad, [1.0])

    def test_repeated_backward_is_error(self):
        w = t([1.0], rg=True)
        tape = T.Tape()
        loss = projected(tape, w, np.ones(1))
        tape.backward(loss)
        with pytest.raises(GraphError):
            tape.backward(loss)

    def test_non_scalar_loss_is_error(self):
        w = t([1.0, 2.0], rg=True)
        tape = T.Tape()
        out = T.node(tape, L.RELU_PAIR, w)
        with pytest.raises(GraphError):
            tape.backward(out)

    def test_detached_loss_is_error(self):
        w = t([1.0], rg=True)
        tape = T.Tape()
        loss = projected(None, w, np.ones(1))  # computed off-tape
        with pytest.raises(GraphError):
            tape.backward(loss)

    def test_shared_input_accumulates(self):
        # d/dx x.x = 2x, half from each of the node's two reads of x
        x = t([3.0, -1.0], rg=True)
        tape = T.Tape()
        tape.backward(T.node(tape, TWICE_PAIR, x, x))
        npt.assert_array_equal(x.grad, [6.0, -2.0])


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(24))
    def test_kernel_mix(self, seed):
        # >= 20 random instances of a block chain and the objective: a is
        # read by the dense node and by the L2 term
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 5)), rg=True)
        w = t(rng.normal(size=(5, 3)), rg=True)
        r = t(rng.normal(size=(3,)), rg=True)
        y = rng.integers(0, 3, size=4)

        def build(tp):
            h = T.node(tp, L.RELU_PAIR, L.dense_forward(tp, a, w, r))
            return loss_terms(tp, h, y, None, [("a", a), ("w", w)], weights(alpha=0.1))[0]

        check_tape_gradients(build, [a, w, r], tol=1e-5)

    def test_cross_entropy(self):
        rng = np.random.default_rng(17)
        logits = t(rng.normal(size=(5, 3)), rg=True)
        y = np.array([0, 2, 1, 2, 0])
        check_tape_gradients(lambda tp: loss_terms(tp, logits, y, None, [], weights())[0], [logits])

    def test_cross_entropy_under_a_scale(self):
        # an upstream gradient other than 1 reaches the kernel
        rng = np.random.default_rng(18)
        logits = t(rng.normal(size=(4, 3)), rg=True)
        y = np.array([2, 0, 1, 1])

        def build(tp):
            return projected(tp, loss_terms(tp, logits, y, None, [], weights())[0], np.asarray(2.5))

        check_tape_gradients(build, [logits])

    def test_sum_squares(self):
        rng = np.random.default_rng(19)
        a = t(rng.normal(size=(3, 3)), rg=True)
        assert T.squares_sum([a.data.reshape(-1)]) == pytest.approx(np.square(a.data).sum(), rel=1e-14)
        logits = t(np.zeros((1, 2)))
        check_tape_gradients(
            lambda tp: loss_terms(tp, logits, np.array([0]), None, [("a", a)], weights(1.0))[0],
            [a], tol=1e-6,
        )

    def test_sum_squares_over_several_tensors(self):
        rng = np.random.default_rng(23)
        ts = [t(rng.normal(size=shape), rg=True) for shape in [(3, 4), (5,), (2, 3, 2)]]
        expected = 0.0
        for a in ts:
            expected += np.dot(a.data.reshape(-1), a.data.reshape(-1))
        assert T.squares_sum([a.data.reshape(-1) for a in ts]) == expected
        logits = t(np.zeros((1, 2)))
        params = [(str(i), a) for i, a in enumerate(ts)]
        check_tape_gradients(
            lambda tp: loss_terms(tp, logits, np.array([0]), None, params, weights(1.0))[0],
            ts, tol=1e-6,
        )


def masked_neg_entropy(a):
    """The masked p*log(p) formula: value and gradient (for an upstream 1)."""
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    plogp = np.zeros_like(p)
    pos = p > 0.0
    plogp[pos] = p[pos] * np.log(p[pos])
    return plogp.sum(), plogp - p * plogp.sum(axis=1, keepdims=True)


class TestNegEntropyValue:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_masked_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=3.0, size=(6, 7))
        a[0] = [0.0, -1e3, -2e3, 5.0, -1e4, 0.0, 1.0]  # exact zeros after exp
        a[1] = [0.0, -SUBNORMAL_GAP, -740.0, -700.0, -30.0, -1e3, -0.5]  # subnormals
        a[2] = [50.0, -1e3, -1e3, -1e3, -1e3, -1e3, -1e3]  # saturated: value 0
        a[3] = 0.0  # uniform
        value, grad = masked_neg_entropy(a)
        got, saved = T.neg_entropy_value(a)
        got_grad = T.neg_entropy_grad(1.0, saved)
        assert got == pytest.approx(value, rel=1e-12)
        npt.assert_allclose(got_grad, grad, rtol=1e-10, atol=1e-15)
        assert np.all(got_grad[2] == 0.0)


class TestCrossEntropyValues:
    def test_uniform_logits_two_classes(self):
        loss, _ = T.cross_entropy_value(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        npt.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            T.cross_entropy_value(np.zeros((1, 2)), np.array([2]))
