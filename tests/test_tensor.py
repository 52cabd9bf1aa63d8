import numpy as np
import numpy.testing as npt
import pytest

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
