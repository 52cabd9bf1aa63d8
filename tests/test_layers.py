import numpy as np
import numpy.testing as npt
import pytest

from gmlp import layers as L
from gmlp import tensor as T
from gmlp.errors import ConfigError, DomainError, ShapeError
from gmlp.layers import BatchNormState, RoutingParams
from gmlp.tensor import Tensor
from gradcheck import check_tape_gradients, projected


def batch_last(a):
    """A (B, k, m) array of grouped activations as the (k, m, B) array the layers take."""
    return np.asarray(a, dtype=np.float64).transpose(1, 2, 0)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def node_grads(build):
    """The gradients that the one node build(tape) records returns for an upstream of ones."""
    tape = T.Tape()
    out = build(tape)
    assert len(tape) == 1
    return tape.nodes[0].backward(np.ones(out.shape))


# exp(-715) ~ 1e-311 is subnormal: below float64's smallest normal, about exp(-708.4)
SUBNORMAL_GAP = 715.0


def routing_from_assignment(assignment, d, scale=1e6, temperature=1.0, k=None, m=None):
    """RoutingParams whose rows are saturated one-hots at the given feature indices."""
    assignment = np.asarray(assignment)
    km = assignment.size
    if k is None:
        k, m = 1, km
    psi = np.zeros((km, d))
    psi[np.arange(km), assignment] = scale
    return RoutingParams(Tensor(psi, requires_grad=True), temperature, k, m, d)


class TestGroupSelect:
    def test_relaxed_saturated_reads_the_argmax_feature(self):
        rng = np.random.default_rng(0)
        r = routing_from_assignment([2, 0, 1, 1], d=3, k=2, m=2)
        x = Tensor(rng.normal(size=(5, 3)))
        relaxed = L.group_select_forward(None, x, r)
        hard = batch_last(x.data[:, [2, 0, 1, 1]].reshape(5, 2, 2))
        npt.assert_allclose(relaxed.data, hard, atol=1e-9)

    def test_relaxed_uniform_mixes_to_mean(self):
        r = RoutingParams(Tensor(np.zeros((2, 3))), 1.0, 1, 2, 3)
        out = L.group_select_forward(None, Tensor([[3.0, 6.0, 9.0]]), r)
        npt.assert_allclose(out.data, batch_last([[[6.0, 6.0]]]))

    def test_dimension_mismatch(self):
        r = RoutingParams(Tensor(np.zeros((2, 3))), 1.0, 1, 2, 3)
        with pytest.raises(ShapeError):
            L.group_select_forward(None, Tensor([[1.0, 2.0]]), r)

    def test_temperature_annealing_converges_to_hard(self):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=(6, 5))
        # enforce unique row maxima with a clear margin
        psi[np.arange(6), psi.argmax(axis=1)] += 3.0
        x = Tensor(rng.normal(size=(4, 5)))
        r = RoutingParams(Tensor(psi), 1.0, 3, 2, 5)
        hard = batch_last(x.data[:, psi.argmax(axis=1)].reshape(4, 3, 2))
        gaps = []
        for tau in (1.0, 0.1, 0.01, 0.001):
            r.temperature = tau
            relaxed = L.group_select_forward(None, x, r).data
            gaps.append(np.abs(relaxed - hard).max())
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_feature_reuse_across_groups(self):
        # one feature may appear in multiple groups
        r = routing_from_assignment([1, 1, 1, 0], d=4, k=2, m=2)
        assert list(L.hard_assignment(r)) == [1, 1, 1, 0]

    def test_tie_breaks_to_lowest_index(self):
        r = RoutingParams(Tensor(np.array([[3.0, 3.0]])), 1.0, 1, 1, 2)
        assert L.hard_assignment(r)[0] == 0

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_relaxed_matches_softmax_then_product(self, tau):
        rng = np.random.default_rng(31)
        psi = rng.normal(size=(6, 5))
        x = t(rng.normal(size=(4, 5)))
        e = np.exp((psi - psi.max(axis=1, keepdims=True)) / tau)
        s = e / e.sum(axis=1, keepdims=True)
        out = L.group_select_forward(None, x, RoutingParams(t(psi), tau, 3, 2, 5))
        npt.assert_allclose(out.data, (s @ x.data.T).reshape(3, 2, 4), rtol=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_relaxed_gradient_against_finite_differences(self, tau):
        rng = np.random.default_rng(32)
        psi = rng.normal(size=(4, 5))
        # row 0 holds a weight that exp leaves subnormal, which is set to 0
        psi[0] = [0.0, -SUBNORMAL_GAP * tau, 0.5, 0.2, -1.0]
        r = RoutingParams(t(psi, rg=True), tau, 2, 2, 5)
        x = t(rng.normal(size=(3, 5)), rg=True)
        assert T.routing_weights(psi, tau)[0, 1] == 0.0
        proj = rng.normal(size=(2, 2, 3))
        check_tape_gradients(
            lambda tp: projected(tp, L.group_select_forward(tp, x, r), proj), [r.psi, x]
        )

    def test_nonpositive_temperature(self):
        r = RoutingParams(t(np.zeros((2, 3))), 1.0, 1, 2, 3)
        r.temperature = 0.0
        with pytest.raises(DomainError):
            L.group_select_forward(None, t(np.zeros((1, 3))), r)

    def test_batch_input_gets_no_gradient(self):
        rng = np.random.default_rng(42)
        r = RoutingParams(t(rng.normal(size=(4, 3)), rg=True), 0.5, 2, 2, 3)
        x = t(rng.normal(size=(5, 3)))
        dx, dpsi = node_grads(lambda tp: L.group_select_forward(tp, x, r))
        assert dpsi.shape == r.psi.shape and dx is None


class TestGroupFc:
    def _params(self, k, m, rng=None):
        if rng is None:
            w = np.tile(np.eye(m), (k, 1, 1))
            b = np.zeros((k, m))
        else:
            w = rng.normal(size=(k, m, m))
            b = rng.normal(size=(k, m))
        return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)

    def test_identity_weights(self):
        rng = np.random.default_rng(2)
        z = Tensor(batch_last(rng.normal(size=(3, 4, 2))))
        out = L.group_fc_forward(None, z, *self._params(4, 2))
        npt.assert_allclose(out.data, z.data)

    def test_zeroed_group_is_local(self):
        rng = np.random.default_rng(3)
        w, b = self._params(2, 2, rng)
        w.data[0] = 0.0
        b.data[0] = 0.0
        z = Tensor(batch_last(rng.normal(size=(3, 2, 2))))
        out = L.group_fc_forward(None, z, w, b)
        npt.assert_array_equal(out.data[0], np.zeros((2, 3)))
        assert np.abs(out.data[1]).min() > 0

    def test_group_count_mismatch(self):
        with pytest.raises(ShapeError):
            L.group_fc_forward(None, Tensor(batch_last(np.zeros((1, 3, 2)))), *self._params(4, 2))

    def test_gradient_locality(self):
        # loss reading only group 1 gets zero gradient blocks for group 0
        rng = np.random.default_rng(4)
        w, b = self._params(2, 3, rng)
        z = Tensor(batch_last(rng.normal(size=(5, 2, 3))), requires_grad=True)
        tape = T.Tape()
        out = L.group_fc_forward(tape, z, w, b)
        mask = np.zeros((5, 2, 3))
        mask[:, 1, :] = rng.normal(size=(5, 3))
        tape.backward(projected(tape, out, batch_last(mask)))
        npt.assert_array_equal(w.grad[0], np.zeros((3, 3)))
        npt.assert_array_equal(b.grad[0], np.zeros(3))
        npt.assert_array_equal(z.grad[0], np.zeros((3, 5)))
        assert np.abs(w.grad[1]).max() > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_against_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        z = t(batch_last(rng.normal(size=(3, 4, 2))), rg=True)
        w = t(rng.normal(size=(4, 2, 2)), rg=True)
        b = t(rng.normal(size=(4, 2)), rg=True)
        proj = batch_last(rng.normal(size=(3, 4, 2)))
        check_tape_gradients(
            lambda tp: projected(tp, L.group_fc_forward(tp, z, w, b), proj), [z, w, b]
        )

    def test_parameter_count(self):
        w, b = self._params(7, 3)
        assert w.size + b.size == 7 * (3 * 3 + 3)


class TestGroupPool:
    def test_max_example(self):
        z = Tensor(batch_last([[[1.0, 4.0], [3.0, 2.0]]]))
        npt.assert_array_equal(
            L.group_pool_forward(None, z, "max").data, batch_last([[[3.0, 4.0]]])
        )

    def test_mean_example(self):
        z = Tensor(batch_last([[[1.0, 4.0], [3.0, 2.0]]]))
        npt.assert_array_equal(
            L.group_pool_forward(None, z, "mean").data, batch_last([[[2.0, 3.0]]])
        )

    def test_linear_selection_matrix(self):
        # weight [I | 0] returns the first group untouched
        m = 2
        w = np.zeros((1, m, 2 * m))
        w[0, :, :m] = np.eye(m)
        z = Tensor(batch_last([[[1.0, 4.0], [3.0, 2.0]]]))
        out = L.group_pool_forward(None, z, "linear", params=Tensor(w))
        npt.assert_array_equal(out.data, batch_last([[[1.0, 4.0]]]))

    def test_linear_requires_params(self):
        with pytest.raises(ConfigError):
            L.group_pool_forward(None, Tensor(batch_last(np.zeros((1, 2, 2)))), "linear")

    def test_indivisible_group_count(self):
        with pytest.raises(ShapeError):
            L.group_pool_forward(
                None, Tensor(batch_last(np.zeros((1, 3, 2)))), "max", branching=2
            )

    def test_branching_four_strata(self):
        # output group i merges input groups {i, i+2, i+4, i+6} for k'=8, b=4
        z = np.zeros((1, 8, 1))
        z[0, :, 0] = np.arange(8.0)
        out = L.group_pool_forward(None, Tensor(batch_last(z)), "max", branching=4)
        npt.assert_array_equal(out.data[:, 0, 0], [6.0, 7.0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            L.group_pool_forward(None, Tensor(batch_last(np.zeros((1, 2, 2)))), "median")

    @pytest.mark.parametrize("kind", ["max", "mean", "linear"])
    @pytest.mark.parametrize("branching", [2, 4])
    def test_gradient_against_finite_differences(self, kind, branching):
        rng = np.random.default_rng(13)
        z = t(batch_last(rng.normal(size=(3, 8, 2))), rg=True)
        w = t(rng.normal(size=(8 // branching, 2, branching * 2)), rg=True)
        params = w if kind == "linear" else None
        proj = rng.normal(size=(8 // branching, 2, 3))

        def build(tp):
            return projected(tp, L.group_pool_forward(tp, z, kind, branching, params), proj)

        check_tape_gradients(build, [z] + ([w] if kind == "linear" else []))

    def test_max_pool_halves_pairing(self):
        # groups 0..3; branching 2 pairs group i with i + k/2
        z = t(batch_last([[[1.0, 4.0], [9.0, 9.0], [3.0, 2.0], [-1.0, 0.0]]]))
        out = L.group_pool_forward(None, z, "max")
        npt.assert_array_equal(out.data, batch_last([[[3.0, 4.0], [9.0, 9.0]]]))

    def test_linear_pool_stacks_strata_in_order(self):
        # identity weights return the b*m stacked slots themselves
        z = t(batch_last([[[1.0, 2.0], [3.0, 4.0]]]))
        out = L.group_pool_forward(None, z, "linear", params=t(np.eye(4)[None]))
        npt.assert_array_equal(out.data, batch_last([[[1.0, 2.0, 3.0, 4.0]]]))

    def test_max_pool_tie_sends_gradient_to_lowest_stratum(self):
        # groups 0 and 2 tie in every slot; group 1 beats group 3 in slot 0 only
        z = t(batch_last([[[1.0, 2.0], [5.0, 0.0], [1.0, 2.0], [4.0, 0.0]]]), rg=True)
        tape = T.Tape()
        tape.backward(projected(tape, L.group_pool_forward(tape, z, "max"), np.ones((2, 2, 1))))
        npt.assert_array_equal(
            z.grad, batch_last([[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
        )

    def test_max_pool_dominates_inputs(self):
        rng = np.random.default_rng(5)
        z = batch_last(rng.normal(size=(2, 6, 3)))
        out = L.group_pool_forward(None, t(z), "max").data
        zr = z.reshape(2, 3, 3, 2)
        assert np.all(out >= zr[0]) and np.all(out >= zr[1])


class TestBatchNorm:
    def test_two_point_standardization(self):
        st = BatchNormState.create(1)
        out = L.batchnorm_forward(None, Tensor([[1.0], [3.0]]), st)
        npt.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-3)

    def test_zero_gamma_gives_beta(self):
        st = BatchNormState.create(3)
        st.gamma.data[:] = 0.0
        st.beta.data[:] = 2.5
        rng = np.random.default_rng(5)
        out = L.batchnorm_forward(None, Tensor(rng.normal(size=(4, 3))), st)
        npt.assert_allclose(out.data, np.full((4, 3), 2.5))

    def test_training_needs_two_rows(self):
        st = BatchNormState.create(2)
        with pytest.raises(DomainError):
            L.batchnorm_forward(None, Tensor(np.zeros((1, 2))), st)

    def test_running_moments_update(self):
        st = BatchNormState.create(1)
        x = Tensor(np.array([[0.0], [4.0]]))
        L.batchnorm_forward(None, x, st)
        npt.assert_allclose(st.running_mean, [0.2])  # 0.9*0 + 0.1*2
        npt.assert_allclose(st.running_var, [1.3])  # 0.9*1 + 0.1*4

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(6, 3)), rg=True)
        gamma = t(rng.uniform(0.5, 1.5, size=3), rg=True)
        beta = t(rng.normal(size=3), rg=True)
        proj = rng.normal(size=(6, 3))

        def build(tp):
            st = BatchNormState(gamma, beta, np.zeros(3), np.ones(3))  # fresh moments at each call
            return projected(tp, L.batchnorm_forward(tp, x, st), proj)

        check_tape_gradients(build, [x, gamma, beta], tol=2e-5)

    def test_grouped_gradient_and_values(self):
        # a (k, m, B) input normalizes each slot as a (B, k*m) input does each column
        rng = np.random.default_rng(12)
        xb = rng.normal(size=(6, 2, 2))
        x = t(batch_last(xb), rg=True)
        gamma = t(rng.uniform(0.5, 1.5, size=4), rg=True)
        beta = t(rng.normal(size=4), rg=True)
        proj = batch_last(rng.normal(size=(6, 2, 2)))
        mean, var = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)

        def bn(tp, inp):
            st = BatchNormState(gamma, beta, mean.copy(), var.copy())
            return L.batchnorm_forward(tp, inp, st)

        check_tape_gradients(lambda tp: projected(tp, bn(tp, x), proj), [x, gamma, beta], tol=2e-5)
        flat = bn(None, t(xb.reshape(6, 4))).data
        npt.assert_allclose(
            bn(None, x).data, batch_last(flat.reshape(6, 2, 2)), rtol=1e-12, atol=1e-12
        )


def dropout(tape, x, rate, rng):
    """The dropout kernel recorded as one node, as ``Model.forward`` records it in training mode."""
    return T.node(tape, L.dropout_pair(rate, rng), x)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(None, x, 0.0, np.random.default_rng(0))
        npt.assert_array_equal(out.data, x.data)

    def test_kept_fraction_monte_carlo(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(100_000))
        out = dropout(None, x, 0.3, rng)
        kept = np.count_nonzero(out.data) / x.size
        assert abs(kept - 0.700) < 0.01
        # survivors carry the inverse scale
        npt.assert_allclose(out.data[out.data != 0], 1.0 / 0.7)

    def test_gradient_with_a_fixed_rng(self):
        rng = np.random.default_rng(14)
        x = t(rng.normal(size=(5, 4)), rg=True)
        proj = rng.normal(size=(5, 4))

        def build(tp):
            # the same mask at every evaluation
            out = dropout(tp, x, 0.4, np.random.default_rng(3))
            return projected(tp, out, proj)

        check_tape_gradients(build, [x])
        assert (x.grad == 0.0).any() and (x.grad != 0.0).any()


class TestConcat:
    def test_flatten_order(self):
        z = Tensor(batch_last([[[1.0, 2.0], [3.0, 4.0]]]))
        npt.assert_array_equal(L.concat_groups(None, z).data, [[1.0, 2.0, 3.0, 4.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        z = Tensor(batch_last(rng.normal(size=(3, 4, 2))))
        flat = L.concat_groups(None, z)
        npt.assert_array_equal(batch_last(flat.data.reshape(3, 4, 2)), z.data)

    def test_batch_rows_preserved(self):
        zb = np.arange(12.0).reshape(3, 2, 2)
        out = L.concat_groups(None, Tensor(batch_last(zb)))
        assert out.shape == (3, 4)
        npt.assert_array_equal(out.data[1], zb[1].reshape(-1))

    def test_large_array(self):
        # big enough on both axes to be transposed block by block, with a ragged last block
        z = np.arange(130.0 * 70).reshape(13, 10, 70)
        npt.assert_array_equal(L.concat_groups(None, t(z)).data, z.reshape(130, 70).T)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(9)
        z = t(batch_last(rng.normal(size=(3, 2, 2))), rg=True)
        proj = rng.normal(size=(3, 4))
        check_tape_gradients(lambda tp: projected(tp, L.concat_groups(tp, z), proj), [z], tol=1e-6)


class TestDense:
    def test_hand_value(self):
        out = L.dense_forward(None, t([[1.0, 2.0]]), t([[3.0], [4.0]]), t([0.5]))
        npt.assert_array_equal(out.data, [[11.5]])

    def test_identity_weights(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(L.dense_forward(None, x, t(np.eye(2)), t(np.zeros(2))).data, x.data)

    @pytest.mark.parametrize("w_shape, b_shape", [((2, 3), (3,)), ((3, 2), (3,))])
    def test_shape_mismatch(self, w_shape, b_shape):
        with pytest.raises(ShapeError):
            L.dense_forward(None, t(np.zeros((2, 3))), t(np.zeros(w_shape)), t(np.zeros(b_shape)))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(0)
        x, w, b = t(rng.normal(size=(5, 7))), t(rng.normal(size=(7, 3))), t(rng.normal(size=3))
        first, second = (L.dense_forward(None, x, w, b).data for _ in range(2))
        assert np.array_equal(first, second)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(7)
        x = t(rng.normal(size=(3, 4)), rg=True)
        w = t(rng.normal(size=(4, 2)), rg=True)
        b = t(rng.normal(size=2), rg=True)
        check_tape_gradients(
            lambda tp: projected(tp, L.dense_forward(tp, x, w, b), np.ones((3, 2))), [x, w, b], tol=1e-6
        )

    def test_batch_input_gets_no_gradient(self):
        rng = np.random.default_rng(41)
        x = t(rng.normal(size=(4, 3)))
        w, b = t(rng.normal(size=(3, 2)), rg=True), t(rng.normal(size=2), rg=True)
        dx, dw, db = node_grads(lambda tp: L.dense_forward(tp, x, w, b))
        assert dx is None
        npt.assert_allclose(dw, x.data.T @ np.ones((4, 2)), rtol=1e-14)
        tape = T.Tape()
        tape.backward(projected(tape, L.dense_forward(tape, x, w, b), np.ones((4, 2))))
        assert x.grad is None and w.grad is not None
