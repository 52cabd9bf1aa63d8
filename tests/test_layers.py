import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def softmax(a, tau):
    """The row softmax of a at temperature tau, without the flush of subnormal weights."""
    e = np.exp((a - a.max(axis=1, keepdims=True)) / tau)
    return e / e.sum(axis=1, keepdims=True)


class TestRoutingWeights:
    def test_uniform(self):
        out = L.routing_weights(np.zeros((1, 3)), 1.0)
        npt.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_dominant_logit_low_temperature(self):
        out = L.routing_weights(np.array([[0.0, 0.0, 10.0]]), 0.01)
        npt.assert_allclose(out, [[0.0, 0.0, 1.0]], atol=1e-9)

    def test_two_logit_value(self):
        # exp(1)/(exp(1)+exp(2)) and its complement
        out = L.routing_weights(np.array([[1.0, 2.0]]), 1.0)
        npt.assert_allclose(out, [[0.26894, 0.73106]], atol=1e-5)

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            L.routing_weights(np.array([[1.0, 2.0]]), 0.0)

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
        s = L.routing_weights(a, tau)
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
        flushed = L.routing_weights(psi, 1.0)
        subnormal = (s > 0.0) & (s < np.finfo(np.float64).tiny)
        assert subnormal[:, 0].all()
        npt.assert_array_equal(flushed[subnormal], 0.0)
        npt.assert_array_equal(flushed[~subnormal], s[~subnormal])


def plain_routing_weights(psi, tau):
    """routing_weights as four lines: exp of every shifted logit, then the flush."""
    s = np.exp(psi / tau - (psi / tau).max(axis=1, keepdims=True))
    s /= s.sum(axis=1, keepdims=True)
    s[s < np.finfo(np.float64).tiny] = 0.0
    return s


def logit_at(z, tau):
    """A logit whose quotient by tau is exactly z, found among the neighbours of z*tau."""
    lo = hi = z * tau
    for _ in range(8):
        for p in (lo, hi):
            if p / tau == z:
                return p
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    raise AssertionError(f"no logit divides by {tau} to {z!r}")


def bound_and_neighbours():
    bound = L.EXP_NORMAL_MIN
    return [np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)]


def shifted_logit_rows(case, tau):
    """Rows of psi whose shifted logits psi/tau - rowmax fall where ``case`` says."""
    rng = np.random.default_rng(71)
    if case == "pinned":
        psi = rng.normal(size=(40, 30))
        psi[np.arange(40), psi.argmax(1)] += L.PIN_TEMPERATURES * tau
        return psi
    if case == "spread":  # subnormal weights, exact underflows and normal ones
        z = rng.uniform(-760.0, -700.0, size=(40, 30))
        z[:, 0] = 0.0
        return z * tau
    if case == "bound":  # at the bound and one ulp either side, alone and with normal weights
        edge = [logit_at(z, tau) for z in bound_and_neighbours()]
        return np.array(
            [[0.0, *edge, -1.0 * tau], [0.0, *edge[::-1], edge[1]], [0.0, *edge[:1] * 3, 0.0]]
        )
    if case == "tied":
        return np.array([[0.0, 0.0, -800.0, -710.0, -3.0], [-5.0, 2.0, -900.0, 2.0, 2.0]]) * tau
    # rows with no entry below the bound, next to a pinned row
    return np.array([[0.0, -1.0, -700.0, -708.0, -2.5], [0.0, -1.0, -1100.0, -1000.0, -1000.0]]) * tau


class TestRoutingWeightsBits:
    """routing_weights skips exp below EXP_NORMAL_MIN; the weights must keep every bit."""

    @pytest.mark.parametrize("tau", [1.0, 0.01])
    @pytest.mark.parametrize("case", ["pinned", "spread", "bound", "tied", "normal"])
    def test_equals_the_plain_softmax(self, case, tau):
        psi = shifted_logit_rows(case, tau)
        z = psi / tau - (psi / tau).max(axis=1, keepdims=True)
        if case == "bound":
            assert z[0, 1:4].tolist() == bound_and_neighbours()
        if case == "normal":
            assert (z[0] >= L.EXP_NORMAL_MIN).all() and (z[1] < L.EXP_NORMAL_MIN).any()
        want = plain_routing_weights(psi, tau)
        for got in (L.routing_weights(psi, tau), L.routing_weights(psi[:1], tau)):
            assert got.view(np.int64).tolist() == want[: len(got)].view(np.int64).tolist()

    def test_bound_is_where_exp_reaches_the_smallest_normal(self):
        tiny = np.finfo(np.float64).tiny
        assert np.exp(L.EXP_NORMAL_MIN) >= tiny
        with np.errstate(under="ignore"):
            assert np.exp(np.nextafter(L.EXP_NORMAL_MIN, -np.inf)) < tiny

    def test_committed_routing_computes_no_underflowing_exp(self):
        # numpy's exp is 10 to 100 times slower where its results underflow,
        # which is every entry but one of each committed row
        psi = shifted_logit_rows("pinned", 0.01)
        with np.errstate(under="raise"):
            s = L.routing_weights(psi, 0.01)
        assert (np.count_nonzero(s, axis=1) == 1).all()


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
        assert L.routing_weights(psi, tau)[0, 1] == 0.0
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


def _candidates(seed, rows=6, d=7, k=3):
    """Random logits psi, k sorted candidate columns per row, and candidate logits of another draw."""
    rng = np.random.default_rng(seed)
    cols = np.sort(np.argsort(rng.random((rows, d)), axis=1)[:, :k], axis=1)
    return rng.normal(size=(rows, d)), cols, rng.normal(size=(rows, k))


class TestCandidates:
    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.01])
    def test_write_back_routes_only_through_the_candidates(self, tau):
        psi, cols, psi_c = _candidates(50)
        r = RoutingParams(t(psi), tau, 3, 2, 7)
        L.write_candidates(r, cols, psi_c, tau)
        npt.assert_array_equal(np.take_along_axis(r.psi.data, cols, 1), psi_c)
        s = L.routing_weights(r.psi.data, tau)
        outside = np.ones(s.shape, dtype=bool)
        np.put_along_axis(outside, cols, False, 1)
        assert (s[outside] == 0.0).all()
        npt.assert_allclose(np.take_along_axis(s, cols, 1), L.routing_weights(psi_c, tau), rtol=0, atol=1e-15)
        L.pin_routing(r, tau)
        npt.assert_array_equal(r.idx, np.take_along_axis(cols, psi_c.argmax(1)[:, None], 1)[:, 0])

    def test_write_back_for_the_pin_keeps_the_candidates_range(self):
        psi, cols, psi_c = _candidates(51)
        r = RoutingParams(t(psi), 0.01, 3, 2, 7)
        L.write_candidates(r, cols, psi_c)
        assert (r.psi.data == psi_c.min(1, keepdims=True)).sum() == psi.size - psi_c.size + psi.shape[0]
        L.pin_routing(r, 0.01)
        npt.assert_array_equal(r.idx, np.take_along_axis(cols, psi_c.argmax(1)[:, None], 1)[:, 0])
        npt.assert_array_equal(L.routing_weights(r.psi.data, 0.01), np.eye(7)[r.idx])

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_candidate_pair_is_the_dense_pair_of_the_written_back_psi(self, tau):
        psi, cols, psi_c = _candidates(52)
        x = np.random.default_rng(53).normal(size=(4, 7))
        g = np.random.default_rng(54).normal(size=(3, 2, 4))
        dense = RoutingParams(t(psi), tau, 3, 2, 7)
        L.write_candidates(dense, cols, psi_c, tau)
        narrowed = RoutingParams(T._raw(np.full((6, 7), np.nan)), tau, 3, 2, 7)  # psi itself is not read
        want_fwd, want_bwd = L.select_pair(dense, (np.empty(42), np.empty(42)), True)
        got_fwd, got_bwd = L.select_pair(narrowed, (np.zeros(42), np.empty(42)), True, (cols, psi_c))
        (want, want_saved), (got, got_saved) = want_fwd(x), got_fwd(x)
        npt.assert_allclose(got, want, rtol=1e-14)
        (want_dx, want_dpsi), (got_dx, got_dpsi) = want_bwd(g, want_saved), got_bwd(g, got_saved)
        npt.assert_allclose(got_dx, want_dx, rtol=1e-14)
        assert got_dpsi.shape == psi_c.shape
        npt.assert_allclose(got_dpsi, np.take_along_axis(want_dpsi, cols, 1), rtol=1e-12, atol=1e-15)


class TestGather:
    def test_reads_the_indexed_features_into_groups(self):
        x = np.random.default_rng(43).normal(size=(5, 4))
        idx = np.array([3, 0, 3, 1, 2, 2])
        out, saved = L.gather_pair(idx, 3, 2)[0](x)
        npt.assert_array_equal(out, batch_last(x[:, idx].reshape(5, 3, 2)))
        assert out.flags.c_contiguous and saved is None

    def test_writes_into_a_buffer_prefix(self):
        x = np.random.default_rng(44).normal(size=(3, 4))
        buf = np.full(40, np.nan)
        out, _ = L.gather_pair(np.array([1, 2]), 1, 2)[0](x, buf)
        assert np.shares_memory(out, buf) and np.isnan(buf[6:]).all()
        npt.assert_array_equal(out.reshape(2, 3), x[:, [1, 2]].T)

    def test_backward_gives_no_gradient(self):
        assert L.gather_pair(np.array([0]), 1, 1)[1](np.ones((1, 1, 3)), None) == (None,)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("branching", [2, 3, 4])
    @pytest.mark.parametrize("kind, reduce", [("max", np.max), ("mean", np.mean)])
    def test_forward_has_the_bits_of_the_stacked_reduction(self, kind, reduce, branching, dtype):
        z = np.random.default_rng(14).normal(size=(4 * branching, 16, 37)).astype(dtype)
        # strata 0 and 1 of output (0, 0, :3): -0.0 and +0.0 tied either way, and -0.0 in both
        z[0, 0, :3] = [-0.0, 0.0, -0.0]
        z[4, 0, :3] = [0.0, -0.0, -0.0]
        z[-1, 3, 5] = np.nan  # in the last stratum
        z[1, 2, 7] = np.nan  # in the first
        got = L.reduce_pool_pair(kind, branching)[0](z)[0]
        want = reduce(L.strata(z, branching), axis=0)
        assert got.dtype == dtype and np.isnan(got).sum() == 2
        npt.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

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


def fresh_batchnorm(n):
    """The state of a new batch-norm over n features: gamma 1, beta 0, moments 0 and 1."""
    return BatchNormState(t(np.ones(n), rg=True), t(np.zeros(n), rg=True), np.zeros(n), np.ones(n))


class TestBatchNorm:
    def test_two_point_standardization(self):
        st = fresh_batchnorm(1)
        out = L.batchnorm_forward(None, Tensor([[1.0], [3.0]]), st)
        npt.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-3)

    def test_zero_gamma_gives_beta(self):
        st = fresh_batchnorm(3)
        st.gamma.data[:] = 0.0
        st.beta.data[:] = 2.5
        rng = np.random.default_rng(5)
        out = L.batchnorm_forward(None, Tensor(rng.normal(size=(4, 3))), st)
        npt.assert_allclose(out.data, np.full((4, 3), 2.5))

    def test_training_needs_two_rows(self):
        st = fresh_batchnorm(2)
        with pytest.raises(DomainError):
            L.batchnorm_forward(None, Tensor(np.zeros((1, 2))), st)

    def test_running_moments_update(self):
        st = fresh_batchnorm(1)
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
