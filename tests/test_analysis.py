import numpy as np
import numpy.testing as npt
import pytest

from gmlp import analysis as A
from gmlp.data import Dataset
from gmlp.errors import DataError
from gmlp.layers import RoutingParams, hard_assignment
from gmlp.model import Model, parse_arch
from gmlp.tensor import Tensor


def routing(psi, temperature=1.0, k=None, m=None):
    psi = np.asarray(psi, dtype=np.float64)
    km, d = psi.shape
    k = k or 1
    m = m or km // k
    return RoutingParams(Tensor(psi), temperature, k, m, d)


def committed(slots, k, m, d):
    """A routing committed to ``slots``: slot j of group i reads feature slots[i*m + j]."""
    r = routing(np.zeros((k * m, d)), k=k, m=m)
    r.idx = np.asarray(slots)
    return r


class TestHardAssignment:
    def test_argmax_row(self):
        assert hard_assignment(routing([[0.0, 5.0, 1.0]]))[0] == 1

    def test_tie_breaks_low(self):
        assert hard_assignment(routing([[3.0, 3.0]]))[0] == 0

    def test_slots_do_not_depend_on_temperature(self):
        psi = [[2.0, 0.0, 1.9], [0.0, -1.0, 0.1]]
        for temperature in [0.01, 1.0, 100.0]:
            assert hard_assignment(routing(psi, temperature=temperature)).tolist() == [0, 2]


class TestSparsity:
    def test_saturated(self):
        assert A.sparsity_report(routing(np.eye(4) * 1e3)) == 1.0

    def test_uniform(self):
        assert A.sparsity_report(routing(np.zeros((4, 6)))) == 0.0

    def test_committed_routing_is_sparse_without_a_softmax(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a softmax was computed")

        r = routing(np.zeros((4, 6)))  # uniform, so its softmax would score 0
        r.idx = np.array([0, 3, 3, 5])
        monkeypatch.setattr(A, "routing_weights", refuse)
        assert A.sparsity_report(r) == 1.0
        assert hard_assignment(r).tolist() == [0, 3, 3, 5]

    def test_monotone_in_temperature(self):
        rng = np.random.default_rng(0)
        psi = rng.normal(size=(10, 6))
        psi[np.arange(10), psi.argmax(1)] += 0.5  # unique maxima
        values = []
        for tau in (1.0, 0.1, 0.01):
            values.append(A.sparsity_report(routing(psi, temperature=tau)))
        assert values == sorted(values)
        assert values[-1] == 1.0


class TestHeatmap:
    def test_counts(self):
        counts = A.selection_heatmap(committed([3, 3], 1, 2, 5))
        npt.assert_array_equal(counts, [0, 0, 0, 2, 0])

    def test_total_is_km(self):
        rng = np.random.default_rng(1)
        slots = rng.integers(0, 7, size=12)
        assert A.selection_heatmap(committed(slots, 4, 3, 7)).sum() == 12

    def test_permutation_equivariance(self):
        # relabeling features with a permutation relabels the counts the same way
        rng = np.random.default_rng(2)
        slots = rng.integers(0, 5, size=8)
        perm = rng.permutation(5)
        counts = A.selection_heatmap(committed(slots, 4, 2, 5))
        relabeled = A.selection_heatmap(committed(perm[slots], 4, 2, 5))
        npt.assert_array_equal(relabeled[perm], counts)


class TestGroupGraph:
    def test_repeated_pair_accumulates(self):
        graph = A.group_graph(committed([0, 1, 0, 1], 2, 2, 4))
        assert graph.edges == [(0, 1, 2)]

    def test_no_self_edge(self):
        assert A.group_graph(committed([2, 2], 1, 2, 4)).edges == []

    def test_triple_group_complete_subgraph(self):
        assert A.group_graph(committed([0, 1, 2], 1, 3, 4)).edges == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]

    def test_total_weight_counts_pairs(self):
        rng = np.random.default_rng(3)
        k, m, d = 5, 3, 8
        slots = rng.integers(0, d, size=k * m)
        graph = A.group_graph(committed(slots, k, m, d))
        expected = 0
        for g in range(k):
            uniq = len(set(slots[g * m : (g + 1) * m].tolist()))
            expected += uniq * (uniq - 1) // 2
        assert graph.total_weight == expected


class TestCorrelation:
    def _model_with_assignment(self, assign, d, k, m):
        arch = f"GSel-{k}-{m}, GFC, ReLU, BNorm, Concat, FC-2"
        model = Model(parse_arch(arch, d=d, seed=0))
        psi = np.full((k * m, d), -200.0)
        psi[np.arange(k * m), assign] = 200.0
        model.routing.psi.data[:] = psi
        return model

    def test_same_feature_slots_fully_correlated(self):
        model = self._model_with_assignment([1, 1, 0, 2], d=4, k=2, m=2)
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(200, 4)), rng.integers(0, 2, 200), 2)
        report = A.correlation_analysis(model, ds)
        assert report.corr[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_negated_feature_anticorrelated(self):
        model = self._model_with_assignment([0, 1], d=2, k=1, m=2)
        rng = np.random.default_rng(5)
        base = rng.normal(size=200)
        ds = Dataset(np.column_stack([base, -base]), np.zeros(200, dtype=int), 1)
        report = A.correlation_analysis(model, ds)
        assert report.corr[0, 1] == pytest.approx(-1.0, abs=1e-9)

    def test_committed_routing_gathers_the_same_outputs(self):
        model = self._model_with_assignment([1, 1, 0, 2], d=4, k=2, m=2)
        rng = np.random.default_rng(7)
        ds = Dataset(rng.normal(size=(200, 4)), rng.integers(0, 2, 200), 2)
        mixed = A.correlation_analysis(model, ds)
        model.routing.idx = np.array([1, 1, 0, 2])
        gathered = A.correlation_analysis(model, ds)
        npt.assert_allclose(gathered.corr, mixed.corr, rtol=0, atol=1e-12)
        npt.assert_array_equal(gathered.intra_hist, mixed.intra_hist)

    def test_pair_partition_counts(self):
        model = self._model_with_assignment(list(range(6)), d=6, k=3, m=2)
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(100, 6)), rng.integers(0, 2, 100), 2)
        report = A.correlation_analysis(model, ds)
        n = 6
        assert report.intra_hist.sum() + report.inter_hist.sum() == n * (n - 1) // 2
        assert report.intra_hist.sum() == 3  # one intra pair per group

    def test_zero_variance_slot_flagged(self):
        model = self._model_with_assignment([0, 1], d=2, k=1, m=2)
        rng = np.random.default_rng(7)
        X = np.column_stack([np.full(50, 3.0), rng.normal(size=50)])
        ds = Dataset(X, np.zeros(50, dtype=int), 1)
        report = A.correlation_analysis(model, ds)
        assert report.zero_variance_slots == 1
        assert report.corr[0, 0] == 0.0

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setattr(A, "CORRELATION_SLOTS", 4)
        model = self._model_with_assignment(list(range(6)) + [0, 1], d=6, k=4, m=2)
        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(60, 6)), rng.integers(0, 2, 60), 2)
        report = A.correlation_analysis(model, ds)
        assert report.corr.shape == (4, 4)

    def test_needs_samples(self):
        model = self._model_with_assignment([0, 1], d=2, k=1, m=2)
        ds = Dataset(np.zeros((1, 2)), np.zeros(1, dtype=int), 1)
        with pytest.raises(DataError):
            A.correlation_analysis(model, ds)


class TestExports:
    def test_heatmap_rows(self, tmp_path):
        A.save_heatmap_csv(np.array([3, 0, 5, 1]), tmp_path / "h.csv", feature_names=list("abcd"))
        rows = (tmp_path / "h.csv").read_text(encoding="utf-8").splitlines()
        assert rows == ["feature,name,count", "0,a,3", "1,b,0", "2,c,5", "3,d,1"]

    def test_edge_list_rows(self, tmp_path):
        A.save_edge_list(A.GroupGraph([0, 1, 4], [(0, 1, 2), (1, 4, 1)]), tmp_path / "e.txt")
        assert (tmp_path / "e.txt").read_text(encoding="utf-8").splitlines() == ["0,1,2", "1,4,1"]

    def test_histogram_rows(self, tmp_path):
        report = A.CorrelationReport(
            corr=np.eye(2),
            intra_hist=np.array([0, 1]),
            inter_hist=np.array([3, 2]),
            bin_edges=np.linspace(-1, 1, 3),
            zero_variance_slots=0,
        )
        A.save_histogram_csv(report, tmp_path / "hist.csv")
        rows = (tmp_path / "hist.csv").read_text(encoding="utf-8").splitlines()
        assert rows == ["bin_left,bin_right,intra_count,inter_count", "-1.0,0.0,0,3", "0.0,1.0,1,2"]
