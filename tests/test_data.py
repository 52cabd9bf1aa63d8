import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlp import data
from gmlp.data import (
    Dataset,
    SynthBayesNet,
    batches,
    halfnoise_generate,
    label_names,
    load_csv,
    normalize,
    save_csv,
    split,
    standardize,
    synth_bayes_optimal,
    synth_generate,
    to_run_frame,
)
from gmlp.errors import DataError, DomainError


class TestLoadCsv:
    def test_two_rows_label_last(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n3,4,1\n")
        ds = load_csv(p, label_column=2, has_header=False)
        npt.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(ds.y, [0, 1])
        assert ds.n_classes == 2

    def test_header_skipped_and_label_by_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1,2,0\n3,4,1\n")
        ds = load_csv(p, label_column="label")
        assert ds.feature_names == ["a", "b"]
        npt.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_repeated_feature_name(self, tmp_path):
        # norm_stats.json is keyed by name: both columns would get one column's stats
        p = tmp_path / "d.csv"
        p.write_text("x,x,label\n0.1,100,0\n-0.1,101,1\n")
        with pytest.raises(DataError, match=r"d\.csv: feature names \['x'\] appear more than once"):
            load_csv(p, label_column="label")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(DataError):
            load_csv(p, label_column="target")

    @pytest.mark.parametrize("header", ["a,label", "a,b,c,label"])
    def test_header_width_must_match_rows(self, tmp_path, header):
        p = tmp_path / "d.csv"
        p.write_text(f"{header}\n1,2,0\n3,4,1\n")
        fields = header.count(",") + 1
        with pytest.raises(DataError, match=f"d.csv: header has {fields} fields, rows have 3"):
            load_csv(p, label_column="label")

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1,2,0\n3,4\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(p, label_column="label")

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1,oops,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(p, label_column="label")

    def test_string_labels_sorted_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,label\n1,dog\n2,cat\n3,dog\n4,cat\n5,dog\n6,cat\n")
        ds = load_csv(p, label_column="label")
        npt.assert_array_equal(ds.y, [1, 0, 1, 0, 1, 0])
        assert ds.n_classes == 2 and ds.class_names == ["cat", "dog"]
        assert split(ds, 0.5, seed=0)[0].class_names == ["cat", "dog"]
        assert normalize(ds)[0][0].class_names == ["cat", "dog"]

    def test_round_trip(self, tmp_path):
        ds = halfnoise_generate(20, 3, 2, 2, seed=1)
        save_csv(ds, tmp_path / "rt.csv")
        back = load_csv(tmp_path / "rt.csv", label_column="label")
        npt.assert_array_equal(back.X, ds.X)
        npt.assert_array_equal(back.y, ds.y)
        assert back.feature_names == ds.feature_names


class TestRunFrame:
    def test_columns_are_reordered_by_name(self):
        ds = Dataset(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([0, 1]), 2, ["c", "a", "b"])
        framed = to_run_frame(ds, ["a", "b", "c"], ["0", "1"])
        npt.assert_array_equal(framed.X, [[2.0, 3.0, 1.0], [5.0, 6.0, 4.0]])
        assert framed.feature_names == ["a", "b", "c"]

    def test_text_labels_map_to_the_runs_indices(self):
        # the file holds only yes, its own class 0; the run has yes as class 2
        ds = Dataset(np.zeros((2, 1)), np.array([0, 0]), 1, ["x"], ["yes"])
        framed = to_run_frame(ds, ["x"], ["maybe", "no", "yes"])
        npt.assert_array_equal(framed.y, [2, 2])
        assert framed.n_classes == 3 and framed.class_names == ["maybe", "no", "yes"]

    def test_integer_labels_map_by_their_text(self):
        # integer labels 1 and 0 of a run whose labels sorted as text are ['0', '1', 'x']
        ds = Dataset(np.zeros((2, 1)), np.array([1, 0]), 2, ["x"])
        npt.assert_array_equal(to_run_frame(ds, ["x"], ["0", "1", "x"]).y, [1, 0])

    def test_an_integer_no_row_holds_is_no_unseen_label(self):
        # rows hold 0 and 2; 1, below the largest, is no row's label and not the run's
        ds = Dataset(np.zeros((2, 1)), np.array([2, 0]), 3, ["x"])
        framed = to_run_frame(ds, ["x"], ["0", "2"])
        npt.assert_array_equal(framed.y, [1, 0])
        assert framed.n_classes == 2

    def test_label_names(self):
        assert label_names(3, None) == ["0", "1", "2"]
        assert label_names(2, ["no", "yes"]) == ["no", "yes"]

    @pytest.mark.parametrize(
        "names, class_names, run_labels, message",
        [
            (["a", "z"], None, ["0", "1"], r"columns \['z'\] are not among the training run's \['a', 'b'\]"),
            (["a"], None, ["0", "1"], r"the training run's columns \['b'\] are missing"),
            (["a", "b"], None, ["no", "yes"], r"labels \['0', '1'\] are not among the training run's \['no', 'yes'\]"),
            (["a", "b"], None, ["0"], r"labels \['1'\] are not among the training run's \['0'\]"),
            (["a", "b"], ["no", "yes"], ["0", "1"], r"labels \['no', 'yes'\] are not among the training run's \['0', '1'\]"),
        ],
        ids=[
            "unknown-column",
            "missing-column",
            "integers-for-a-text-run",
            "integer-past-the-runs-classes",
            "text-for-an-integer-run",
        ],
    )
    def test_what_the_run_lacks_raises(self, names, class_names, run_labels, message):
        ds = Dataset(np.zeros((2, len(names))), np.array([0, 1]), 2, names, class_names)
        with pytest.raises(DataError, match=message):
            to_run_frame(ds, ["a", "b"], run_labels)


class TestDataset:
    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_feature_names_must_match_width(self, names):
        with pytest.raises(DataError, match=f"{len(names)} feature names for 2 columns"):
            Dataset(np.zeros((3, 2)), np.zeros(3), 1, names)


class TestStorage:
    def test_rows_are_the_float32_rounding_of_the_given_rows(self, tmp_path):
        X = np.random.default_rng(2).normal(size=(30, 3))
        ds = Dataset(X, np.arange(30) % 2, 2)
        assert ds.X.dtype == np.float32 and ds.X.flags.c_contiguous
        npt.assert_array_equal(ds.X, X.astype(np.float32))
        train, test = split(ds, 0.2, seed=1)
        (ntr, nte), _ = normalize(train, test)
        save_csv(ds, tmp_path / "d.csv")
        loaded = load_csv(tmp_path / "d.csv", label_column="label")
        for part in (train, test, ntr, nte, loaded, ds.take(np.array([3, 1]))):
            assert part.X.dtype == np.float32
        npt.assert_array_equal(loaded.X, ds.X)  # the CSV holds each float32 value exactly

    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
    @pytest.mark.parametrize("warnings_action", ["error", "ignore"])
    def test_finite_value_beyond_float32_raises_domain_error(self, value, warnings_action):
        X = np.zeros((4, 2))
        X[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter(warnings_action)
            with pytest.raises(DomainError, match="float32"):
                Dataset(X, np.zeros(4, dtype=int), 1)
            X[2, 1] = 3.4e38  # within float32's range
            assert Dataset(X, np.zeros(4, dtype=int), 1).X[2, 1] == np.float32(3.4e38)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_data_error(self, value):
        X = np.zeros((4, 2))
        X[:2, 0] = 1e39  # beyond float32 too: the non-finite value is what is reported
        X[2, 1] = value
        with pytest.raises(DataError, match="non-finite"):
            Dataset(X, np.zeros(4, dtype=int), 1)

    def test_standardized_value_beyond_float32_raises_domain_error(self):
        train = Dataset(np.array([[0.0], [1e-30]]), np.zeros(2, dtype=int), 1)
        test = Dataset(np.array([[1e30]]), np.zeros(1, dtype=int), 1)
        with pytest.raises(DomainError, match="float32"):
            normalize(train, test)  # (1e30 - 5e-31) / 5e-31 is about 2e60


class TestNormalize:
    def test_two_point_column(self):
        ds = Dataset(np.array([[1.0], [3.0]]), np.array([0, 1]), 2)
        (norm,), _ = normalize(ds)
        npt.assert_allclose(norm.X, [[-1.0], [1.0]])

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([0, 1]), 2)
        (norm,), stats = normalize(ds)
        npt.assert_array_equal(norm.X[:, 0], [0.0, 0.0])
        assert stats["f0"]["sigma"] == 0.0

    def test_other_splits_use_train_stats(self):
        rng = np.random.default_rng(0)
        train = Dataset(rng.normal(5.0, 2.0, (50, 3)), np.zeros(50, dtype=int), 1)
        test = Dataset(rng.normal(-1.0, 0.5, (20, 3)), np.zeros(20, dtype=int), 1)
        (ntr, nte), stats = normalize(train, test)
        mu = np.array([stats[f"f{j}"]["mu"] for j in range(3)])
        sig = np.array([stats[f"f{j}"]["sigma"] for j in range(3)])
        npt.assert_allclose(nte.X, (test.X - mu) / sig)
        assert abs(nte.X.mean()) > 0.5  # clearly not self-normalized

    # the default block, one block for these rows, and blocks of 3 rows, the last of 1
    @pytest.mark.parametrize("block", [None, 12])
    def test_bits_of_the_formula_and_input_left_alone(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(data, "STANDARDIZE_BLOCK", block)
        rng = np.random.default_rng(1)
        X = rng.normal(5.0, 2.0, (40, 4)).astype(np.float32)
        X[:, 2] = 7.0  # sigma 0
        kept = X.copy()
        ds = Dataset(X, np.zeros(40, dtype=int), 1)
        (norm,), _ = normalize(ds)
        # the formula in float64 on the float32 rows, rounded once to float32
        wide = kept.astype(np.float64)
        mu, sigma = wide.mean(axis=0), wide.std(axis=0)
        keep = sigma != 0.0
        assert keep.tolist() == [True, True, False, True]
        want = ((wide[:, keep] - mu[keep]) / sigma[keep]).astype(np.float32)
        assert norm.X.dtype == np.float32
        npt.assert_array_equal(norm.X[:, keep].view(np.int32), want.view(np.int32))
        npt.assert_array_equal(norm.X[:, 2].view(np.int32), 0)  # +0.0
        assert ds.X is X  # normalize was given the caller's array, and did not write it
        npt.assert_array_equal(X.view(np.int32), kept.view(np.int32))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_train_moments(self, n, d, seed):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.normal(3.0, 2.5, (n, d)), np.zeros(n, dtype=int), 1)
        (norm,), _ = normalize(ds)
        # the float64 standardization of the stored rows hits the moments; the
        # normalized rows are its one rounding to float32
        X = ds.X.astype(np.float64)
        keep = X.std(axis=0) > 0
        exact = (X[:, keep] - X.mean(axis=0)[keep]) / X.std(axis=0)[keep]
        assert np.all(np.abs(exact.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(exact.var(axis=0) - 1.0) < 1e-6)
        npt.assert_array_equal(norm.X[:, keep], exact.astype(np.float32))

    def test_standardize_makes_no_float64_array_of_the_split(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(4096, 784)).astype(np.float32), np.zeros(4096, dtype=int), 1)
        mu, sigma = np.full(784, 0.5), np.full(784, 2.0)
        tracemalloc.start()
        try:
            out = standardize(ds, mu, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 result, Dataset's one-byte finiteness mask of it, and a
        # float64 block with its own mask; a float64 array of the split alone
        # would be twice the result's 12.25 MiB
        assert peak <= out.X.nbytes + out.X.size + 2 * 8 * data.STANDARDIZE_BLOCK


class TestSplit:
    def _ds(self, n=100, classes=2, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(n, 3)), rng.integers(0, classes, n), classes)

    def test_sizes(self):
        train, test = split(self._ds(100), 0.2, seed=1)
        assert (train.n, test.n) == (80, 20)

    def test_same_seed_same_split(self):
        ds = self._ds(57, 3)
        a_train, a_test = split(ds, 0.2, seed=9)
        b_train, b_test = split(ds, 0.2, seed=9)
        npt.assert_array_equal(a_train.X, b_train.X)
        npt.assert_array_equal(a_test.y, b_test.y)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(5, 200), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_partition(self, n, classes, seed):
        ds = self._ds(n, classes, seed)
        train, test = split(ds, 0.2, seed=seed)
        key = lambda d: {tuple(row) for row in np.column_stack([d.X, d.y])}
        assert train.n + test.n == n
        assert key(train) | key(test) == key(ds)
        assert not (key(train) & key(test))

    def test_stratified_presence(self):
        y = np.array([0] * 95 + [1] * 5)
        ds = Dataset(np.arange(100.0).reshape(100, 1), y, 2)
        train, test = split(ds, 0.2, seed=4)
        assert set(np.unique(train.y)) == {0, 1}
        assert set(np.unique(test.y)) == {0, 1}

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            split(self._ds(), 0.0)
        with pytest.raises(DataError):
            split(self._ds(), 1.0)

    def test_too_small(self):
        with pytest.raises(DataError):
            split(self._ds(4), 0.2)


class TestBatches:
    def _ds(self, n):
        return Dataset(np.arange(n, dtype=float).reshape(n, 1), np.zeros(n, dtype=int), 1)

    def test_training_drops_short_batch(self):
        sizes = [xb.shape[0] for xb, _ in batches(self._ds(10), 4, seed=0, epoch=0)]
        assert sizes == [4, 4]

    def test_epoch_changes_order_deterministically(self):
        ds = self._ds(16)
        first = np.concatenate([xb[:, 0] for xb, _ in batches(ds, 4, seed=3, epoch=0)])
        second = np.concatenate([xb[:, 0] for xb, _ in batches(ds, 4, seed=3, epoch=1)])
        again = np.concatenate([xb[:, 0] for xb, _ in batches(ds, 4, seed=3, epoch=1)])
        assert not np.array_equal(first, second)
        npt.assert_array_equal(second, again)

    def test_batch_size_floor(self):
        with pytest.raises(DataError):
            list(batches(self._ds(10), 1, seed=0, epoch=0))


class TestSynth:
    def test_reproducible_shape(self):
        a = synth_generate(SynthBayesNet(), 6400, seed=11)
        b = synth_generate(SynthBayesNet(), 6400, seed=11)
        assert a.d == 6 and a.n_classes == 2 and a.n == 6400
        npt.assert_array_equal(a.X, b.X)
        npt.assert_array_equal(a.y, b.y)
        assert set(np.unique(a.X)) == {0.0, 1.0}

    def test_deterministic_net_label_is_function_of_roots(self):
        net = SynthBayesNet(xor_fidelity=1.0, target_rule=np.array([0.0, 0.0, 1.0, 1.0]))
        ds = synth_generate(net, 2000, seed=5)
        xors = np.stack(
            [ds.X[:, a].astype(int) ^ ds.X[:, b].astype(int) for a, b in net.parent_pairs],
            axis=1,
        )
        npt.assert_array_equal(ds.y, (xors.sum(axis=1) >= 2).astype(int))

    def test_xor_fidelity_monte_carlo(self):
        net = SynthBayesNet()
        ds, hidden = synth_generate(net, 100_000, seed=7, return_hidden=True)
        xors = np.stack(
            [ds.X[:, a].astype(int) ^ ds.X[:, b].astype(int) for a, b in net.parent_pairs],
            axis=1,
        )
        assert abs((hidden == xors).mean() - 0.99) < 0.005

    def test_label_marginal_within_binomial_bounds(self):
        net = SynthBayesNet()
        oracle = synth_bayes_optimal(net)
        n = 100_000
        ds = synth_generate(net, n, seed=13)
        sigma = np.sqrt(oracle.label_marginal * (1 - oracle.label_marginal) / n)
        assert abs(ds.y.mean() - oracle.label_marginal) < 3 * sigma

    def test_invalid_nets(self):
        with pytest.raises(DataError):
            SynthBayesNet(root_prob=np.full(5, 0.5))
        with pytest.raises(DataError):
            SynthBayesNet(root_prob=[0.5, 0.5])
        with pytest.raises(DataError):
            SynthBayesNet(parent_pairs=((0, 1), (2, 3), (4, 4)))
        with pytest.raises(DataError):
            SynthBayesNet(xor_fidelity=1.5)


class TestOracle:
    def test_deterministic_net_is_perfectly_predictable(self):
        net = SynthBayesNet(xor_fidelity=1.0, target_rule=np.array([0.0, 0.0, 1.0, 1.0]))
        oracle = synth_bayes_optimal(net)
        assert oracle.optimal_accuracy == pytest.approx(1.0)

    def test_posterior_rows_sum_to_one(self):
        oracle = synth_bayes_optimal(SynthBayesNet())
        npt.assert_allclose(oracle.posterior.sum(axis=1), np.ones(64), atol=1e-12)
        npt.assert_allclose(oracle.config_prob.sum(), 1.0, atol=1e-12)

    def test_default_net_value_frozen(self):
        # independently brute-forced over all 2^6 * 2^3 joint states
        oracle = synth_bayes_optimal(SynthBayesNet())
        assert oracle.optimal_accuracy == pytest.approx(0.9366341, abs=1e-7)
        assert oracle.label_marginal == pytest.approx(0.5, abs=1e-12)

    def test_oracle_predictions_hit_optimum_empirically(self):
        net = SynthBayesNet()
        oracle = synth_bayes_optimal(net)
        ds = synth_generate(net, 100_000, seed=3)
        # row r of the posterior is the configuration whose bit i is root i
        config = ds.X.astype(np.int64) @ (1 << np.arange(6))
        emp = (oracle.posterior[config].argmax(axis=1) == ds.y).mean()
        sigma = np.sqrt(oracle.optimal_accuracy * (1 - oracle.optimal_accuracy) / ds.n)
        assert abs(emp - oracle.optimal_accuracy) < 4 * sigma

    def test_skewed_roots_change_the_answer(self):
        skew = SynthBayesNet(root_prob=np.array([0.9, 0.9, 0.5, 0.5, 0.1, 0.1]))
        assert synth_bayes_optimal(skew).optimal_accuracy != pytest.approx(0.9366341)


class TestHalfNoise:
    def test_layout(self):
        ds = halfnoise_generate(100, n_signal=8, n_noise=8, n_classes=3, seed=2)
        assert ds.d == 16 and ds.n_classes == 3
        assert ds.feature_names[0] == "sig0" and ds.feature_names[-1] == "noise7"

    @pytest.mark.parametrize("seed", [0, 9])
    def test_same_draws_as_stacked_columns(self, seed):
        ds = halfnoise_generate(300, n_signal=5, n_noise=7, n_classes=3, seed=seed, within_scale=2.0)
        rng = np.random.default_rng(seed)
        templates = rng.choice([-1.0, 1.0], size=(3, 5))
        y = rng.integers(0, 3, size=300)
        signal = templates[y] + rng.normal(scale=2.0, size=(300, 5))
        noise = rng.normal(size=(300, 7))
        # the float64 draws, rounded once to the dataset's float32
        assert ds.X.dtype == np.float32
        assert np.array_equal(ds.X, np.hstack([signal, noise]).astype(np.float32))
        assert np.array_equal(ds.y, y)

    def test_signal_carries_class_information(self):
        ds = halfnoise_generate(4000, n_signal=8, n_noise=8, n_classes=2, seed=4)
        # mean template separation shows up in signal columns, not noise
        d0 = np.abs(ds.X[ds.y == 0].mean(0) - ds.X[ds.y == 1].mean(0))
        assert d0[:8].mean() > 10 * d0[8:].mean()
