import json

import numpy as np
import pytest

from gmlp import cli
from gmlp.checkpoint import load_checkpoint, save_model
from gmlp.data import Dataset, SynthBayesNet, save_csv, synth_generate
from gmlp.model import Model, parse_arch
from gmlp.training import fit, predictions

CONFIG = """\
arch = GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2, Softmax
data = synth
synth_n = 400
synth_seed = 3
epochs = 3
batch_size = 32
lr0 = 0.01
seed = 5
"""


class TestTrainDeterminism:
    def test_identical_runs_give_identical_files(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG, encoding="utf-8")
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert cli.main(["train", str(config), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        for name in ("train_report.json", "metrics.csv"):
            first, second = (out / name for out in runs)
            assert first.read_bytes() == second.read_bytes(), name
        assert b"wall_time" not in (runs[0] / "train_report.json").read_bytes()

    def test_report_after_a_hard_phase(self, tmp_path, capsys):
        # 4 epochs: the last one trains on the committed routing
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("epochs = 3", "epochs = 4"), encoding="utf-8")
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "run" / "train_report.json").read_text(encoding="utf-8"))
        assert report["final_test_accuracy_hard"] == report["final_test_accuracy"]
        assert report["final_sparsity"] == 1.0 and report["final_tau"] == 0.01
        rows = (tmp_path / "run" / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0].split(",")[4:6] == ["val_accuracy", "val_accuracy_hard"]
        assert float(rows[-1].split(",")[3]) == 0.0  # no entropy term in the hard phase

    @pytest.mark.parametrize(
        "key",
        [
            "anneal_entropy",
            "anneal_temperature",
            "branching",
            "synth_root_prob",
            "synth_xor_fidelity",
            "synth_target_rule",
        ],
    )
    def test_removed_switches_exit_1(self, tmp_path, key, capsys):
        # lambda = 0 and tau_end = tau_start do what the anneal switches did, a
        # GPool-kind-b token what branching did, and gmlp synth then data = csv
        # what the synth keys did
        config = tmp_path / "run.cfg"
        config.write_text(f"{CONFIG}{key} = false\n", encoding="utf-8")
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err


    def test_arch_error_writes_no_files(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        arch = CONFIG.splitlines()[0]
        config.write_text(CONFIG.replace(arch, "arch = FC-8, ReLU, FC-3"), encoding="utf-8")
        run = tmp_path / "run"
        assert cli.main(["train", str(config), "--out-dir", str(run)]) == 1
        assert "arch outputs 3 classes but data has 2" in capsys.readouterr().err
        assert not (run / "norm_stats.json").exists()


def _yes_no_csv(path, n, seed, first):
    """n rows of a task whose label is yes where x0 > 0, the first row labelled ``first``."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    X[0, 0] = 1.0 if first == "yes" else -1.0
    labels = np.where(X[:, 0] > 0, "yes", "no")
    lines = ["x0,x1,x2,label"] + [f"{a},{b},{c},{lab}" for (a, b, c), lab in zip(X, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStringLabels:
    def _config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "arch = FC-8, ReLU, FC-2\ndata = csv\n"
            f"train_csv = {tmp_path / 'train.csv'}\ntest_csv = {tmp_path / 'test.csv'}\n"
            "epochs = 20\nbatch_size = 32\nlr0 = 0.01\nseed = 5\n",
            encoding="utf-8",
        )
        return config

    def test_files_that_list_the_labels_in_another_order_agree(self, tmp_path, capsys):
        # the training file starts with a no row, the test file with a yes row
        _yes_no_csv(tmp_path / "train.csv", 400, 1, "no")
        _yes_no_csv(tmp_path / "test.csv", 200, 2, "yes")
        run = tmp_path / "run"
        assert cli.main(["train", str(self._config(tmp_path)), "--out-dir", str(run)]) == 0
        capsys.readouterr()
        report = json.loads((run / "train_report.json").read_text(encoding="utf-8"))
        assert report["final_test_accuracy"] > 0.9
        argv = ["eval", str(run / "model_final.ckpt"), "--data", str(tmp_path / "test.csv")]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == report["final_test_accuracy"]

    def test_test_file_with_other_labels_exits_1(self, tmp_path, capsys):
        _yes_no_csv(tmp_path / "train.csv", 400, 1, "no")
        text = (tmp_path / "train.csv").read_text(encoding="utf-8").replace(",no\n", ",maybe\n")
        (tmp_path / "test.csv").write_text(text, encoding="utf-8")
        run = tmp_path / "run"
        assert cli.main(["train", str(self._config(tmp_path)), "--out-dir", str(run)]) == 1
        assert "labels ['maybe'] are not among the training run's ['no', 'yes']" in capsys.readouterr().err
        assert not run.exists()

    def test_file_with_one_of_the_labels_is_scored_against_the_runs_classes(self, tmp_path, capsys):
        _yes_no_csv(tmp_path / "train.csv", 400, 1, "no")
        _yes_no_csv(tmp_path / "test.csv", 200, 2, "yes")
        run = tmp_path / "run"
        assert cli.main(["train", str(self._config(tmp_path)), "--out-dir", str(run)]) == 0
        header, *lines = (tmp_path / "test.csv").read_text(encoding="utf-8").splitlines()
        yes_rows = tmp_path / "yes.csv"
        yes_rows.write_text("\n".join([header] + [l for l in lines if l.endswith(",yes")]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["eval", str(run / "model_final.ckpt"), "--data", str(yes_rows)]) == 0
        report = json.loads(capsys.readouterr().out)
        # yes is class 1 of the run; the file's own label set would make it class 0
        assert report["accuracy"] > 0.9
        assert list(report["per_class_accuracy"]) == ["yes"]

    def test_test_file_with_one_class_trains_and_scores_as_eval(self, tmp_path, capsys):
        # the test file holds only yes, the run's class 1 and the file's own class 0
        _yes_no_csv(tmp_path / "train.csv", 400, 1, "no")
        _yes_no_csv(tmp_path / "rows.csv", 200, 2, "yes")
        header, *lines = (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()
        yes_rows = [header] + [line for line in lines if line.endswith(",yes")]
        (tmp_path / "test.csv").write_text("\n".join(yes_rows) + "\n", encoding="utf-8")
        run = tmp_path / "run"
        assert cli.main(["train", str(self._config(tmp_path)), "--out-dir", str(run)]) == 0
        capsys.readouterr()
        report = json.loads((run / "train_report.json").read_text(encoding="utf-8"))
        assert report["final_test_accuracy"] > 0.9
        argv = ["eval", str(run / "model_final.ckpt"), "--data", str(tmp_path / "test.csv")]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == report["final_test_accuracy"]

    @pytest.mark.parametrize("command", ["train", "eval", "analyze"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("text", "labels ['no', 'yes'] are not among the training run's ['0', '1']"),
            ("past_the_classes", "labels ['2'] are not among the training run's ['0', '1']"),
        ],
        ids=["text", "past_the_classes"],
    )
    def test_file_outside_an_integer_runs_classes_exits_1(self, tmp_path, capsys, command, case, message):
        _yes_no_csv(tmp_path / "train.csv", 400, 1, "no")
        text = (tmp_path / "train.csv").read_text(encoding="utf-8")
        (tmp_path / "train.csv").write_text(text.replace(",yes\n", ",1\n").replace(",no\n", ",0\n"), encoding="utf-8")
        _yes_no_csv(tmp_path / "test.csv", 50, 3, "yes")
        if case == "past_the_classes":
            text = (tmp_path / "test.csv").read_text(encoding="utf-8")
            (tmp_path / "test.csv").write_text(text.replace(",yes\n", ",2\n").replace(",no\n", ",0\n"), encoding="utf-8")
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", str(self._config(tmp_path)), "--out-dir", str(out)]
        else:
            # the metadata of a run trained on integer labels: no class names
            model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=3, seed=1))
            save_model(tmp_path / "model.ckpt", model, metadata={"class_names": None, "feature_names": ["x0", "x1", "x2"]})
            argv = [command, str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "test.csv")]
            argv += ["--out", str(out)] if command == "eval" else ["--out-dir", str(out)]
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_label_the_run_never_saw_exits_1(self, tmp_path, capsys, command):
        model = Model(parse_arch("GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2", d=3, seed=1))
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, model, metadata={"class_names": ["no", "yes"]})
        _yes_no_csv(tmp_path / "rows.csv", 50, 3, "yes")
        text = (tmp_path / "rows.csv").read_text(encoding="utf-8").replace(",no\n", ",maybe\n", 1)
        (tmp_path / "rows.csv").write_text(text, encoding="utf-8")
        argv = [command, str(ckpt), "--data", str(tmp_path / "rows.csv")]
        if command == "analyze":
            argv += ["--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "labels ['maybe'] are not among the training run's ['no', 'yes']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()



class TestEval:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A checkpoint trained on CONFIG and a CSV of fresh rows from the same task."""
        tmp = tmp_path_factory.mktemp("eval")
        config = tmp / "run.cfg"
        config.write_text(CONFIG, encoding="utf-8")
        assert cli.main(["train", str(config), "--out-dir", str(tmp / "run")]) == 0
        data = tmp / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 300, seed=11), data)
        return tmp / "run" / "model_final.ckpt", data

    def test_reports_both_accuracies(self, trained, capsys):
        ckpt, data = trained
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_samples"] == 300
        for key in ("accuracy", "hard_routing_accuracy"):
            assert 0.0 <= report[key] <= 1.0, key
        assert set(report["per_class_accuracy"]) <= {"0", "1"}

    def test_value_beyond_float32_exits_2(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        ds = synth_generate(SynthBayesNet(), 300, seed=11)
        ds.X[7, 2] = 1e39  # finite in float64, beyond float32 once standardized
        save_csv(ds, tmp_path / "rows.csv")
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), "--data", str(tmp_path / "rows.csv")]) == 2
        assert "float32" in capsys.readouterr().err

    def test_accuracy_uses_the_runs_standardization(self, tmp_path, capsys):
        def rows(n, seed, const):
            """Synth rows moved off mean 0 and std 1, plus a column that holds ``const``."""
            ds = synth_generate(SynthBayesNet(), n, seed=seed)
            X = np.column_stack([ds.X * 4.0 + 3.0, np.full(n, const)])
            return Dataset(X, ds.y, ds.n_classes, [f"x{j}" for j in range(X.shape[1])])

        save_csv(rows(400, 3, 1.0), tmp_path / "train.csv")
        # the constant column takes another value here, and standardization must zero it
        test = rows(300, 11, 25.0)
        save_csv(test, tmp_path / "rows.csv")
        config = tmp_path / "run.cfg"
        csv_source = f"data = csv\ntrain_csv = {tmp_path / 'train.csv'}"
        config.write_text(CONFIG.replace("data = synth", csv_source), encoding="utf-8")
        run = tmp_path / "run"
        assert cli.main(["train", str(config), "--out-dir", str(run)]) == 0
        capsys.readouterr()
        argv = ["eval", str(run / "model_final.ckpt"), "--data", str(tmp_path / "rows.csv")]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)

        stats = json.loads((run / "norm_stats.json").read_text(encoding="utf-8"))
        mu = np.array([stats[name]["mu"] for name in test.feature_names])
        sigma = np.array([stats[name]["sigma"] for name in test.feature_names])
        live = sigma != 0.0
        assert not live[-1]
        standardized = np.zeros_like(test.X)
        standardized[:, live] = (test.X[:, live] - mu[live]) / sigma[live]
        model = load_checkpoint(run / "model_final.ckpt").model

        def acc(X):
            return float((predictions(model, X) == test.y).mean())

        assert report["accuracy"] == acc(standardized)
        # the check can tell: raw rows, or the constant column left unzeroed, score otherwise
        unzeroed = standardized.copy()
        unzeroed[:, -1] = test.X[:, -1] - mu[-1]
        assert acc(test.X) != acc(standardized)
        assert acc(unzeroed) != acc(standardized)

    def test_columns_in_another_order_are_fed_in_the_training_order(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 400, seed=3), rows)
        test = synth_generate(SynthBayesNet(), 300, seed=11)
        save_csv(test, tmp_path / "test.csv")
        flipped = Dataset(test.X[:, ::-1], test.y, test.n_classes, test.feature_names[::-1])
        save_csv(flipped, tmp_path / "flipped.csv")  # columns F, E, ..., A
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("data = synth", f"data = csv\ntrain_csv = {rows}"))
        run = tmp_path / "run"
        assert cli.main(["train", str(config), "--out-dir", str(run)]) == 0
        assert load_checkpoint(run / "model_final.ckpt").manifest["metadata"]["feature_names"] == list("ABCDEF")
        reports = []
        for name in ("test.csv", "flipped.csv"):
            capsys.readouterr()
            assert cli.main(["eval", str(run / "model_final.ckpt"), "--data", str(tmp_path / name)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1] | {"checkpoint": reports[0]["checkpoint"]}
        # the check can tell: the flipped columns fed in their own order score otherwise
        model = load_checkpoint(run / "model_final.ckpt").model
        stats = json.loads((run / "norm_stats.json").read_text(encoding="utf-8"))
        mu, sigma = (np.array([stats[c][key] for c in "FEDCBA"]) for key in ("mu", "sigma"))
        misfed = float((predictions(model, (flipped.X - mu) / sigma) == test.y).mean())
        assert misfed != reports[0]["accuracy"]

    def test_train_scores_a_test_csv_with_its_columns_in_another_order_by_name(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 400, seed=3), rows)
        test = synth_generate(SynthBayesNet(), 300, seed=11)
        save_csv(test, tmp_path / "test.csv")
        flipped = Dataset(test.X[:, ::-1], test.y, test.n_classes, test.feature_names[::-1])
        save_csv(flipped, tmp_path / "flipped.csv")  # columns F, E, ..., A
        reports = []
        for name in ("test.csv", "flipped.csv"):
            config = tmp_path / f"{name}.cfg"
            csv = f"data = csv\ntrain_csv = {rows}\ntest_csv = {tmp_path / name}"
            config.write_text(CONFIG.replace("data = synth", csv))
            assert cli.main(["train", str(config), "--out-dir", str(tmp_path / name[:-4])]) == 0
            report = (tmp_path / name[:-4] / "train_report.json").read_text(encoding="utf-8")
            reports.append(json.loads(report))
        assert reports[0]["final_test_accuracy"] == reports[1]["final_test_accuracy"]
        assert reports[0]["final_test_accuracy_hard"] == reports[1]["final_test_accuracy_hard"]
        # the check can tell: the flipped columns fed in their own order score otherwise
        model = load_checkpoint(tmp_path / "flipped" / "model_final.ckpt").model
        stats = json.loads((tmp_path / "flipped" / "norm_stats.json").read_text(encoding="utf-8"))
        mu, sigma = (np.array([stats[c][key] for c in "FEDCBA"]) for key in ("mu", "sigma"))
        misfed = float((predictions(model, (flipped.X - mu) / sigma) == test.y).mean())
        assert misfed != reports[1]["final_test_accuracy"]

    def test_train_with_a_test_csv_column_the_train_csv_lacks_exits_1(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 400, seed=3), rows)
        test = synth_generate(SynthBayesNet(), 300, seed=11)
        save_csv(Dataset(test.X, test.y, test.n_classes, list("ABCDEG")), tmp_path / "test.csv")
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("data = synth", f"data = csv\ntrain_csv = {rows}\ntest_csv = {tmp_path / 'test.csv'}"))
        run = tmp_path / "run"
        assert cli.main(["train", str(config), "--out-dir", str(run)]) == 1
        assert "columns ['G'] are not among the training run's ['A', 'B', 'C', 'D', 'E', 'F']" in capsys.readouterr().err
        assert not run.exists()

    def test_columns_without_norm_stats_exit_1(self, tmp_path, capsys):
        # a headed training CSV evaluated without its header: the columns become f0, f1, ...
        rows = tmp_path / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 400, seed=3), rows)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("data = synth", f"data = csv\ntrain_csv = {rows}"))
        run = tmp_path / "run"
        assert cli.main(["train", str(config), "--out-dir", str(run)]) == 0
        headless = tmp_path / "headless.csv"
        headless.write_text(rows.read_text().split("\n", 1)[1])
        argv = ["eval", str(run / "model_final.ckpt"), "--data", str(headless)]
        assert cli.main([*argv, "--no-header", "--label-column", "6"]) == 1
        assert "'f0'" in capsys.readouterr().err

    def test_header_narrower_than_rows_exits_1(self, tmp_path, capsys):
        # six features and a label in each row, under a header that names one feature
        rows = tmp_path / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 400, seed=3), rows)
        rows.write_text("A,label\n" + rows.read_text().split("\n", 1)[1])
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("data = synth", f"data = csv\ntrain_csv = {rows}"))
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
        assert "rows.csv: header has 2 fields, rows have 7" in capsys.readouterr().err
        assert not (tmp_path / "run" / "norm_stats.json").exists()

    def test_wrong_width_exits_1(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("f0,f1,label\n0,1,0\n1,0,1\n", encoding="utf-8")
        assert cli.main(["eval", str(ckpt), "--data", str(narrow)]) == 1
        assert "features" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, trained, tmp_path, capsys):
        _, data = trained
        assert cli.main(["eval", str(tmp_path / "absent.ckpt"), "--data", str(data)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("option", [["--threads", "2"], ["--hard-routing"]])
    def test_removed_option_exits_1(self, trained, option, capsys):
        ckpt, data = trained
        assert cli.main(["eval", str(ckpt), "--data", str(data), *option]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSynth:
    def test_writes_splits_and_oracle(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert cli.main(["synth", "--out-dir", str(out), "--n", "200", "--root-prob", "0.4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_train"] + report["n_test"] == 200
        assert report["root_prob"] == [0.4] * 6
        assert {p.name for p in out.iterdir()} == {"train.csv", "test.csv", "oracle.json"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--root-prob", "0.5,x"],  # not a number
            ["--root-prob", "0.5,0.5"],  # neither 1 nor 6 values
            ["--target-rule", "0.1,0.9"],
            ["--xor-fidelity", "1.5"],
            ["--n", "3"],  # too few rows to split
            ["--n", "many"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_argument_exits_1(self, tmp_path, argv, capsys):
        assert cli.main(["synth", "--out-dir", str(tmp_path), *argv]) == 1
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def _checkpoint(self, tmp_path, arch):
        model = Model(parse_arch(arch, d=6, seed=1))
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        return path

    def test_exports_routing(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path, "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2")
        out = tmp_path / "out"
        assert cli.main(["analyze", str(path), "--out-dir", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["k"], summary["m"], summary["d"]) == (4, 2, 6)
        assert {"selection_heatmap.csv", "group_graph.txt", "sparsity.json"} <= {
            p.name for p in out.iterdir()
        }

        def heatmap_names():
            rows = (out / "selection_heatmap.csv").read_text(encoding="utf-8").splitlines()[1:]
            return [row.split(",")[1] for row in rows]

        # without a dataset or stored names the heatmap names the columns f{j}; with a dataset, as its header does
        assert heatmap_names() == [f"f{j}" for j in range(6)]
        data = tmp_path / "rows.csv"
        save_csv(synth_generate(SynthBayesNet(), 200, seed=11), data)
        assert cli.main(["analyze", str(path), "--data", str(data), "--out-dir", str(out)]) == 0
        assert heatmap_names() == list("ABCDEF")

    def test_heatmap_names_are_the_training_runs(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        ds = synth_generate(SynthBayesNet(), 400, seed=3)
        save_csv(ds, rows)
        flipped = tmp_path / "flipped.csv"
        save_csv(Dataset(ds.X[:, ::-1], ds.y, ds.n_classes, ds.feature_names[::-1]), flipped)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("data = synth", f"data = csv\ntrain_csv = {rows}"))
        ckpt = tmp_path / "run" / "model_final.ckpt"
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 0
        heatmaps = []
        for data in ([], ["--data", str(rows)], ["--data", str(flipped)]):
            out = tmp_path / f"out{len(heatmaps)}"
            assert cli.main(["analyze", str(ckpt), *data, "--out-dir", str(out)]) == 0
            heatmaps.append((out / "selection_heatmap.csv").read_text(encoding="utf-8"))
        capsys.readouterr()
        # the stored names, in the net's input order, whichever order a dataset lists them in
        assert [row.split(",")[1] for row in heatmaps[0].splitlines()[1:]] == list("ABCDEF")
        assert heatmaps[0] == heatmaps[1] == heatmaps[2]

    def test_routing_is_the_reloaded_models_argmax(self, tmp_path, monkeypatch, capsys):
        # a psi row whose top two logits tie in float32: the checkpoint's float32
        # copy picks feature 0, the float64 model that was saved feature 1
        def fit_to_near_tie(model, *args, **kwargs):
            result = fit(model, *args, **kwargs)
            model.routing.psi.data[0] = [1.0, 1.0 + 1e-9, 0.0, 0.0, 0.0, 0.0]
            return result

        monkeypatch.setattr(cli, "fit", fit_to_near_tie)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG, encoding="utf-8")
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 0
        ckpt = tmp_path / "run" / "model_final.ckpt"
        capsys.readouterr()
        assert cli.main(["analyze", str(ckpt), "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        psi = load_checkpoint(ckpt).model.routing.psi.data
        assert summary["slot_to_feature"][0] == 0
        assert summary["slot_to_feature"] == psi.argmax(axis=1).tolist()

    def test_data_of_the_wrong_width_writes_no_files(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path, "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2")
        _yes_no_csv(tmp_path / "rows.csv", 50, 3, "yes")  # 3 features, the model reads 6
        out = tmp_path / "out"
        argv = ["analyze", str(path), "--data", str(tmp_path / "rows.csv"), "--out-dir", str(out)]
        assert cli.main(argv) == 1
        assert "dataset has 3 features but the model expects 6" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_checkpoint_exits_1(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path, "FC-4, ReLU, FC-2")
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert "group-connected" in capsys.readouterr().err

    def test_unknown_option_exits_1(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path, "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2")
        assert cli.main(["analyze", str(path), "--bogus"]) == 1
        capsys.readouterr()

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        path = self._checkpoint(tmp_path, "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2")
        path.write_bytes(path.read_bytes()[:-40])
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err


class TestComplexity:
    def test_reports_costs(self, capsys):
        assert cli.main(["complexity", "GSel-4-2, GFC, ReLU, Concat, FC-2", "-d", "6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["predict_ops"], report["param_count_actual"]) == (32, 90)
        assert report["predict_macs_actual"] == 4 * 2 * 2 + 8 * 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["GSel-4-2, Bogus, FC-2", "-d", "6"],  # unknown block
            ["GSel-3-2, GPool-max, Concat, FC-2", "-d", "6"],  # 3 groups do not pool in pairs
            ["GSel-4-2, GFC, Concat, FC-2"],  # no input width
            ["GSel-4-2, GFC, Concat, FC-2", "-d", "six"],
            ["FC-4, GFC, FC-2", "-d", "3"],  # a Group-FC in a dense net
            ["FC-4, ReLU, BNorm, FC-3, ReLU", "-d", "5"],  # a block after the output FC
            ["FC-0, ReLU, FC-2", "-d", "5"],  # a hidden layer of width 0
            ["GSel-4-2, GFC-32, Concat, FC-2", "-d", "6"],  # GFC takes no width
            ["GSel-4-2, GFC, Concat, FC-2", "-d", "6", "--branching", "4"],  # now a GPool-kind-b token
        ],
    )
    def test_bad_arch_or_argument_exits_1(self, argv, capsys):
        assert cli.main(["complexity", *argv]) == 1
        capsys.readouterr()
