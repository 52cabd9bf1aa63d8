import json

import pytest

from gmlp import cli
from gmlp.data import SynthBayesNet, save_csv, synth_generate

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
        assert cli.main(["eval", str(ckpt), "--data", str(data), "--hard-routing"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_samples"] == 300
        for key in ("accuracy", "hard_routing_accuracy"):
            assert 0.0 <= report[key] <= 1.0, key
        assert set(report["per_class_accuracy"]) <= {"0", "1"}

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

    def test_threads_option_is_gone(self, trained, capsys):
        ckpt, data = trained
        assert cli.main(["eval", str(ckpt), "--data", str(data), "--threads", "2"]) == 1
        capsys.readouterr()
