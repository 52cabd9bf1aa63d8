from gmlp import cli

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
