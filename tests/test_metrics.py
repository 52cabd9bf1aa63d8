import csv
import math

from gmlp.metrics import METRIC_COLUMNS, MetricsWriter, read_metrics
from gmlp.training import EpochRecord


def _record(epoch):
    return EpochRecord(
        epoch=epoch,
        train_loss=0.1 + 1 / 3 + epoch,
        ce_loss=2.0**-40,
        entropy_term=1e-300 * (epoch + 1),
        val_accuracy=0.7 + epoch / 7,
        val_accuracy_hard=0.6 + epoch / 9,
        test_accuracy=math.nan,
        lr=1e-2 / 5**epoch,
        tau=0.01 ** (epoch / 3),
        sparsity_fraction=0.0,
        wall_time=123.456789 + epoch,
    )


class TestRoundTrip:
    def test_floats_survive_exactly(self, tmp_path):
        records = [_record(e) for e in range(4)]
        with MetricsWriter(tmp_path / "metrics.csv", tmp_path / "timing.csv") as writer:
            for r in records:
                writer.write(r)
        rows = read_metrics(tmp_path / "metrics.csv")
        assert [row["epoch"] for row in rows] == [0, 1, 2, 3]
        for row, r in zip(rows, records):
            assert math.isnan(row.pop("test_accuracy"))
            for col, value in row.items():
                assert value == getattr(r, col), col

    def test_header_and_timing_split(self, tmp_path):
        with MetricsWriter(tmp_path / "metrics.csv", tmp_path / "timing.csv") as writer:
            writer.write(_record(0))
        with open(tmp_path / "metrics.csv", newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))
        assert header == METRIC_COLUMNS and len(row) == len(METRIC_COLUMNS)
        assert "wall_time" not in header and "123.4" not in ",".join(row)
        assert (tmp_path / "timing.csv").read_text(encoding="utf-8").splitlines() == [
            "epoch,wall_time",
            "0,123.457",
        ]
