"""Per-epoch metrics as an append-only CSV, one row per epoch.

The metrics file holds only run-deterministic columns, so two runs with the
same config and seed produce byte-identical files; wall-clock timings go to a
separate ``timing.csv`` next to it. Rows are flushed as they are written,
leaving a parseable file after an interrupted run.
"""

from __future__ import annotations

import csv
from dataclasses import fields

from .training import EpochRecord

# EpochRecord's fields in order, without the wall-clock time that timing.csv holds
METRIC_COLUMNS = [f.name for f in fields(EpochRecord) if f.name != "wall_time"]


class MetricsWriter:
    """Streams epoch records to ``metrics.csv`` and ``timing.csv``."""

    def __init__(self, metrics_path, timing_path):
        self._fh = open(metrics_path, "w", newline="", encoding="utf-8")
        self._timing_fh = open(timing_path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh)
        self._timing = csv.writer(self._timing_fh)
        self._writer.writerow(METRIC_COLUMNS)
        self._timing.writerow(["epoch", "wall_time"])
        self._fh.flush()
        self._timing_fh.flush()

    def write(self, record: EpochRecord) -> None:
        self._writer.writerow(
            [record.epoch]
            + [repr(float(getattr(record, col))) for col in METRIC_COLUMNS[1:]]
        )
        self._timing.writerow([record.epoch, f"{record.wall_time:.3f}"])
        self._fh.flush()
        self._timing_fh.flush()

    def close(self) -> None:
        self._fh.close()
        self._timing_fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_metrics(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        rec = {"epoch": int(row["epoch"])}
        for col in METRIC_COLUMNS[1:]:
            rec[col] = float(row[col])
        out.append(rec)
    return out
