#!/usr/bin/env python3
"""GMLP train and predict benchmark.

Run from the root of a checkout:

    python3 gmlpbench/run.py --workload wide-784 --seed 1 --seconds 20 --trace 0

It drives the library the way `gmlp train` and `gmlp eval` do: set-up
(generate, split, normalize, build), `fit`, `save_model`, `load_checkpoint`,
then `predictions` on the held-out rows in hard and relaxed mode. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Details go to ``gmlpbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The first set-up runs at least SETUP_REPEATS times and for SETUP_SECONDS,
# so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.0
# After the first `fit`, the run goes in cycles: prediction rounds for as long
# as the last `fit` took, set-ups for SETUP_SHARE of that cycle, then another
# `fit`. Cycles stop at the cycle boundary where train and predict time come
# closest to --seconds. So every metric samples the whole run, not one part
# of it, and the machine's drift from second to second weighs on all of them
# alike.
SETUP_SHARE = 0.05
MIN_PREDICT_ROUNDS = 3

LAYERS = ("gsel", "gfc", "pool", "batchnorm", "dense", "relu", "concat")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench(w, seed: int, seconds: float, tracer):
    """Set up, train and predict; return (metrics, checks, attempted, counts, detail)."""
    from gmlp import checkpoint, model, training

    import checks
    import workloads

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    setup_s = []

    def set_up(min_repeats, budget):
        """Time set-ups; return the inputs of the last one."""
        phase("setup")
        spent, inputs = 0.0, None
        while inputs is None or len(setup_s) < min_repeats or spent < budget:
            inputs = None  # so the previous set-up is freed, not counted in peak memory
            t0 = time.perf_counter()
            inputs = workloads.setup(w, seed)
            setup_s.append(time.perf_counter() - t0)
            spent += setup_s[-1]
        return inputs

    # throughput is work done over the time it took: rows stepped over the
    # wall time of every `fit` (per-epoch evaluation included)
    fit_s = []

    def fit_round(net):
        phase("train")
        t0 = time.perf_counter()
        training.fit(net, inputs.train, inputs.val, inputs.cfg)
        fit_s.append(time.perf_counter() - t0)

    inputs = set_up(SETUP_REPEATS, SETUP_SECONDS)
    trained = inputs.model
    fit_round(trained)
    rows_per_fit = workloads.rows_per_epoch(inputs) * inputs.cfg.epochs

    phase("other")
    OUT_DIR.mkdir(exist_ok=True)
    ckpt = OUT_DIR / f"model-{w.name}-{seed}-{os.getpid()}.ckpt"
    try:
        checkpoint.save_model(ckpt, trained)
        reloaded = checkpoint.load_checkpoint(ckpt).model
    finally:
        ckpt.unlink(missing_ok=True)

    X = inputs.test.X
    # an untimed warm-up pair, whose labels every timed round must repeat
    hard_pred = training.predictions(reloaded, X, hard=True)
    relaxed_pred = training.predictions(reloaded, X, hard=False)
    hard_s, relaxed_s = [], []
    repeat_ok = True
    while True:
        phase("predict")
        spent = 0.0
        while spent < fit_s[-1] or len(hard_s) < MIN_PREDICT_ROUNDS:
            t0 = time.perf_counter()
            hp = training.predictions(reloaded, X, hard=True)
            t1 = time.perf_counter()
            rp = training.predictions(reloaded, X, hard=False)
            t2 = time.perf_counter()
            hard_s.append(t1 - t0)
            relaxed_s.append(t2 - t1)
            spent += t2 - t0
            repeat_ok &= bool((hp == hard_pred).all() and (rp == relaxed_pred).all())
        cycle = fit_s[-1] + spent
        set_up(0, SETUP_SHARE * cycle)
        # stop where the run comes closest to --seconds
        if sum(fit_s) + sum(hard_s) + sum(relaxed_s) + cycle / 2 >= seconds:
            break
        phase("rebuild")
        net = None  # freed first, so peak memory does not depend on the round count
        net = model.Model(inputs.spec)  # the same seed gives the same initial weights
        fit_round(net)
    net = None
    attempted = len(fit_s) + 2 * (len(hard_s) + 1)  # the warm-up pair included
    phase("check")

    results = checks.run_all(w, inputs, trained, reloaded, hard_pred, relaxed_pred, seed)
    results.append(checks.Check("repeated_predictions_identical", repeat_ok, f"{len(hard_s)} rounds"))

    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_rows_per_s": (len(fit_s) * rows_per_fit / sum(fit_s), "rows/s"),
        "predict_hard_rows_per_s": (len(hard_s) * len(X) / sum(hard_s), "rows/s"),
        "predict_relaxed_rows_per_s": (len(relaxed_s) * len(X) / sum(relaxed_s), "rows/s"),
        "test_accuracy_hard": (float((hard_pred == inputs.test.y).mean()), "fraction"),
        "test_accuracy_relaxed": (float((relaxed_pred == inputs.test.y).mean()), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    counts = {
        "setup_rounds": len(setup_s),
        "fit_rounds": len(fit_s),
        "epochs": len(fit_s) * inputs.cfg.epochs,
        "train_steps": len(fit_s) * rows_per_fit // inputs.cfg.batch_size,
        "predict_rows": 2 * len(hard_s) * len(X),
    }
    detail = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "predict_hard_s": hard_s,
        "predict_relaxed_s": relaxed_s,
        "n_train": inputs.train.n,
        "n_test": len(X),
        "params": inputs.model.param_count(),
        "predict_ops_per_row": model.count_complexity(inputs.spec).predict_ops,
    }
    return metrics, results, attempted, counts, detail


def layer_metrics(tracer, counts) -> dict:
    """Per-layer figures from the traced run; 0 where the layer does not run."""
    steps = counts["train_steps"]
    epochs = counts["epochs"]
    per_krow = counts["predict_rows"] / 1000.0
    setups = counts["setup_rounds"]
    self_s, incl_s = tracer.self_s, tracer.inclusive_s
    ms = 1e3
    out = {}
    for name in LAYERS:
        label = f"layers.{name}"
        out[f"{label}.fwd_ms"] = self_s(label, "train") / steps * ms
        out[f"{label}.bwd_ms"] = self_s("bwd:" + label, "train") / steps * ms
        out[f"{label}.predict_ms"] = self_s(label, "predict") / per_krow * ms
    for term in ("ce", "entropy", "l2"):
        label = f"training.loss_{term}"
        out[f"{label}_ms"] = (self_s(label, "train") + self_s("bwd:" + label, "train")) / steps * ms
    out["training.adam_ms"] = self_s("training.adam", "train") / steps * ms
    out["training.eval_ms"] = incl_s("training.eval", "train") / epochs * ms
    out["tensor.backward_ms"] = incl_s("tensor.backward", "train") / steps * ms
    out["tensor.tape_nodes"] = tracer.tape_nodes["train"] / steps
    out["model.forward_ms"] = self_s("model.forward", "train") / steps * ms
    out["model.build_ms"] = incl_s("model.build", "setup") / setups * ms
    for name in ("generate", "split", "normalize"):
        out[f"data.{name}_ms"] = incl_s(f"data.{name}", "setup") / setups * ms
    out["data.batches_ms"] = self_s("data.batches", "train") / epochs * ms
    return {k: (v, "count" if k == "tensor.tape_nodes" else "ms") for k, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gmlp" / "__init__.py").is_file():
        print(f"error: no gmlp sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # BLAS reads these when numpy loads: one thread per core this process may use
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    import gmlp

    if Path(gmlp.__file__).resolve().parent != SRC / "gmlp":
        print(f"error: imported gmlp from {gmlp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    w = workloads.WORKLOADS[args.workload]
    metrics, results, attempted, counts, detail = bench(w, args.seed, args.seconds, tracer)
    if tracer is not None:
        traced_e2e = metrics
        metrics = layer_metrics(tracer, counts)

    for c in results:
        print(f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}", file=sys.stderr)
    correct = all(c.ok for c in results)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": int(threads),
        "result": line,
        "checks": [vars(c) for c in results],
        "counts": counts,
        "detail": detail,
    }
    if tracer is not None:
        report["traced_end_to_end"] = {k: v for k, (v, _) in traced_e2e.items()}
        report["spans"] = [
            {"label": label, "phase": ph, "self_s": s, "inclusive_s": inc, "calls": n}
            for (label, ph), (s, inc, n) in sorted(tracer.totals.items())
        ]
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{'trace' if args.trace else 'result'}-{w.name}-seed{args.seed}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
