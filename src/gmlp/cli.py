"""Command-line surface: train, eval, synth, analyze, complexity.

Exit codes: 0 success, 1 usage or configuration problem, 2 runtime failure
(diverged training, corrupt checkpoint, I/O trouble). All commands are
deterministic under a fixed config, seed and BLAS thread count
(``OPENBLAS_NUM_THREADS``): at another thread count BLAS may sum a product
in another order, so a wide net's fitted parameters, and the metrics and
checkpoints that come from them, can differ in the last bits. Wall-clock
timings are kept out of the deterministic artifacts.

``GMLP_OUT_DIR`` provides the default output directory when a config or
command line does not name one.

``train``'s ``test_csv`` and the ``--data`` of ``eval`` and ``analyze`` enter
a trained run's frame one way (``data.to_run_frame``): columns by name, labels
by text, and a run trained on integer labels has the classes '0'..'C-1'. A
column or label the run lacks, or a run column the file lacks, exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis
from .checkpoint import load_checkpoint, save_checkpoint, save_model
from .config import RunConfig, load_config, resolve_out_dir
from .data import (
    Dataset,
    SynthBayesNet,
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
from .errors import ConfigError, DataError, GmlpError, TrainingDiverged
from .metrics import MetricsWriter
from .model import Model, count_complexity, parse_arch
from .training import accuracy, fit, predictions
from .analysis import sparsity_report
from .layers import hard_assignment


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers, as an argparse type."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# data assembly for train


def _label_column(label: str) -> str | int:
    """A label column given as a digit string is an index, anything else a header name."""
    return int(label) if label.lstrip("-").isdigit() else label


def _load_run_data(cfg: RunConfig):
    seed = cfg.train.seed
    if cfg.data == "synth":
        full = synth_generate(SynthBayesNet(), cfg.synth_n, seed=cfg.synth_seed)
        train, test = split(full, cfg.test_fraction, seed=cfg.synth_seed)
    elif cfg.data == "halfnoise":
        full = halfnoise_generate(
            cfg.halfnoise_n,
            cfg.halfnoise_signal,
            cfg.halfnoise_noise,
            cfg.halfnoise_classes,
            seed=cfg.halfnoise_seed,
        )
        train, test = split(full, cfg.test_fraction, seed=cfg.halfnoise_seed)
    else:
        label = _label_column(cfg.label_column)
        train = load_csv(cfg.train_csv, label_column=label, has_header=cfg.has_header)
        if cfg.test_csv:
            test = load_csv(cfg.test_csv, label_column=label, has_header=cfg.has_header)
            test = to_run_frame(test, train.feature_names, label_names(train.n_classes, train.class_names))
        else:
            train, test = split(train, cfg.test_fraction, seed=seed)
    if cfg.val_fraction > 0:
        train, val = split(train, cfg.val_fraction, seed=seed)
    else:
        val = train
    return train, val, test


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = resolve_out_dir(args.out_dir or cfg.out_dir)

    train, val, test = _load_run_data(cfg)
    (train_n, val_n, test_n), stats = normalize(train, val, test)
    spec = parse_arch(cfg.arch, d=train_n.d, seed=cfg.train.seed)
    if spec.n_classes != train_n.n_classes:
        raise ConfigError(
            f"arch outputs {spec.n_classes} classes but data has {train_n.n_classes}"
        )
    model = Model(spec)
    # written only once the run's inputs have passed every check, so a run
    # that exits on its config or data leaves no files behind
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "norm_stats.json"), stats)
    metadata = {
        "config": cfg.to_dict(),
        "norm_stats": stats,
        "feature_names": list(stats),  # the net's input order; the file sorts norm_stats' keys
        "n_train": train_n.n,
        "n_val": val_n.n if cfg.val_fraction > 0 else 0,
        "n_test": test_n.n,
        "class_names": train_n.class_names,
    }

    with MetricsWriter(
        os.path.join(out_dir, "metrics.csv"), os.path.join(out_dir, "timing.csv")
    ) as writer:
        result = fit(model, train_n, val_n, cfg.train, test=test_n, on_epoch=writer.write)

    save_model(
        os.path.join(out_dir, "model_final.ckpt"),
        model,
        metadata={**metadata, "checkpoint": "final", "epochs_run": len(result.records)},
    )
    if result.best_state is not None:
        save_checkpoint(
            os.path.join(out_dir, "model_best.ckpt"),
            spec,
            result.best_state,
            result.records[result.best_epoch].tau,
            metadata={
                **metadata,
                "checkpoint": "best_validation",
                "best_epoch": result.best_epoch,
            },
        )

    report = {
        "epochs_run": len(result.records),
        "best_epoch": result.best_epoch,
        "best_val_accuracy": result.best_val_accuracy,
        "final_val_accuracy": result.records[-1].val_accuracy if result.records else None,
        "final_test_accuracy": accuracy(model, test_n),
        "final_test_accuracy_hard": accuracy(model, test_n, hard=True),
        "final_tau": result.final_tau,
        "final_sparsity": sparsity_report(model.routing) if model.routing else None,
    }
    _write_json(os.path.join(out_dir, "train_report.json"), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# eval


def _load_eval_dataset(args, loaded) -> Dataset:
    """The CSV rows in the run's frame (``data.to_run_frame``), standardized with its norm stats, as far as the checkpoint has them.

    A checkpoint without feature names takes the file's columns in its own
    order; one without class names has integer classes '0'..'C-1'.
    """
    label = _label_column(args.label_column)
    ds = load_csv(args.data, label_column=label, has_header=not args.no_header)
    spec = loaded.model.spec
    if ds.d != spec.d:
        raise DataError(f"dataset has {ds.d} features but the model expects {spec.d}")
    metadata = loaded.manifest.get("metadata", {})
    order = metadata.get("feature_names") or ds.feature_names
    ds = to_run_frame(ds, order, label_names(spec.n_classes, metadata.get("class_names")))
    stats = metadata.get("norm_stats")
    if not stats:
        return ds
    unknown = [name for name in order if name not in stats]
    if unknown:
        raise DataError(f"columns {unknown} have no norm stats in the checkpoint's training run")
    mu = np.array([stats[name]["mu"] for name in order], dtype=np.float64)
    sigma = np.array([stats[name]["sigma"] for name in order], dtype=np.float64)
    return standardize(ds, mu, sigma)


def cmd_eval(args) -> int:
    loaded = load_checkpoint(args.checkpoint)
    ds = _load_eval_dataset(args, loaded)
    model = loaded.model

    pred = predictions(model, ds.X)
    report = {
        "checkpoint": str(args.checkpoint),
        "n_samples": ds.n,
        "accuracy": float((pred == ds.y).mean()),
        "hard_routing_accuracy": float((predictions(model, ds.X, hard=True) == ds.y).mean()),
        "per_class_accuracy": {
            ds.class_names[c]: float((pred[ds.y == c] == c).mean())
            for c in range(ds.n_classes)
            if (ds.y == c).any()
        },
        "temperature": model.temperature,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, report)
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out_dir = resolve_out_dir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    given = {"root_prob": args.root_prob, "xor_fidelity": args.xor_fidelity, "target_rule": args.target_rule}
    net = SynthBayesNet(**{key: value for key, value in given.items() if value is not None})
    full = synth_generate(net, args.n, seed=args.seed)
    train, test = split(full, args.test_fraction, seed=args.seed)
    save_csv(train, os.path.join(out_dir, "train.csv"))
    save_csv(test, os.path.join(out_dir, "test.csv"))
    oracle = synth_bayes_optimal(net)
    report = {
        "optimal_accuracy": oracle.optimal_accuracy,
        "label_marginal": oracle.label_marginal,
        "n_train": train.n,
        "n_test": test.n,
        "seed": args.seed,
        "xor_fidelity": net.xor_fidelity,
        "root_prob": [float(v) for v in net.root_prob],
        "target_rule": [float(v) for v in net.target_rule],
    }
    _write_json(os.path.join(out_dir, "oracle.json"), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    loaded = load_checkpoint(args.checkpoint)
    model, routing = loaded.model, loaded.model.routing
    if routing is None:
        raise ConfigError("analysis needs a group-connected model")
    # the dataset is checked before the out dir is made, so a failed check writes no files
    ds = report = None
    if args.data:
        ds = _load_eval_dataset(args, loaded)
        report = analysis.correlation_analysis(model, ds)
    else:
        print("note: no dataset supplied; correlation analysis skipped", file=sys.stderr)
    out_dir = resolve_out_dir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    counts = analysis.selection_heatmap(routing)
    # the training run's names in the net's input order (a dataset is put in that order); else f{j}
    names = ds.feature_names if ds is not None else loaded.manifest.get("metadata", {}).get("feature_names")
    analysis.save_heatmap_csv(counts, os.path.join(out_dir, "selection_heatmap.csv"), names)
    graph = analysis.group_graph(routing)
    analysis.save_edge_list(graph, os.path.join(out_dir, "group_graph.txt"))
    summary = {
        "sparsity_fraction": sparsity_report(routing),
        "temperature": model.temperature,
        "k": routing.k,
        "m": routing.m,
        "d": routing.d,
        "slot_to_feature": [int(v) for v in hard_assignment(routing)],
        "total_edge_weight": graph.total_weight,
    }
    if report is not None:
        analysis.save_histogram_csv(report, os.path.join(out_dir, "correlation_histograms.csv"))
        np.savetxt(
            os.path.join(out_dir, "correlation_matrix.csv"), report.corr, delimiter=","
        )
        summary["zero_variance_slots"] = report.zero_variance_slots
    _write_json(os.path.join(out_dir, "sparsity.json"), summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# complexity


def cmd_complexity(args) -> int:
    spec = parse_arch(args.arch, d=args.input_features)
    report = count_complexity(spec).to_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gmlp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("config")
    p.add_argument("--out-dir", default="", help="override the config's output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("checkpoint")
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--label-column", default="label")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--out", default="", help="write the report JSON here too")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate the synthetic dataset and its oracle report")
    p.add_argument("--out-dir", default="")
    p.add_argument("--n", type=int, default=6400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--root-prob", type=_float_list, default=None,
                   help="scalar or 6 comma-separated values")
    p.add_argument("--xor-fidelity", type=float, default=None)
    p.add_argument("--target-rule", type=_float_list, default=None,
                   help="4 comma-separated P(1|count) values")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="export routing analyses for a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--data", default="", help="CSV dataset for correlation analysis")
    p.add_argument("--label-column", default="label")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--out-dir", default="")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("complexity", help="closed-form cost figures for an architecture")
    p.add_argument("arch")
    p.add_argument("--input-features", "-d", type=int, required=True)
    p.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GmlpError, OSError) as exc:  # a corrupt checkpoint among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
