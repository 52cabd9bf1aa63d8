"""Random hyperparameter search for the synthetic-task training recipe.

Samples training configs, trains the standard 4-group architecture on a few
seeds each, and scores (clean pair recovery, hard-routing accuracy). Top
configs get re-run on more seeds. Results stream to stdout as TSV.
"""

import argparse
import sys

import numpy as np

from gmlp.data import SynthBayesNet, normalize, split, synth_generate
from gmlp.model import Model, parse_arch
from gmlp.training import TrainConfig, accuracy, fit

PAIRS = [{0, 1}, {2, 3}, {4, 5}]
ARCH = "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2"


def make_data():
    net = SynthBayesNet()
    full = synth_generate(net, 6400, seed=0)
    train_full, test = split(full, 0.2, seed=0)
    train, val = split(train_full, 0.1, seed=1)
    (train_n, val_n, test_n), _ = normalize(train, val, test)
    return train_n, val_n, test_n


def evaluate_config(data, cfg_kw, seeds):
    train_n, val_n, test_n = data
    rel, hard, best_t, clean, spars = [], [], [], 0, []
    for seed in seeds:
        model = Model(parse_arch(ARCH, d=6, seed=seed))
        cfg = TrainConfig(seed=seed, **cfg_kw)
        res = fit(model, train_n, val_n, cfg, test=test_n)
        rel.append(accuracy(model, test_n))
        hard.append(accuracy(model, test_n, hard=True))
        best_t.append(res.records[res.best_epoch].test_accuracy)
        a = model.routing.psi.data.argmax(1).reshape(4, 2)
        clean += all(set(r) in PAIRS for r in a.tolist())
        spars.append(res.records[-1].sparsity_fraction)
    return {
        "rel": float(np.mean(rel)),
        "hard": float(np.mean(hard)),
        "best": float(np.mean(best_t)),
        "clean": clean,
        "spars": float(np.mean(spars)),
    }


def sample_config(rng):
    return dict(
        epochs=int(rng.choice([100, 150, 200, 300])),
        batch_size=int(rng.choice([32, 64, 128, 256])),
        lambda_=float(np.exp(rng.uniform(np.log(0.1), np.log(30.0)))),
        alpha=float(np.exp(rng.uniform(np.log(1e-6), np.log(3e-2)))),
        lr0=float(np.exp(rng.uniform(np.log(3e-4), np.log(1e-2)))),
        plateau_patience=int(rng.choice([10, 20, 40, 75, 150])),
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=60)
    ap.add_argument("--seeds", type=int, default=4)
    ap.add_argument("--rng", type=int, default=0)
    args = ap.parse_args()

    data = make_data()
    rng = np.random.default_rng(args.rng)
    print("clean\thard\trel\tbest\tspars\tconfig", flush=True)
    for trial in range(args.trials):
        kw = sample_config(rng)
        r = evaluate_config(data, kw, range(args.seeds))
        print(
            f"{r['clean']}/{args.seeds}\t{r['hard']:.3f}\t{r['rel']:.3f}\t{r['best']:.3f}"
            f"\t{r['spars']:.2f}\t{kw}",
            flush=True,
        )


if __name__ == "__main__":
    sys.exit(main())
