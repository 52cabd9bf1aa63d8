"""Correctness checks, each computed apart from the code it checks.

Every check is a pure function from outputs to a :class:`Check`. ``run_all``
feeds each check the real outputs and then a deliberately corrupted copy
(perturbed logits, a flipped gradient sign, shuffled predictions); a check
that passes the corrupted copy could not catch that fault, and the run is
marked incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gmlp import tensor, training
from gmlp.tensor import Tensor
from workloads import synth_net

# Logits of the plain-numpy reference and of Model.forward must agree to this
# share of the logit scale: loose enough for a float32 compute path, whose
# error after four layers of 784-wide dot products is about 1e-5 of the scale.
REFERENCE_RTOL = 1e-3
# Checkpoints store float32 (relative rounding 2**-24, about 6e-8 per weight);
# through the network that stays below 1e-6 of the logit scale.
RELOAD_RTOL = 1e-5
# Central differences in float64 with step GRAD_STEP; a coordinate passes when
# |analytic - numeric| <= GRAD_RTOL * max(|analytic|, |numeric|) + GRAD_ATOL.
GRAD_STEP = 1e-6
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-6
GRAD_COORDS = 3  # sampled coordinates per parameter tensor
GRAD_BATCH = 16
BN_EPS = 1e-5  # the usual batch-norm epsilon, as the layer documents


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# the checks


def logits_close(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> Check:
    scale = 1.0 + float(np.abs(want).max())
    err = float(np.abs(got - want).max())
    return Check(name, err <= rtol * scale, f"max |diff| {err:.3g}, limit {rtol * scale:.3g}")


def gradients_close(name: str, analytic: np.ndarray, numeric: np.ndarray) -> Check:
    gap = np.abs(analytic - numeric)
    limit = GRAD_RTOL * np.maximum(np.abs(analytic), np.abs(numeric)) + GRAD_ATOL
    worst = float((gap / np.maximum(np.abs(numeric), GRAD_ATOL)).max())
    bad = int((gap > limit).sum())
    return Check(name, bad == 0, f"{bad}/{gap.size} coordinates off, worst rel err {worst:.3g}")


def accuracy_at_most(name: str, acc: float, ceiling: float) -> Check:
    return Check(name, acc <= ceiling, f"{acc:.4f} <= {ceiling:.4f}")


def accuracy_above(name: str, acc: float, floor: float) -> Check:
    return Check(name, acc > floor, f"{acc:.4f} > {floor:.4f}")


def accuracy_at_least(name: str, acc: float, floor: float) -> Check:
    return Check(name, acc >= floor, f"{acc:.4f} >= {floor:.4f}")


def same_predictions(name: str, a: np.ndarray, b: np.ndarray) -> Check:
    diff = int((a != b).sum())
    return Check(name, diff == 0, f"{diff} of {a.size} predictions differ")


# ---------------------------------------------------------------------------
# computations made apart from the program


def reference_logits(arch: str, arrays: dict, X: np.ndarray, tau: float, hard: bool) -> np.ndarray:
    """Eval-mode logits of an architecture string, in plain numpy.

    Parameter names follow the checkpoint manifest: ``gsel.psi`` and
    ``block{i}.<kind>.<array>`` with i counting the blocks after GSel.
    """
    tokens = [t.strip() for t in arch.split(",") if t.strip()]
    n = X.shape[0]
    h = X
    if tokens[0].lower().startswith("gsel"):
        _, k, m = tokens.pop(0).split("-")
        psi = arrays["gsel.psi"]
        if hard:
            h = X[:, psi.argmax(axis=1)]
        else:
            z = psi / tau
            e = np.exp(z - z.max(axis=1, keepdims=True))
            h = X @ (e / e.sum(axis=1, keepdims=True)).T
        h = h.reshape(n, int(k), int(m))
    for i, tok in enumerate(tokens):
        parts = tok.lower().split("-")
        p = f"block{i}"
        if parts[0] == "gfc":
            w, b = arrays[f"{p}.gfc.weights"], arrays[f"{p}.gfc.biases"]
            h = np.stack([h[:, g, :] @ w[g].T + b[g] for g in range(w.shape[0])], axis=1)
        elif parts[0] == "relu":
            h = np.maximum(h, 0.0)
        elif parts[0] == "bnorm":
            flat = h.reshape(n, -1)
            mean, var = arrays[f"{p}.bn.running_mean"], arrays[f"{p}.bn.running_var"]
            flat = (flat - mean) / np.sqrt(var + BN_EPS) * arrays[f"{p}.bn.gamma"] + arrays[f"{p}.bn.beta"]
            h = flat.reshape(h.shape)
        elif parts[0] == "gpool" and parts[1] == "max":
            b = int(parts[2]) if len(parts) > 2 else 2
            step = h.shape[1] // b  # output group i merges groups i, i + step, ...
            h = np.max([h[:, t * step : (t + 1) * step, :] for t in range(b)], axis=0)
        elif parts[0] == "concat":
            h = h.reshape(n, -1)
        elif parts[0] == "fc":
            h = h @ arrays[f"{p}.dense.w"] + arrays[f"{p}.dense.b"]
        elif parts[0] != "softmax":
            raise ValueError(f"reference forward has no rule for block {tok!r}")
    return h


def bayes_predict(net, X: np.ndarray) -> np.ndarray:
    """Bayes-optimal labels for 0/1 root rows, by enumerating the 64 root configurations.

    For each configuration, P(label=1 | roots) sums over the 8 hidden states
    the product of each hidden node's XOR fidelity, times the target rule.
    """
    p_one = np.zeros(64)
    for config in range(64):
        roots = [(config >> j) & 1 for j in range(6)]
        xors = [roots[a] ^ roots[b] for a, b in net.parent_pairs]
        for state in range(8):
            hidden = [(state >> j) & 1 for j in range(3)]
            p = 1.0
            for hv, xv in zip(hidden, xors):
                p *= net.xor_fidelity if hv == xv else 1.0 - net.xor_fidelity
            p_one[config] += p * net.target_rule[sum(hidden)]
    idx = X.astype(np.int64) @ (1 << np.arange(6))
    return (p_one[idx] > 0.5).astype(np.int64)


def nearest_mean_predict(train_X, train_y, n_classes, X) -> np.ndarray:
    means = np.stack([train_X[train_y == c].mean(axis=0) for c in range(n_classes)])
    dist = (means**2).sum(axis=1) - 2.0 * X @ means.T
    return dist.argmin(axis=1)


def gradient_pairs(net, X, y, cfg, rng):
    """Analytic gradients of the full objective (CE, entropy, L2) and central differences.

    Training-mode forward folds batch moments into the batch-norm running
    moments, so every evaluation restores them.
    """
    params = net.parameters()
    psi = net.routing.psi if net.routing is not None else None
    moments = [(a, a.copy()) for name, a in net.state_arrays() if ".running_" in name]

    def objective(tape):
        logits = net.forward(Tensor(X), training=True, tape=tape)
        total, _, _ = training.loss_terms(tape, logits, y, psi, params, cfg)
        for arr, saved in moments:
            arr[:] = saved
        return total

    for _, p in params:
        p.grad = None
    tape = tensor.Tape()
    total = objective(tape)
    tape.backward(total)
    analytic, numeric = [], []
    for _, p in params:
        for i in rng.choice(p.size, size=min(GRAD_COORDS, p.size), replace=False):
            orig = p.data.flat[i]
            p.data.flat[i] = orig + GRAD_STEP
            up = objective(None).item()
            p.data.flat[i] = orig - GRAD_STEP
            down = objective(None).item()
            p.data.flat[i] = orig
            analytic.append(p.grad.flat[i])
            numeric.append((up - down) / (2.0 * GRAD_STEP))
        p.grad = None
    return np.array(analytic), np.array(numeric)


# ---------------------------------------------------------------------------
# running every check on real and on corrupted outputs


def run_all(w, inputs, net, reloaded, hard_pred, relaxed_pred, seed: int) -> list[Check]:
    """Every check on the real outputs, then each again on a corrupted copy."""
    rng = np.random.default_rng((seed, 17))
    test = inputs.test
    rows = rng.choice(test.n, size=min(256, test.n), replace=False)
    Xs = test.X[rows]
    arrays = dict(reloaded.state_arrays())
    cases = []  # (check, its arguments, a corrupted value for its second argument)

    for mode, hard in (("hard", True), ("relaxed", False)):
        want = reference_logits(w.arch, arrays, Xs, reloaded.temperature, hard)
        got = reloaded.forward(Tensor(Xs), mode=mode).data
        mem = net.forward(Tensor(Xs), mode=mode).data
        bumped = got.copy()
        bumped[0, 0] += 10 * REFERENCE_RTOL * (1.0 + np.abs(want).max())
        cases.append((logits_close, (f"reference_forward_{mode}", got, want, REFERENCE_RTOL), bumped))
        bumped = got.copy()
        bumped[0, 0] += 10 * RELOAD_RTOL * (1.0 + np.abs(mem).max())
        cases.append((logits_close, (f"reload_{mode}", got, mem, RELOAD_RTOL), bumped))

    batch = rng.choice(inputs.train.n, size=GRAD_BATCH, replace=False)
    analytic, numeric = gradient_pairs(
        net, inputs.train.X[batch], inputs.train.y[batch], inputs.cfg, rng
    )
    cases.append((gradients_close, ("gradient_fd", analytic, numeric), -analytic))

    if w.bayes_margin is not None:
        # No classifier beats the Bayes rule, so accuracy above it means the
        # test labels leaked; the corrupted copy is the labels themselves. A
        # trained net must beat the constant majority-label predictor; the
        # corrupted copy is that predictor.
        bayes = float((bayes_predict(synth_net(), inputs.raw_test.X) == test.y).mean())
        majority = float((test.y == np.bincount(inputs.train.y).argmax()).mean())
        for mode, pred in (("hard", hard_pred), ("relaxed", relaxed_pred)):
            acc = float((pred == test.y).mean())
            cases.append((accuracy_at_most, (f"bayes_bound_{mode}", acc, bayes + w.bayes_margin), 1.0))
            cases.append((accuracy_above, (f"beats_majority_{mode}", acc, majority), majority))
    if w.ncm_margin is not None:
        ncm_pred = nearest_mean_predict(inputs.train.X, inputs.train.y, test.n_classes, test.X)
        floor = float((ncm_pred == test.y).mean()) - w.ncm_margin
        acc = float((relaxed_pred == test.y).mean())
        cases.append(
            (accuracy_at_least, ("nearest_mean_relaxed", acc, floor),
             float((rng.permutation(relaxed_pred) == test.y).mean()))
        )
    if net.routing is None:
        flipped = hard_pred.copy()
        flipped[0] = (flipped[0] + 1) % test.n_classes
        cases.append((same_predictions, ("dense_hard_equals_relaxed", relaxed_pred, hard_pred), flipped))

    results = []
    for fn, args, corrupted in cases:
        real = fn(*args)
        fake = fn(args[0], corrupted, *args[2:])
        results.append(real)
        results.append(
            Check(f"{real.name}_catches_corruption", not fake.ok, f"on corrupted output: {fake.detail}")
        )
    return results

