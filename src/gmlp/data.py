"""Dataset ingestion, normalization, splitting, batching, and the synthetic
generators used by the desk-scale experiments.

The synthetic classification task is sampled from a small fixed-topology
Bayesian network: six binary root features, three hidden nodes that each copy
the XOR of their two parent roots with a configurable fidelity, and a binary
target drawn from a probability table indexed by how many hidden nodes are
active. Because the network is tiny, the Bayes-optimal classifier and its
accuracy are computable by exact enumeration; that number anchors the
training experiments.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError

DEFAULT_ROOT_NAMES = ("A", "B", "C", "D", "E", "F")
STANDARDIZE_BLOCK = 1 << 17  # values per block of ``standardize``: 1 MiB of float64


@dataclass
class Dataset:
    """A feature matrix with integer class labels.

    ``class_names`` holds the label of each class index, for a CSV whose
    labels are not integers; integer labels are their own class indices.
    ``X`` is float32, the dtype prediction computes in (``model.EVAL_DTYPE``);
    a finite value beyond its range raises ``DomainError``.
    """

    X: np.ndarray  # (N, d) float32
    y: np.ndarray  # (N,) int64
    n_classes: int
    feature_names: list[str] | None = None
    class_names: list[str] | None = None

    def __post_init__(self):
        given = self.X
        with np.errstate(over="ignore"):  # reported below, whatever the caller's error state
            self.X = np.ascontiguousarray(given, dtype=np.float32)
        self.y = np.ascontiguousarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] == 0:
            raise DataError(f"need a non-empty (N, d) matrix, got {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise DataError(f"labels {self.y.shape} do not match {self.X.shape[0]} rows")
        if not np.all(np.isfinite(self.X)):
            if np.all(np.isfinite(given)):
                raise DomainError("features hold a value beyond the float32 range")
            raise DataError("features hold non-finite values")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise DataError(f"labels outside [0, {self.n_classes})")
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise DataError(f"{len(self.feature_names)} feature names for {self.X.shape[1]} columns")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise DataError(f"{len(self.class_names)} class names for {self.n_classes} classes")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.X[idx], self.y[idx], self.n_classes, self.feature_names, self.class_names
        )


# ---------------------------------------------------------------------------
# CSV ingestion / export


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Read a comma-separated dataset with one label column.

    ``label_column`` is a header name (requires ``has_header``) or a 0-based
    column index. Integer-valued labels are used as class indices directly;
    anything else is mapped to indices in sorted order, so two files with
    the same label set map them alike, and kept as the dataset's
    ``class_names``; ``to_run_frame`` maps either kind by its text. A header
    that names one feature twice raises ``DataError``: normalization
    statistics are keyed by name.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = None
    if has_header:
        header, rows = rows[0], rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows after header")
    if isinstance(label_column, str):
        if header is None:
            raise DataError("label column by name requires a header row")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(f"label column {label_column!r} not in header {header}") from None
    else:
        label_idx = int(label_column)

    width = len(rows[0])
    if header is not None and len(header) != width:
        raise DataError(f"{path}: header has {len(header)} fields, rows have {width}")
    if not -width <= label_idx < width:
        raise DataError(f"label column index {label_idx} out of range for {width} columns")
    label_idx %= width
    if header is not None:
        names = [h for j, h in enumerate(header) if j != label_idx]
        repeated = sorted(name for name, count in Counter(names).items() if count > 1)
        if repeated:
            raise DataError(f"{path}: feature names {repeated} appear more than once")
    else:
        names = [f"f{j}" for j in range(width - 1)]

    feats, raw_labels = [], []
    for lineno, row in enumerate(rows, start=2 if has_header else 1):
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        raw_labels.append(row[label_idx].strip())
        try:
            feats.append([float(v) for j, v in enumerate(row) if j != label_idx])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric feature: {exc}") from None

    class_names = None
    try:
        ints = [int(v) for v in raw_labels]
        if min(ints) < 0:
            raise ValueError
        y = np.array(ints, dtype=np.int64)
        n_classes = int(y.max()) + 1
    except ValueError:
        class_names = sorted(set(raw_labels))
        index = {v: i for i, v in enumerate(class_names)}
        y = np.array([index[v] for v in raw_labels], dtype=np.int64)
        n_classes = len(class_names)

    return Dataset(np.array(feats), y, n_classes, names, class_names)


def label_names(n_classes: int, class_names: list[str] | None) -> list[str]:
    """The text of each class index's label: ``class_names``, or '0'..'C-1' for integer labels."""
    return list(class_names) if class_names is not None else [str(c) for c in range(n_classes)]


def to_run_frame(ds: Dataset, feature_names: list[str], class_names: list[str]) -> Dataset:
    """``ds`` in a training run's frame: columns reordered by name into ``feature_names``, the
    run's input order, and labels mapped by text (``label_names``) to their index in ``class_names``.

    A column the run lacks, a run column ``ds`` lacks, or a label some row holds and the run
    lacks raises ``DataError``. An integer below the file's largest label that no row holds
    maps to -1, which no row reads.
    """
    names = ds.feature_names
    unknown = sorted(set(names) - set(feature_names))
    if unknown:
        raise DataError(f"columns {unknown} are not among the training run's {list(feature_names)}")
    missing = sorted(set(feature_names) - set(names))
    if missing:
        raise DataError(f"the training run's columns {missing} are missing")
    texts = label_names(ds.n_classes, ds.class_names)
    unseen = sorted({texts[c] for c in np.unique(ds.y)} - set(class_names))
    if unseen:
        raise DataError(f"labels {unseen} are not among the training run's {list(class_names)}")
    index = {name: i for i, name in enumerate(class_names)}
    lookup = np.array([index.get(text, -1) for text in texts], dtype=np.int64)
    column = {name: j for j, name in enumerate(names)}
    X = ds.X[:, [column[name] for name in feature_names]]
    return Dataset(X, lookup[ds.y], len(class_names), list(feature_names), list(class_names))


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset back out with a header, its last column the ``label``."""
    names = ds.feature_names or [f"f{j}" for j in range(ds.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for row, label in zip(ds.X, ds.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


# ---------------------------------------------------------------------------
# normalization, splitting, batching


def normalize(train: Dataset, *others: Dataset):
    """Standardize every feature to mean 0, std 1 using train-split statistics.

    The same (mu, sigma), float64 moments of ``train``'s rows, is applied to
    every other split. Sigma uses the population convention (divide by N);
    constant columns map to all zeros. Returns the normalized datasets in
    input order plus a ``{feature_name: {"mu": .., "sigma": ..}}`` stats mapping.
    """
    mu = train.X.mean(axis=0, dtype=np.float64)
    sigma = train.X.std(axis=0, dtype=np.float64)
    names = train.feature_names or [f"f{j}" for j in range(train.d)]
    stats = {name: {"mu": float(m), "sigma": float(s)} for name, m, s in zip(names, mu, sigma)}
    return [standardize(ds, mu, sigma) for ds in (train, *others)], stats


def standardize(ds: Dataset, mu: np.ndarray, sigma: np.ndarray) -> Dataset:
    """``ds`` with column j mapped to (x - mu[j]) / sigma[j], or to zeros where sigma[j] is 0:
    in float64 for float64 ``mu`` and ``sigma``, in blocks of ``STANDARDIZE_BLOCK``, rounded once to float32."""
    safe = np.where(sigma == 0.0, 1.0, sigma)
    xn = np.empty(ds.X.shape, np.float32)
    rows = max(1, STANDARDIZE_BLOCK // ds.d)
    for lo in range(0, ds.n, rows):
        block = ds.X[lo : lo + rows] - mu
        block /= safe  # in place: no second block-size array
        with np.errstate(over="ignore"):  # reported below, whatever the caller's error state
            xn[lo : lo + rows] = block
        if not np.isfinite(xn[lo : lo + rows]).all() and np.isfinite(block).all():
            raise DomainError("standardized features hold a value beyond the float32 range")
    xn[:, sigma == 0.0] = 0.0
    return Dataset(xn, ds.y, ds.n_classes, ds.feature_names, ds.class_names)


def split(ds: Dataset, test_fraction: float = 0.2, seed: int = 0):
    """Seeded stratified partition into (train, test).

    Per-class shuffles keep every class represented on both sides whenever it
    has at least two samples; the global test size is held at
    round(N * test_fraction) exactly.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test fraction must be in (0, 1), got {test_fraction}")
    if ds.n < 5:
        raise DataError(f"refusing to split {ds.n} samples")
    rng = np.random.default_rng(seed)
    target_test = int(round(ds.n * test_fraction))
    target_test = min(max(target_test, 1), ds.n - 1)

    per_class = []  # (shuffled indices, initial test count)
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.y == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        n_test = int(round(idx.size * test_fraction))
        if idx.size >= 2:
            n_test = min(max(n_test, 1), idx.size - 1)
        else:
            n_test = 0
        per_class.append([idx, n_test])

    def total():
        return sum(n for _, n in per_class)

    # nudge per-class counts until the global target is met
    while total() != target_test:
        diff = total() - target_test
        movable = sorted(per_class, key=lambda e: -e[0].size)
        moved = False
        for entry in movable:
            idx, n_test = entry
            if diff > 0 and n_test > (1 if idx.size >= 2 else 0):
                entry[1] -= 1
                moved = True
                break
            if diff < 0 and n_test < idx.size - (1 if idx.size >= 2 else 0):
                entry[1] += 1
                moved = True
                break
        if not moved:
            break

    test_idx = np.concatenate([idx[:n] for idx, n in per_class])
    train_idx = np.concatenate([idx[n:] for idx, n in per_class])
    rng.shuffle(test_idx)
    rng.shuffle(train_idx)
    return ds.take(train_idx), ds.take(test_idx)


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Iterate full (X, y) minibatches after a per-epoch seeded reshuffle.

    A trailing short batch is dropped: batch statistics need full batches.
    """
    if batch_size < 2:
        raise DataError(f"batch size must be >= 2, got {batch_size}")
    perm = np.random.default_rng((seed, epoch)).permutation(ds.n)
    end = (ds.n // batch_size) * batch_size
    for start in range(0, end, batch_size):
        sel = perm[start : start + batch_size]
        yield ds.X[sel], ds.y[sel]


# ---------------------------------------------------------------------------
# synthetic Bayesian-network task


@dataclass
class SynthBayesNet:
    """Six binary roots, three XOR-with-noise hidden nodes, one binary target.

    ``target_rule[c]`` is P(label = 1 | c hidden nodes active); the default
    says "high if at least two are on". ``root_prob`` is one value per root,
    or a single value that every root shares. Everything is configurable,
    and the enumeration oracle below always matches whatever is configured.
    """

    root_prob: np.ndarray = field(default_factory=lambda: np.full(6, 0.5))
    xor_fidelity: float = 0.99
    parent_pairs: tuple = ((0, 1), (2, 3), (4, 5))
    target_rule: np.ndarray = field(default_factory=lambda: np.array([0.05, 0.05, 0.95, 0.95]))

    def __post_init__(self):
        self.root_prob = np.asarray(self.root_prob, dtype=np.float64)
        if self.root_prob.size == 1:
            self.root_prob = np.full(6, self.root_prob.item())
        self.target_rule = np.asarray(self.target_rule, dtype=np.float64)
        if self.root_prob.shape != (6,):
            raise DataError("need one Bernoulli parameter per root (6)")
        if len(self.parent_pairs) != 3 or sorted(
            j for pair in self.parent_pairs for j in pair
        ) != list(range(6)):
            raise DataError("parent pairs must cover the six roots exactly once")
        if self.target_rule.shape != (4,):
            raise DataError("target rule needs P(1 | count) for counts 0..3")
        for arr in (self.root_prob, self.target_rule, np.array([self.xor_fidelity])):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise DataError("probabilities must lie in [0, 1]")


def synth_generate(net: SynthBayesNet, n_samples: int, seed: int = 0, return_hidden: bool = False):
    """Forward-sample the network; features are the six roots, label the target.

    ``return_hidden`` additionally exposes the sampled hidden-node values,
    for diagnostics that need to see through the marginalization.
    """
    if n_samples < 1:
        raise DataError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    roots = (rng.random((n_samples, 6)) < net.root_prob).astype(np.int64)
    xors = np.stack([roots[:, a] ^ roots[:, b] for a, b in net.parent_pairs], axis=1)
    faithful = rng.random((n_samples, 3)) < net.xor_fidelity
    hidden = np.where(faithful, xors, 1 - xors)
    p_one = net.target_rule[hidden.sum(axis=1)]
    y = (rng.random(n_samples) < p_one).astype(np.int64)
    ds = Dataset(roots.astype(np.float64), y, 2, list(DEFAULT_ROOT_NAMES))
    if return_hidden:
        return ds, hidden
    return ds


@dataclass
class SynthOracle:
    """Exact posterior over the 64 root configurations.

    Row r of ``posterior`` is (P(label=0 | x), P(label=1 | x)) for the
    configuration whose bit i (least significant = root A) is root i's value;
    ``config_prob[r]`` is P(x = r).
    """

    posterior: np.ndarray  # (64, 2)
    config_prob: np.ndarray  # (64,)
    optimal_accuracy: float
    label_marginal: float


def synth_bayes_optimal(net: SynthBayesNet) -> SynthOracle:
    """Marginalize the 2^3 hidden states for each of the 2^6 root configs."""
    configs = np.arange(64)
    roots = (configs[:, None] >> np.arange(6)) & 1  # (64, 6)
    config_prob = np.prod(
        np.where(roots == 1, net.root_prob, 1.0 - net.root_prob), axis=1
    )
    xors = np.stack([roots[:, a] ^ roots[:, b] for a, b in net.parent_pairs], axis=1)
    p_one = np.zeros(64)
    for s in range(8):
        state = (s >> np.arange(3)) & 1
        match = state == xors  # (64, 3)
        p_state = np.prod(
            np.where(match, net.xor_fidelity, 1.0 - net.xor_fidelity), axis=1
        )
        p_one += p_state * net.target_rule[int(state.sum())]
    posterior = np.stack([1.0 - p_one, p_one], axis=1)
    optimal = float(np.sum(config_prob * posterior.max(axis=1)))
    marginal = float(np.sum(config_prob * p_one))
    return SynthOracle(posterior, config_prob, optimal, marginal)


# ---------------------------------------------------------------------------
# half-noise image-like task


def halfnoise_generate(
    n_samples: int,
    n_signal: int = 16,
    n_noise: int = 16,
    n_classes: int = 4,
    seed: int = 0,
    within_scale: float = 0.5,
) -> Dataset:
    """A flat "image" whose second half of columns is pure Gaussian noise.

    Each class has a fixed random +-1 template over the signal columns;
    samples scatter around their class template. The noise columns carry no
    label information at all, so a feature-selection stage should learn to
    ignore them.
    """
    rng = np.random.default_rng(seed)
    templates = rng.choice([-1.0, 1.0], size=(n_classes, n_signal))
    y = rng.integers(0, n_classes, size=n_samples)
    X = np.empty((n_samples, n_signal + n_noise))
    X[:, :n_signal] = templates[y]
    X[:, :n_signal] += rng.normal(scale=within_scale, size=(n_samples, n_signal))
    X[:, n_signal:] = rng.normal(size=(n_samples, n_noise))
    names = [f"sig{j}" for j in range(n_signal)] + [f"noise{j}" for j in range(n_noise)]
    return Dataset(X, y, n_classes, names)
