"""Post-training introspection of the learned routing: sparsity,
selection-frequency heat maps and feature co-membership graphs of the hard
assignment (``layers.hard_assignment``), and correlation structure of the
group outputs.

Everything here is read-only over a frozen model; outputs are plain numpy
plus small writers that ``gmlp analyze`` calls: CSV for counts and
histograms, and a ``feature_a,feature_b,weight`` text format for graphs.
The package reads none of these files back.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, ShapeError
from .layers import RoutingParams, hard_assignment, routing_weights
from .model import Model

# a routing row counts as sparse once its softmax puts this much on one feature
SPARSITY_THRESHOLD = 0.99
# correlation_analysis reads the first CORRELATION_SLOTS slots and bins their
# pair correlations into CORRELATION_BINS bins
CORRELATION_SLOTS = 256
CORRELATION_BINS = 40


def sparsity_report(routing: RoutingParams) -> float:
    """Fraction of routing rows whose softmax, at the current temperature,
    already concentrates at least ``SPARSITY_THRESHOLD`` on one feature (1.0 if committed)."""
    if routing.idx is not None:
        return 1.0
    probs = routing_weights(routing.psi.data, routing.temperature)
    return float((probs.max(axis=1) >= SPARSITY_THRESHOLD).mean())


def selection_heatmap(routing: RoutingParams) -> np.ndarray:
    """How often each input feature is selected (``hard_assignment``) across all k*m slots."""
    return np.bincount(hard_assignment(routing), minlength=routing.d)


@dataclass
class GroupGraph:
    """Undirected weighted graph of co-grouped features.

    Edges are canonical (a < b); the weight counts how many groups contain
    both endpoints. A feature selected twice in one group yields no
    self-edge.
    """

    nodes: list[int]
    edges: list[tuple[int, int, int]]

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)


def group_graph(routing: RoutingParams) -> GroupGraph:
    """The co-membership graph of each group's selected features (``hard_assignment``)."""
    slots, k, m = hard_assignment(routing), routing.k, routing.m
    weights: dict[tuple[int, int], int] = {}
    nodes: set[int] = set()
    for g in range(k):
        members = sorted(set(slots[g * m : (g + 1) * m].tolist()))
        nodes.update(members)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                weights[(a, b)] = weights.get((a, b), 0) + 1
    edges = [(a, b, w) for (a, b), w in sorted(weights.items())]
    return GroupGraph(sorted(nodes), edges)


@dataclass
class CorrelationReport:
    corr: np.ndarray  # (n, n) Pearson correlations of analyzed slots
    intra_hist: np.ndarray  # (bins,) counts of same-group pair correlations
    inter_hist: np.ndarray  # (bins,) counts of cross-group pair correlations
    bin_edges: np.ndarray  # (bins + 1,)
    zero_variance_slots: int


def correlation_analysis(model: Model, ds: Dataset) -> CorrelationReport:
    """Pearson correlations over the group-organizer outputs, split into
    same-group and cross-group feature pairs, in ``CORRELATION_BINS`` bins.

    Uses the raw (relaxed, eval-mode) group outputs at the model's current
    temperature (a committed routing's gather), capped at the first
    ``CORRELATION_SLOTS`` slots. Slots with zero variance contribute
    correlation 0 and are tallied as warnings.
    """
    if model.routing is None:
        raise DataError("correlation analysis needs a group-connected model")
    if ds.n < 2:
        raise DataError("need at least two samples to correlate")
    routing = model.routing
    if ds.X.shape[1] != routing.d:
        raise ShapeError(f"input {ds.X.shape} does not match d={routing.d}")
    z = ds.X.T[routing.idx] if routing.idx is not None else routing_weights(routing.psi.data, routing.temperature) @ ds.X.T
    m, n = routing.m, ds.n
    take = min(z.shape[0], CORRELATION_SLOTS)
    flat = z[:take].T

    centered = flat - flat.mean(axis=0)
    std = flat.std(axis=0)
    dead = std == 0.0
    safe = np.where(dead, 1.0, std)
    white = centered / safe
    corr = white.T @ white / n
    corr[dead, :] = 0.0
    corr[:, dead] = 0.0
    np.fill_diagonal(corr, np.where(dead, 0.0, 1.0))

    group_of = np.arange(take) // m
    iu = np.triu_indices(take, k=1)
    same = group_of[iu[0]] == group_of[iu[1]]
    vals = np.clip(corr[iu], -1.0, 1.0)
    edges = np.linspace(-1.0, 1.0, CORRELATION_BINS + 1)
    intra_hist, _ = np.histogram(vals[same], bins=edges)
    inter_hist, _ = np.histogram(vals[~same], bins=edges)
    return CorrelationReport(corr, intra_hist, inter_hist, edges, int(dead.sum()))


# ---------------------------------------------------------------------------
# exports (CSV counts, edge-list text)


def save_heatmap_csv(counts: np.ndarray, path, feature_names=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "name", "count"])
        for j, c in enumerate(counts):
            name = feature_names[j] if feature_names else f"f{j}"
            writer.writerow([j, name, int(c)])


def save_edge_list(graph: GroupGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, w in graph.edges:
            fh.write(f"{a},{b},{w}\n")


def save_histogram_csv(report: CorrelationReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "intra_count", "inter_count"])
        for i in range(report.intra_hist.size):
            writer.writerow(
                [
                    repr(float(report.bin_edges[i])),
                    repr(float(report.bin_edges[i + 1])),
                    int(report.intra_hist[i]),
                    int(report.inter_hist[i]),
                ]
            )
