"""Post-training introspection of the learned routing: discretization,
sparsity, selection-frequency heat maps, feature co-membership graphs, and
correlation structure of the group outputs.

Everything here is read-only over a frozen model; outputs are plain numpy
plus small export helpers (CSV for counts and histograms, a
``feature_a,feature_b,weight`` text format for graphs) that round-trip.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Dataset
from .errors import DataError, ShapeError
from .layers import RoutingParams, hard_assignment
from .model import Model


@dataclass
class RoutingTable:
    """Hard slot-to-feature assignment.

    ``slot_to_feature[i*m + j]`` is the input feature feeding slot j of group
    i.
    """

    slot_to_feature: np.ndarray  # (k*m,) int
    k: int
    m: int
    d: int


def discretize_routing(routing: RoutingParams) -> RoutingTable:
    """Per-row argmax of the logits; ties break toward the lowest feature index."""
    return RoutingTable(hard_assignment(routing), routing.k, routing.m, routing.d)


def sparsity_report(routing: RoutingParams, threshold: float = 0.99) -> float:
    """Fraction of routing rows whose softmax, at the current temperature,
    already concentrates at least ``threshold`` on one feature."""
    probs = T.routing_weights(routing.psi.data, routing.temperature)
    return float((probs.max(axis=1) >= threshold).mean())


def selection_heatmap(table: RoutingTable) -> np.ndarray:
    """How often each input feature is selected across all k*m slots."""
    return np.bincount(table.slot_to_feature, minlength=table.d)


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


def group_graph(table: RoutingTable) -> GroupGraph:
    k, m = table.k, table.m
    weights: dict[tuple[int, int], int] = {}
    nodes: set[int] = set()
    for g in range(k):
        members = sorted(set(table.slot_to_feature[g * m : (g + 1) * m].tolist()))
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


def correlation_analysis(
    model: Model, ds: Dataset, n_features_cap: int = 256, n_bins: int = 40
) -> CorrelationReport:
    """Pearson correlations over the group-organizer outputs, split into
    same-group and cross-group feature pairs.

    Uses the raw (relaxed, eval-mode) group outputs at the model's current
    temperature, capped at the first ``n_features_cap`` slots. Slots with
    zero variance contribute correlation 0 and are tallied as warnings.
    """
    if model.routing is None:
        raise DataError("correlation analysis needs a group-connected model")
    if ds.n < 2:
        raise DataError("need at least two samples to correlate")
    routing = model.routing
    if ds.X.shape[1] != routing.d:
        raise ShapeError(f"input {ds.X.shape} does not match d={routing.d}")
    z = T.routing_weights(routing.psi.data, routing.temperature) @ ds.X.T
    m, n = routing.m, ds.n
    take = min(z.shape[0], n_features_cap)
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
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    intra_hist, _ = np.histogram(vals[same], bins=edges)
    inter_hist, _ = np.histogram(vals[~same], bins=edges)
    return CorrelationReport(corr, intra_hist, inter_hist, edges, int(dead.sum()))


# ---------------------------------------------------------------------------
# exports (CSV counts, edge-list text), all round-trip loadable


def save_heatmap_csv(counts: np.ndarray, path, feature_names=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "name", "count"])
        for j, c in enumerate(counts):
            name = feature_names[j] if feature_names else f"f{j}"
            writer.writerow([j, name, int(c)])


def load_heatmap_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    counts = np.zeros(len(rows), dtype=np.int64)
    for row in rows:
        counts[int(row[0])] = int(row[2])
    return counts


def save_edge_list(graph: GroupGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, w in graph.edges:
            fh.write(f"{a},{b},{w}\n")


def load_edge_list(path) -> GroupGraph:
    edges = []
    nodes: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b, w = line.split(",")
            edges.append((int(a), int(b), int(w)))
            nodes.update((int(a), int(b)))
    return GroupGraph(sorted(nodes), edges)


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


def load_histogram_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    intra = np.array([int(r[2]) for r in rows])
    inter = np.array([int(r[3]) for r in rows])
    edges = np.array([float(r[0]) for r in rows] + [float(rows[-1][1])])
    return intra, inter, edges
