"""Run analytics: improvement@k, lineage-discounted growth, bootstrap CIs,
progress series, and CSV/DOT exports.

All functions are read-only over archives and over the agents that
`engine.replay_log` folded from a run's committed events (`RunState.archived`);
none reads the event log itself. The score feeding the growth computation
is the selection score (validation when recorded, else train); both that
choice and the discount base are documented on the operations below.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .archive import AgentNode, Archive, child_index
from .evaluation import node_selection_score


@dataclass(frozen=True)
class ImpAtKRequest:
    """Initial score, the scores of up-to-k generated variants, and k."""

    initial_score: float
    generated_scores: tuple[float, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.generated_scores) > self.k:
            raise ValueError("more generated scores than k")
        values = (self.initial_score, *self.generated_scores)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class GrowthScoreParams:
    """gamma: per-edge depth discount in (0, 1]; min_descendants: eligibility floor."""

    gamma: float = 0.6
    min_descendants: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.min_descendants < 1:
            raise ValueError("min_descendants must be >= 1")


def improvement_at_k(request: ImpAtKRequest) -> float:
    """Best generated score minus the initial score; 0 when nothing was generated."""
    if not request.generated_scores:
        return 0.0
    return max(request.generated_scores) - request.initial_score


def growth_score(archive: Archive, node_id: int, params: GrowthScoreParams) -> float:
    """Depth-discounted mean improvement achieved by a node's descendants.

    For each descendant j of i: (score_j - score_i) * gamma**dist(i, j),
    averaged over all descendants. Scores are selection scores. The terms
    are summed in ascending id order, so the result is bit-stable. Costs
    O(n) for the child index plus O(s log s) for a subtree of s nodes, the
    only nodes it tours and scores.
    """
    archive.node(node_id)
    lineage = _Lineage(archive, params.gamma, [node_id])
    scores = {j: node_selection_score(archive.node(j)) for j in lineage.order}
    return lineage.growth(node_id, scores)


class _Lineage:
    """One preorder tour from `roots`, so each node's descendants are one slice.

    Node i's `count[i]` descendants are `order[first[i]:first[i] + count[i]]`,
    `depth[i]` counts its edges below its root, and `discount[d]` is
    `gamma ** d` (the same Python `float ** int` as a per-term power), so
    dist(i, j) is `depth[j] - depth[i]`.
    """

    def __init__(self, archive: Archive, gamma: float, roots: list[int]) -> None:
        children = child_index(archive)
        self.order: list[int] = []
        self.first: dict[int, int] = {}
        self.depth = dict.fromkeys(roots, 0)
        # A stack tour visits all of a node's descendants right after it.
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            self.order.append(node_id)
            self.first[node_id] = len(self.order)
            below = children.get(node_id)
            if below:
                self.depth.update(dict.fromkeys(below, self.depth[node_id] + 1))
                stack.extend(below)
        # Reversed, the tour reaches every node after all of its descendants.
        self.count = dict.fromkeys(self.order, 0)
        for node_id in reversed(self.order):
            below = children.get(node_id)
            if below:
                self.count[node_id] = len(below) + sum(map(self.count.__getitem__, below))
        self.discount = [gamma ** d for d in range(max(self.depth.values(), default=0) + 1)]

    def growth(self, node_id: int, score: dict[int, float]) -> float:
        """`growth_score` of one node over `score`, which holds at least its
        subtree: `total += (score_j - base) * gamma**dist` for each
        descendant j in ascending id order, then one division."""
        count = self.count[node_id]
        if not count:
            raise ValueError(f"node {node_id} has no descendants")
        first, depth, discount = self.first[node_id], self.depth, self.discount
        base, level = score[node_id], depth[node_id]
        total = 0.0
        for j in sorted(self.order[first:first + count]):
            total += (score[j] - base) * discount[depth[j] - level]
        return total / count


def transfer_select(archive: Archive, params: GrowthScoreParams) -> int:
    """Node with the highest growth score among those with enough descendants.

    Ties break toward the lowest id. Each node's selection score is computed
    once, and one preorder tour of the whole archive lays each node's
    descendants out as one slice. The cost is O(n) plus sorting and summing
    the eligible subtrees' slices: O(n * mean depth) terms, O(n^2) on a
    chain.
    """
    lineage = _Lineage(archive, params.gamma, [n.id for n in archive if n.parent_id is None])
    eligible = [n.id for n in archive if lineage.count[n.id] >= params.min_descendants]
    if not eligible:
        raise ValueError(
            f"no node has at least {params.min_descendants} descendants"
        )
    scores = {n.id: node_selection_score(n) for n in archive}
    # max keeps the first of equal keys: the lowest id.
    return max(eligible, key=lambda i: lineage.growth(i, scores))


# Resampled rows drawn and reduced at once by `bootstrap_ci`. For n = 1,000
# samples, a chunk's int32 draws, intp rank keys and running counts take
# 32 * 1,000 * 20 bytes = 640 KB, which the process's peak resident set
# counts in full.
_BOOTSTRAP_CHUNK_ROWS = 32


def bootstrap_ci(
    samples: Sequence[float],
    rng: np.random.Generator,
    resamples: int = 1000,
    level: float = 95.0,
    statistic: Callable[[np.ndarray], float] = np.median,
) -> tuple[float, float, float]:
    """Point estimate plus percentile bootstrap bounds.

    Resamples with replacement at the original sample size; bounds are the
    (100-level)/2 and 100-(100-level)/2 percentiles of the resampled
    statistic values. Resampled medians are exact order statistics, read by
    counting ranks (`_bootstrap_medians`), and bit-identical to `np.median`
    of each resampled row; samples holding a NaN take the row path, so they
    keep `np.median`'s NaN.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("empty sample set")
    if not 0.0 < level < 100.0:
        raise ValueError("level must be in (0, 100)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    point = float(statistic(data))
    if statistic is np.median and not np.isnan(data).any():
        stats = _bootstrap_medians(data, rng, resamples)
    else:
        # Rows are drawn and reduced a chunk at a time, so memory stays at a
        # few chunks of n indices; the draws are those of one (resamples, n)
        # call.
        stats = np.empty(resamples)
        for start in range(0, resamples, _BOOTSTRAP_CHUNK_ROWS):
            rows = min(_BOOTSTRAP_CHUNK_ROWS, resamples - start)
            resampled = data[rng.integers(0, data.size, size=(rows, data.size))]
            stats[start:start + rows] = np.apply_along_axis(statistic, 1, resampled)
    tail = (100.0 - level) / 2.0
    lower, upper = np.percentile(stats, [tail, 100.0 - tail])
    return point, float(lower), float(upper)


def _bootstrap_medians(data: np.ndarray, rng: np.random.Generator, resamples: int) -> np.ndarray:
    """Median of each resampled row of `data` (no NaN), with no row sorted.

    The samples are sorted once; each draw is mapped to its sample's rank,
    and a row's k-th order statistic is the rank at which the row's running
    count of drawn ranks first exceeds k. One `bincount` of the chunk's
    ranks, offset by n per row, and one flat `cumsum` give every row's
    running counts at once; row r's counts start at r*n. The draws are
    int32, which numpy draws exactly as the int64 values of one
    (resamples, n) call. `np.median` averages the middle values by
    `(0.0 + a [+ b]) / count`, so the odd median is `a + 0.0` and the even
    one `(a + b + 0.0) / 2`, which are the same bits (-0.0 included).
    """
    n = data.size
    order = np.argsort(data, kind="stable")
    ordered = data[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    lo, hi = (n - 1) // 2, n // 2
    stats = np.empty(resamples)
    for start in range(0, resamples, _BOOTSTRAP_CHUNK_ROWS):
        rows = min(_BOOTSTRAP_CHUNK_ROWS, resamples - start)
        offsets = np.arange(0, rows * n, n)
        keys = rank[rng.integers(0, n, size=(rows, n), dtype=np.int32)]
        keys += offsets[:, None]
        running = np.bincount(keys.ravel(), minlength=rows * n)
        np.cumsum(running, out=running)
        low = ordered[np.searchsorted(running, offsets + lo, side="right") - offsets]
        if lo == hi:
            stats[start:start + rows] = low + 0.0
        else:
            high = ordered[np.searchsorted(running, offsets + hi, side="right") - offsets]
            stats[start:start + rows] = (low + high + 0.0) / 2
    return stats


@dataclass
class ProgressSeries:
    best_so_far: list[float]
    avg_compiled: list[float]


def progress_series(agents: Sequence[AgentNode], iterations: int) -> ProgressSeries:
    """Per-iteration best-so-far and compiled-average, from iteration 0 to
    `iterations`, over every agent a run archived (`RunState.archived`): an
    agent counts from its `created_at_iteration`, with its selection score.

    The agents present at iteration t are a prefix of the agents in
    iteration order (id order within an iteration; `archived` is already in
    that order), so a running sum and best give the series in O(n + T).
    The average adds scores left to right with plain float addition (not the
    compensated ``sum()`` of Python 3.12+), so it does not depend on the
    interpreter version.
    """
    if not agents:
        raise ValueError("no archived agents in input")
    ordered = sorted(
        ((n.created_at_iteration, node_selection_score(n)) for n in agents),
        key=lambda r: r[0],
    )
    best_so_far: list[float] = []
    avg: list[float] = []
    k, total, best = 0, 0, ordered[0][1]
    for t in range(iterations + 1):
        while k < len(ordered) and ordered[k][0] <= t:
            score = ordered[k][1]
            total += score
            if score > best:
                best = score
            k += 1
        if k == 0:
            raise ValueError(f"no archived agents by iteration {t}")
        best_so_far.append(best)
        avg.append(total / k)
    return ProgressSeries(best_so_far=best_so_far, avg_compiled=avg)


# --- exports -------------------------------------------------------------------


def export_progress_csv(series: ProgressSeries, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_so_far", "avg_compiled"])
        for t, (best, avg) in enumerate(zip(series.best_so_far, series.avg_compiled)):
            writer.writerow([t, repr(best), repr(avg)])


def export_scalars_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValueError("nothing to export")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def export_tree_dot(archive: Archive, path: str | Path) -> None:
    """Archive tree in DOT form: one node per agent, labeled id and score."""
    lines = ["digraph archive {"]
    for node in archive:
        score = node_selection_score(node)
        lines.append(f'  n{node.id} [label="{node.id}\\n{score:.3f}"];')
    for node in archive:
        if node.parent_id is not None:
            lines.append(f"  n{node.parent_id} -> n{node.id};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
