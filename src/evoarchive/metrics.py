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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import AgentNode, Archive
from .evaluation import node_selection_score


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


def improvement_at_k(initial_score: float, generated_scores: Sequence[float]) -> float:
    """Best of the generated scores minus the initial score; 0 when nothing was
    generated. ValueError if any score is not finite."""
    if not all(math.isfinite(v) for v in (initial_score, *generated_scores)):
        raise ValueError("scores must be finite")
    if not generated_scores:
        return 0.0
    return max(generated_scores) - initial_score


def growth_score(archive: Archive, node_id: int, params: GrowthScoreParams) -> float:
    """Depth-discounted mean improvement achieved by a node's descendants.

    For each descendant j of i: (score_j - score_i) * gamma**dist(i, j),
    averaged over all descendants. Scores are selection scores. The terms
    are summed in ascending id order, so the result is bit-stable. One
    ascending pass over the archive keeps each descendant's distance from
    the node, so it costs O(n) and scores only the subtree.
    """
    base = node_selection_score(archive.node(node_id))
    distance = {node_id: 0}
    total, count = 0.0, 0
    # a parent precedes its children in id order, so its distance is known
    for node in archive:
        above = distance.get(node.parent_id)
        if above is not None:
            distance[node.id] = dist = above + 1
            total += (node_selection_score(node) - base) * params.gamma ** dist
            count += 1
    if not count:
        raise ValueError(f"node {node_id} has no descendants")
    return total / count


def transfer_select(archive: Archive, params: GrowthScoreParams) -> int:
    """Node with the highest growth score among those with enough descendants.

    Ties break toward the lowest id. Each node's selection score is computed
    once. One pass in ascending id order walks each node's ancestors and adds
    its term to each ancestor's total, so every total sums its terms in
    ascending id order, as `growth_score` does. The cost is one term per
    (ancestor, descendant) pair: O(n * mean depth), O(n^2) on a chain.
    """
    position = {node.id: i for i, node in enumerate(archive)}
    parent = [-1 if n.parent_id is None else position[n.parent_id] for n in archive]
    score = [node_selection_score(n) for n in archive]
    total = [0.0] * len(score)
    depth = [0] * len(score)
    # discount[d] is gamma ** d, the same Python `float ** int` as a per-term power
    discount = [1.0]
    for j, above in enumerate(parent):
        if above < 0:
            continue
        depth[j] = level = depth[above] + 1
        if level == len(discount):
            discount.append(params.gamma ** level)
        score_j, dist = score[j], 1
        while above >= 0:
            total[above] += (score_j - score[above]) * discount[dist]
            above, dist = parent[above], dist + 1
    # descendants, counted from the leaves up: a child follows its parent
    count = [0] * len(score)
    for j in reversed(range(len(score))):
        if parent[j] >= 0:
            count[parent[j]] += count[j] + 1
    eligible = [i for i, c in enumerate(count) if c >= params.min_descendants]
    if not eligible:
        raise ValueError(
            f"no node has at least {params.min_descendants} descendants"
        )
    # max keeps the first of equal keys: the lowest id.
    return archive.nodes[max(eligible, key=lambda i: total[i] / count[i])].id


# Resampled rows drawn and reduced at once by `bootstrap_ci`. For n = 1,000
# samples, a chunk's int32 draws and int32 rank keys take
# 32 * 1,000 * 8 bytes = 256 KB, which the process's peak resident set
# counts in full.
_BOOTSTRAP_CHUNK_ROWS = 32


def bootstrap_ci(
    samples: Sequence[float],
    rng: np.random.Generator,
    resamples: int = 1000,
    level: float = 95.0,
) -> tuple[float, float, float]:
    """Median plus percentile bootstrap bounds.

    Resamples with replacement at the original sample size; bounds are the
    (100-level)/2 and 100-(100-level)/2 percentiles of the resampled
    medians. Resampled medians are exact order statistics, read from each
    resampled row's sorted ranks (`_bootstrap_medians`), and bit-identical
    to `np.median` of each resampled row, NaN for a row that draws a NaN.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("empty sample set")
    if not 0.0 < level < 100.0:
        raise ValueError("level must be in (0, 100)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    tail = (100.0 - level) / 2.0
    lower, upper = np.percentile(_bootstrap_medians(data, rng, resamples), [tail, 100.0 - tail])
    return float(np.median(data)), float(lower), float(upper)


def _bootstrap_medians(data: np.ndarray, rng: np.random.Generator, resamples: int) -> np.ndarray:
    """Median of each resampled row of `data`, read from its sorted ranks.

    The samples are sorted once and each draw is mapped to its sample's
    rank, so a row's k-th order statistic is `ordered[k-th smallest rank]`:
    each chunk's rank rows are sorted (numpy's default sort, which is
    SIMD-accelerated for int32) and the middle columns read. The sort puts
    NaNs last, so a row whose largest rank reaches their ranks drew a NaN,
    and its median is NaN, as `np.median`'s is. Rows are drawn a chunk at a
    time, so memory stays at a few chunks of n indices. The draws are
    int32, which numpy draws exactly as the int64 values of one
    (resamples, n) call, and the ranks keep that dtype. `np.median` averages
    the middle values by `(0.0 + a [+ b]) / count`, so the odd median is
    `a + 0.0` and the even one `(a + b + 0.0) / 2`, which are the same bits
    (-0.0 included).
    """
    n = data.size
    order = np.argsort(data, kind="stable")
    ordered = data[order]
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    lo, hi = (n - 1) // 2, n // 2
    non_nan = n - np.count_nonzero(np.isnan(data))
    stats = np.empty(resamples)
    for start in range(0, resamples, _BOOTSTRAP_CHUNK_ROWS):
        rows = min(_BOOTSTRAP_CHUNK_ROWS, resamples - start)
        keys = np.take(rank, rng.integers(0, n, size=(rows, n), dtype=np.int32))
        keys.sort(axis=1)
        low = ordered[keys[:, lo]]
        chunk = stats[start:start + rows]
        chunk[:] = low + 0.0 if lo == hi else (low + ordered[keys[:, hi]] + 0.0) / 2
        chunk[keys[:, -1] >= non_nan] = np.nan
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
