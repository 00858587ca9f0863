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
    O(n) for the child index plus O(s log s) for a subtree of s nodes.
    """
    archive.node(node_id)
    return _growth(
        child_index(archive),
        lambda j: node_selection_score(archive.node(j)),
        node_id,
        params.gamma,
    )


def _growth(
    children: dict[int, list[int]],
    score: Callable[[int], float],
    node_id: int,
    gamma: float,
) -> float:
    """`growth_score` over a prebuilt child index and a score lookup."""
    walked: list[tuple[int, int]] = []
    frontier = [(node_id, 0)]
    while frontier:
        current, dist = frontier.pop()
        for child in children.get(current, ()):
            walked.append((child, dist + 1))
            frontier.append((child, dist + 1))
    if not walked:
        raise ValueError(f"node {node_id} has no descendants")
    walked.sort()
    base = score(node_id)
    total = 0.0
    for j, dist in walked:
        delta = score(j) - base
        total += delta * gamma ** dist
    return total / len(walked)


def transfer_select(archive: Archive, params: GrowthScoreParams) -> int:
    """Node with the highest growth score among those with enough descendants.

    Ties break toward the lowest id. Each node's selection score is computed
    once and descendant counts come from one bottom-up pass, so the cost is
    the sum of the eligible subtrees' sizes: O(n * mean depth), O(n^2) on a
    chain.
    """
    children = child_index(archive)
    # Parents precede their children, so descending ids visit subtrees first.
    counts: dict[int, int] = {}
    for node in reversed(archive.nodes):
        counts[node.id] = sum(1 + counts[c] for c in children.get(node.id, ()))
    eligible = [n.id for n in archive if counts[n.id] >= params.min_descendants]
    if not eligible:
        raise ValueError(
            f"no node has at least {params.min_descendants} descendants"
        )
    scores = {n.id: node_selection_score(n) for n in archive}
    # max keeps the first of equal keys: the lowest id.
    return max(
        eligible, key=lambda i: _growth(children, scores.__getitem__, i, params.gamma)
    )


# Resampled rows drawn and reduced at once by `bootstrap_ci`.
_BOOTSTRAP_CHUNK_ROWS = 64


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
    statistic values.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("empty sample set")
    if not 0.0 < level < 100.0:
        raise ValueError("level must be in (0, 100)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    point = float(statistic(data))
    # Rows are drawn and reduced a chunk at a time, so memory stays at a few
    # chunks of n indices; the draws are those of one (resamples, n) call.
    stats = np.empty(resamples)
    for start in range(0, resamples, _BOOTSTRAP_CHUNK_ROWS):
        rows = min(_BOOTSTRAP_CHUNK_ROWS, resamples - start)
        resampled = data[rng.integers(0, data.size, size=(rows, data.size))]
        if statistic is np.median:
            stats[start:start + rows] = np.median(resampled, axis=1)
        else:
            stats[start:start + rows] = np.apply_along_axis(statistic, 1, resampled)
    tail = (100.0 - level) / 2.0
    lower, upper = np.percentile(stats, [tail, 100.0 - tail])
    return point, float(lower), float(upper)


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
