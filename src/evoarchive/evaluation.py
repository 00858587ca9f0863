"""Staged, gated agent evaluation across domains.

Agents are first scored on a cheap task subset. A domain-specific gate
(minimum success count, or a success fraction that may be strict) decides
whether the remaining tasks run at all; agents that fail any gate keep a
zero for everything they were never evaluated on. When several domains
are evaluated together, one failed gate zero-fills all of them, and the
combined score is the unweighted mean of per-domain aggregates.

A task "success" is any score strictly greater than zero, which covers
both binary domains and continuous fitness normalized to [0, 1].

Evaluators are per-task callbacks raising EvaluatorError (or
EvaluatorTimeout) on malfunction. `score_task` is the one judge of their
answers, for every scored task and for the validity probe alike. The
out-of-process contract sends one JSON request on stdin and expects one
JSON response on stdout; a non-zero exit or timeout counts as score 0.
"""

from __future__ import annotations

import json
import logging
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from .archive import AgentNode
from .sandbox import SandboxLimits, SandboxSpawnError, sandbox_execute
from .selection import left_sum

logger = logging.getLogger(__name__)

Evaluator = Callable[[str, str, SandboxLimits], float]


class EvaluatorError(Exception):
    """Raised by evaluators on crash, timeout, or malformed response."""


class EvaluatorTimeout(EvaluatorError):
    """Raised by evaluators whose task ran out of wall-clock time."""


@dataclass(frozen=True)
class Gate:
    """Subset gate: kind is 'min-successes' (>= count) or 'min-fraction'.

    The fraction comparison is strict ('more than') when strict=True,
    otherwise >=. Successes are counted over the subset only.
    """

    kind: str
    count: int = 1
    fraction: float = 0.4
    strict: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("min-successes", "min-fraction"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "min-successes" and self.count < 1:
            raise ValueError("gate count must be >= 1")
        if self.kind == "min-fraction" and not 0.0 < self.fraction <= 1.0:
            raise ValueError("gate fraction must be in (0, 1]")

    def passes(self, successes: int, subset_size: int) -> bool:
        if self.kind == "min-successes":
            return successes >= self.count
        observed = successes / subset_size
        return observed > self.fraction if self.strict else observed >= self.fraction


@dataclass(frozen=True)
class StagedEvalPolicy:
    subset_size: int
    full_size: int
    gate: Gate

    def __post_init__(self) -> None:
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if self.full_size < self.subset_size:
            raise ValueError("full_size must be >= subset_size")


@dataclass(frozen=True)
class DomainSpec:
    """One evaluation domain; aggregation is the mean of task scores.

    Repeat-style domains list one task id per repetition. The validation
    split feeds parent selection and is evaluated in full, gate-free,
    only after all staged gates passed.
    """

    name: str
    task_ids: tuple[str, ...]
    staged: StagedEvalPolicy
    has_validation: bool = False
    validation_task_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.task_ids:
            raise ValueError("task_ids must be non-empty")
        if len(set(self.task_ids)) != len(self.task_ids):
            raise ValueError("task_ids must be unique")
        if self.staged.full_size > len(self.task_ids):
            raise ValueError("full_size exceeds number of tasks")
        if self.has_validation and not self.validation_task_ids:
            raise ValueError("has_validation requires validation_task_ids")
        if self.validation_task_ids and not self.has_validation:
            raise ValueError("validation_task_ids requires has_validation")
        if self.validation_task_ids and len(set(self.validation_task_ids)) != len(
            self.validation_task_ids
        ):
            raise ValueError("validation_task_ids must be unique")


@dataclass
class ScoreReport:
    """Gated evaluation outcome for one split.

    `aggregate` is the mean over all tasks of the split, with unevaluated
    tasks contributing 0 when the agent was gated out.
    """

    per_task: dict[str, float]
    gated_out: bool
    aggregate: float


def score_task(
    evaluator: Evaluator, task_id: str, payload_ref: str, limits: SandboxLimits
) -> tuple[float, Optional[str]]:
    """Ask the evaluator for one task's answer and judge it; never raises.

    A real number in [0, 1] is accepted as `(score, None)`; anything else
    scores 0.0 with the cause "timeout" (`EvaluatorTimeout`, `TimeoutError`),
    "<Type>: <message>" (any other exception) or "malformed answer <repr>".
    """
    try:
        answer = evaluator(task_id, payload_ref, limits)
    except (EvaluatorTimeout, TimeoutError):
        return 0.0, "timeout"
    except Exception as exc:
        return 0.0, f"{type(exc).__name__}: {exc}"
    if isinstance(answer, numbers.Real) and 0.0 <= answer <= 1.0:
        return float(answer), None
    return 0.0, f"malformed answer {answer!r}"


def evaluate_full(
    payload_ref: str,
    task_ids: Sequence[str],
    evaluator: Evaluator,
    limits: SandboxLimits,
    pool: Optional[ThreadPoolExecutor] = None,
) -> ScoreReport:
    """Gate-free evaluation of one batch of tasks: a staged subset, its rest or a
    validation split. Each task is judged by `score_task`, on `pool` if given,
    else one after another; a failed task scores 0 and logs one warning."""
    judge = partial(score_task, evaluator, payload_ref=payload_ref, limits=limits)
    judged = dict(zip(task_ids, (pool.map if pool else map)(judge, task_ids)))
    for task_id, (_, cause) in judged.items():
        if cause is not None:
            logger.warning("task %s failed for %s: %s", task_id, payload_ref, cause)
    per_task = {t: score for t, (score, _) in judged.items()}
    aggregate = left_sum(per_task.values()) / len(task_ids) if task_ids else 0.0
    return ScoreReport(per_task, gated_out=False, aggregate=aggregate)


def multi_domain_evaluate(
    payload_ref: str,
    domains: Sequence[DomainSpec],
    evaluators: Mapping[str, Evaluator],
    limits: SandboxLimits,
    pool: Optional[ThreadPoolExecutor] = None,
) -> tuple[dict[str, ScoreReport], float]:
    """Joint staged evaluation; any failed gate zero-fills every domain.

    All subsets run first. If any domain's gate fails, no domain is
    evaluated beyond its subset and every report is marked gated out.
    The combined score is the unweighted mean of per-domain aggregates.
    Each batch of tasks (a domain's subset, then its rest) runs through
    `evaluate_full`, on `pool` if given; the scores are the same either way.
    """
    if not domains:
        raise ValueError("at least one domain required")

    subset_scores: dict[str, dict[str, float]] = {}
    any_gate_failed = False
    for domain in domains:
        policy = domain.staged
        subset = domain.task_ids[: policy.subset_size]
        scores = evaluate_full(payload_ref, subset, evaluators[domain.name], limits, pool).per_task
        subset_scores[domain.name] = scores
        successes = sum(1 for s in scores.values() if s > 0.0)
        if not policy.gate.passes(successes, policy.subset_size):
            any_gate_failed = True

    reports: dict[str, ScoreReport] = {}
    for domain in domains:
        policy = domain.staged
        per_task = subset_scores[domain.name]
        if not any_gate_failed:
            rest = domain.task_ids[policy.subset_size : policy.full_size]
            per_task.update(
                evaluate_full(payload_ref, rest, evaluators[domain.name], limits, pool).per_task)
        reports[domain.name] = ScoreReport(
            per_task,
            gated_out=any_gate_failed,
            aggregate=left_sum(per_task.values()) / policy.full_size,
        )

    combined = left_sum(r.aggregate for r in reports.values()) / len(reports)
    return reports, combined


def node_selection_score(node: AgentNode) -> float:
    """Score that drives parent selection: validation where defined, else train.

    The mean over the node's domains, summed in domain-name order: a node
    built in memory holds its domains in config order and a reloaded one in
    sorted order, so name order is the one both give the same bits for. It is
    computed once, when the node is built (`AgentNode.selection_score`); this
    reads it, and raises ValueError for a node without an evaluation record.
    """
    score = node.selection_score
    if score is None:
        raise ValueError(f"node {node.id} has no evaluation record")
    return score


# --- evaluator implementations ----------------------------------------------


class CommandEvaluator:
    """Out-of-process evaluator: JSON request on stdin, JSON response on stdout.

    Request:  {"task_id": ..., "payload_ref": ..., "limits": {...}}
    Response: {"score": <float in [0,1]>, "logs": <locator or null>}
    Non-zero exit, timeout, or a response without a score raise EvaluatorError.
    The score is returned as the JSON holds it, for `score_task` to judge.
    """

    def __init__(self, argv: Sequence[str]):
        if not argv:
            raise ValueError("evaluator command must be non-empty")
        self.argv = tuple(argv)

    def __call__(self, task_id: str, payload_ref: str, limits: SandboxLimits) -> object:
        # the limits' fields are scalars, in field order: no deep copy is needed
        request = {"task_id": task_id, "payload_ref": payload_ref, "limits": vars(limits)}
        try:
            outcome = sandbox_execute(
                self.argv, limits, stdin_data=json.dumps(request).encode("utf-8")
            )
        except SandboxSpawnError as exc:
            raise EvaluatorError(str(exc)) from exc
        if outcome.timed_out:
            raise EvaluatorTimeout(f"evaluator timed out on task {task_id}")
        if outcome.exit_status != 0:
            raise EvaluatorError(
                f"evaluator exited {outcome.exit_status} on task {task_id}: "
                f"{outcome.stderr[:200]!r}"
            )
        try:
            return json.loads(outcome.stdout.decode("utf-8"))["score"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise EvaluatorError(f"malformed evaluator response: {exc}") from exc
