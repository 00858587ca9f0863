from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest

from evoarchive.archive import AgentNode, DomainScores
from evoarchive.evaluation import DomainSpec, Evaluator, ScoreReport, multi_domain_evaluate
from evoarchive.sandbox import SandboxLimits


def make_node(
    node_id: int,
    parent_id: int | None,
    score: float = 0.5,
    compiled: bool = True,
    validation: float | None = None,
    iteration: int | None = None,
) -> AgentNode:
    return AgentNode(
        id=node_id,
        parent_id=parent_id,
        payload_ref=f"payload/{node_id}",
        compiled=compiled,
        scores={"main": DomainScores(train=score, validation=validation)},
        created_at_iteration=node_id if iteration is None else iteration,
    )


def staged_evaluate(
    payload_ref: str,
    domain: DomainSpec,
    evaluator: Evaluator,
    limits: SandboxLimits,
    concurrency: int = 1,
) -> ScoreReport:
    """One-domain `multi_domain_evaluate`: subset, gate, then the rest only if it
    passed; its tasks run on a pool of `concurrency` workers when that is over 1."""
    with ThreadPoolExecutor(concurrency) if concurrency > 1 else nullcontext() as pool:
        reports, _ = multi_domain_evaluate(
            payload_ref, [domain], {domain.name: evaluator}, limits, pool
        )
    return reports[domain.name]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
