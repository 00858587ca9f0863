from __future__ import annotations

import numpy as np
import pytest

from evoarchive.archive import AgentNode, Archive, DomainScores, add_node
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


def random_tree_archive(rng: np.random.Generator, size: int) -> Archive:
    """Random rooted tree with random scores, parents drawn uniformly."""
    arch = Archive(mode_tag="full")
    add_node(arch, make_node(0, None, score=float(rng.random())))
    for node_id in range(1, size):
        parent = int(rng.integers(0, node_id))
        add_node(arch, make_node(node_id, parent, score=float(rng.random())))
    return arch


def staged_evaluate(
    payload_ref: str,
    domain: DomainSpec,
    evaluator: Evaluator,
    limits: SandboxLimits,
    concurrency: int = 1,
) -> ScoreReport:
    """One-domain `multi_domain_evaluate`: subset, gate, then the rest only if it passed."""
    reports, _ = multi_domain_evaluate(
        payload_ref, [domain], {domain.name: evaluator}, limits, concurrency
    )
    return reports[domain.name]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
