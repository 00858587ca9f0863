"""Open-ended, archive-based self-improvement engine for agent variants."""

from .archive import AgentNode, Archive, DomainScores
from .engine import MODES, RunConfig, RunState, resume, run, step
from .evaluation import DomainSpec, Gate, ScoreReport, StagedEvalPolicy
from .metrics import GrowthScoreParams, bootstrap_ci, improvement_at_k
from .sandbox import SandboxLimits, SandboxOutcome, sandbox_execute
from .selection import SelectionPolicy, selection_distribution

__version__ = "0.1.0"

__all__ = [
    "AgentNode",
    "Archive",
    "DomainScores",
    "DomainSpec",
    "Gate",
    "GrowthScoreParams",
    "MODES",
    "RunConfig",
    "RunState",
    "SandboxLimits",
    "SandboxOutcome",
    "ScoreReport",
    "SelectionPolicy",
    "StagedEvalPolicy",
    "bootstrap_ci",
    "improvement_at_k",
    "resume",
    "run",
    "sandbox_execute",
    "selection_distribution",
    "step",
]
