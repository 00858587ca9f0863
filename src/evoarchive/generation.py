"""Turning a selected parent into a candidate child.

Three interchangeable backends share one contract: simulated (a genome
on the synthetic fitness surface, used for tests and desk-scale runs),
external-process (a configured command run inside the sandbox), and
model-client (one HTTPS request per child against a remote endpoint).

A backend's `generate(request)` writes the child payload at
`request.child_payload_ref` and returns None, or the cause of a breach
(``"timeout"``, ``"exit 9"``, ``"malformed response: ..."``) when it could
not produce a child; it raises `GenerationError` only when it cannot go on
at all. `generate_child` settles everything else in one place: it times the
backend, probes a child that reported no breach, writes the child's one
validity log and builds its `GenerationResult`.

A child is "compiled" only if no breach was reported and `validate_child`
accepts it: the payload must load and produce a well-formed answer to one
smoke task within the resource limits. Non-compiled children never enter
the archive.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .evaluation import Evaluator, EvaluatorError, score_task
from .landscape import DEFAULT_LANDSCAPE, TwoPeakLandscape
from .rng import substream
from .sandbox import SandboxLimits, SandboxSpawnError, sandbox_execute
from .selection import SelectionPolicy

logger = logging.getLogger(__name__)

SMOKE_TASK = "smoke"


class GenerationError(Exception):
    """Unrecoverable backend failure (distinct from an invalid child)."""


@dataclass(frozen=True)
class GenerationRequest:
    parent_payload_ref: str
    eval_results_ref: str
    iterations_left: int
    rng_stream_id: str
    child_payload_ref: str

    def __post_init__(self) -> None:
        if self.iterations_left < 0:
            raise ValueError("iterations_left must be non-negative")


@dataclass(frozen=True)
class GenerationResult:
    child_payload_ref: str
    compiled: bool
    validity_log: str
    wall_time: float


@dataclass
class SimulatedAgentGenome:
    """Desk-scale stand-in for a modifiable agent program.

    task_skill is a position on the synthetic fitness surface;
    meta_capability scales how well the agent's own modification step
    works (the "improving the ability to improve" knob); the selection
    policy field only matters in the modifiable-selection mode.
    """

    task_skill: list[float]
    meta_capability: float
    compile_probability: float
    selection_policy: Optional[dict] = None

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.task_skill):
            raise ValueError("task_skill must be finite")
        if not 0.0 <= self.meta_capability <= 1.0:
            raise ValueError("meta_capability must be in [0, 1]")
        if not 0.0 <= self.compile_probability <= 1.0:
            raise ValueError("compile_probability must be in [0, 1]")

    def to_json(self) -> str:
        doc = {
            "task_skill": [repr(float(v)) for v in self.task_skill],
            "meta_capability": repr(float(self.meta_capability)),
            "compile_probability": repr(float(self.compile_probability)),
            "selection_policy": self.selection_policy,
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_dict(cls, raw) -> "SimulatedAgentGenome":
        """The genome that a decoded genome document describes; ValueError,
        KeyError or TypeError refuse any other document."""
        return cls(
            task_skill=[float(v) for v in raw["task_skill"]],
            meta_capability=float(raw["meta_capability"]),
            compile_probability=float(raw["compile_probability"]),
            selection_policy=raw.get("selection_policy"),
        )

    @classmethod
    def from_payload(cls, payload_ref: str | Path) -> "SimulatedAgentGenome":
        """The genome in the payload's `genome.json`. GenerationError names a file
        that is torn, not UTF-8 or not a genome; OSError one that cannot be read."""
        path = Path(payload_ref) / "genome.json"
        try:
            return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            raise GenerationError(f"unreadable genome {path}: {exc!r}") from exc

    def write_payload(self, payload_ref: str | Path) -> None:
        path = Path(payload_ref)
        path.mkdir(parents=True, exist_ok=True)
        (path / "genome.json").write_text(self.to_json(), encoding="utf-8")


def initial_genome(initial: dict) -> SimulatedAgentGenome:
    """The root agent's genome as a config's `initial` section describes it;
    its `payload_ref` key, when set, replaces this genome with a copied payload."""
    return SimulatedAgentGenome.from_dict(
        {"task_skill": [0.0, 0.0], "meta_capability": 0.15, "compile_probability": 0.95,
         **initial})


def snapshot_payload(
    parent_dir: str | Path, child_dir: str | Path, skip: Optional[str] = None, copy: bool = False
) -> None:
    """Make `child_dir`, which must not exist yet, and hardlink every file of
    `parent_dir` into it at the same relative path, in one `os.scandir` walk
    per directory. A top-level entry named `skip` is left out for the caller
    to write anew: writing through a hardlink would change the parent too.
    `copy` copies each file with its mode instead: no shared inode, any device."""
    Path(child_dir).mkdir(parents=True)
    with os.scandir(parent_dir) as entries:
        for entry in entries:
            if entry.name == skip:
                continue
            target = os.path.join(child_dir, entry.name)
            if not entry.is_dir():
                (shutil.copy if copy else os.link)(entry.path, target)
            elif entry.is_symlink():
                os.mkdir(target)  # a linked directory is not descended into
            else:
                snapshot_payload(entry.path, target, copy=copy)


def validate_child(
    payload_ref: str | Path,
    smoke_task: str,
    limits: SandboxLimits,
    probe: Evaluator,
) -> tuple[bool, str]:
    """True iff `score_task` accepts the payload's answer to one smoke task.

    Failures never raise; they return False plus the logged cause.
    """
    _, cause = score_task(probe, smoke_task, str(payload_ref), limits)
    if cause is None:
        return True, "ok"
    logger.info("validity check failed for %s: %s", payload_ref, cause)
    return False, cause


def _write_validity_log(child_dir: str | Path, compiled: bool, cause: str) -> str:
    path = Path(child_dir).parent / (Path(child_dir).name + ".validity.log")
    path.write_text(f"compiled={compiled}\ncause={cause}\n", encoding="utf-8")
    return str(path)


@dataclass(eq=False)
class SyntheticEvaluator:
    """In-process evaluator: a simulated agent's fitness on the synthetic surface.
    It reads the agent by `from_payload`, as the backend does, so as the validity
    probe it accepts exactly the payloads that the backend can read."""

    landscape: TwoPeakLandscape = DEFAULT_LANDSCAPE

    def __call__(self, task_id: str, payload_ref: str, limits: SandboxLimits) -> float:
        try:
            genome = SimulatedAgentGenome.from_payload(payload_ref)
        except (OSError, GenerationError) as exc:
            raise EvaluatorError(str(exc)) from exc
        return self.landscape.fitness(genome.task_skill)


@dataclass(eq=False)
class SimulatedBackend:
    """Genome mutation on the synthetic fitness surface.

    The modification step draws k candidate points around the parent and
    keeps the best by surface fitness; both the candidate count and the
    reach of the occasional long-range ("bold") draws grow with the acting
    meta capability, so informed exploration is an evolved ability. The
    meta capability itself takes a clipped Gaussian step with a slight
    downward drift when self-improvement is enabled: capability regresses
    unless something retains the rare upward mutations. When
    self-improvement is off, the frozen root genome's value drives step
    quality and children inherit their parent's value untouched.
    """

    master_seed: int
    landscape: TwoPeakLandscape = DEFAULT_LANDSCAPE
    self_improve: bool = True
    root_payload_ref: Optional[str] = None
    evolve_selection_policy: bool = False
    step_sigma: float = 0.1
    bold_probability: float = 0.4
    bold_base: float = 0.25
    bold_meta_gain: float = 2.5
    meta_sigma: float = 0.2
    meta_drift: float = -0.01
    max_probes: int = 10
    mutation_scale: float = 1.0
    _root_meta: Optional[float] = field(default=None, init=False, repr=False)

    def _acting_meta(self, parent: SimulatedAgentGenome) -> float:
        if self.self_improve:
            return parent.meta_capability
        if self._root_meta is None:
            if self.root_payload_ref is None:
                raise GenerationError("no-self-improve backend needs the root payload")
            self._root_meta = SimulatedAgentGenome.from_payload(
                self.root_payload_ref
            ).meta_capability
        return self._root_meta

    def generate(self, request: GenerationRequest) -> None:
        rng = substream(self.master_seed, request.rng_stream_id)
        parent = SimulatedAgentGenome.from_payload(request.parent_payload_ref)
        meta_acting = self._acting_meta(parent)

        compiles = bool(rng.random() < parent.compile_probability)
        scale = self.step_sigma * self.mutation_scale
        if rng.random() < self.bold_probability:
            # occasional long-range draw; reach grows with the acting meta
            # capability, so informed exploration is an evolved ability
            scale = (self.bold_base + self.bold_meta_gain * meta_acting) * self.mutation_scale
        probes = max(1, 1 + int(meta_acting * (self.max_probes - 1)))
        skill = np.asarray(parent.task_skill, dtype=float)
        candidates = skill + scale * rng.normal(0.0, 1.0, size=(probes, skill.size))
        best = max(range(probes), key=lambda i: self.landscape.fitness(candidates[i]))
        child_skill = candidates[best]

        if self.self_improve:
            # drifts down on average: capability regresses unless selection
            # keeps rediscovered improvements alive
            meta_step = (
                rng.normal(0.0, 1.0) * self.meta_sigma + self.meta_drift
            ) * self.mutation_scale
            child_meta = float(np.clip(parent.meta_capability + meta_step, 0.0, 1.0))
        else:
            child_meta = parent.meta_capability

        policy = parent.selection_policy
        if self.evolve_selection_policy:
            policy = _mutate_policy_spec(policy, rng)

        if compiles:
            genome = SimulatedAgentGenome(
                task_skill=[float(v) for v in child_skill],
                meta_capability=child_meta,
                compile_probability=parent.compile_probability,
                selection_policy=policy,
            ).to_json()
        else:
            genome = "{broken payload"
        snapshot_payload(request.parent_payload_ref, request.child_payload_ref, skip="genome.json")
        (Path(request.child_payload_ref) / "genome.json").write_text(genome, encoding="utf-8")

    def selection_policy_of(self, payload_ref: str) -> SelectionPolicy:
        """Selection routine carried by an agent payload; raises when absent/invalid."""
        genome = SimulatedAgentGenome.from_payload(payload_ref)
        return SelectionPolicy.from_dict(genome.selection_policy)


def _mutate_policy_spec(spec: Optional[dict], rng: np.random.Generator) -> Optional[dict]:
    if rng.random() >= 0.25:
        return spec
    variant = ["uniform-random", "softmax", "ucb", "score-child-prop"][int(rng.integers(4))]
    if variant == "softmax":
        return {"variant": variant, "temperature": float(0.05 + rng.random())}
    if variant == "ucb":
        return {
            "variant": variant,
            "exploration_weight": float(rng.random() * 2.0),
            "stagnation_boost": bool(rng.random() < 0.5),
        }
    if variant == "score-child-prop":
        return {
            "variant": variant,
            "sharpness": float(1.0 + rng.random() * 19.0),
            "midpoint_pool_size": int(rng.integers(1, 6)),
        }
    return {"variant": variant}


class _PolicyFileBackend:
    """Backends whose agents carry their selection routine as `selection_policy.json`."""

    def selection_policy_of(self, payload_ref: str) -> SelectionPolicy:
        spec_path = Path(payload_ref) / "selection_policy.json"
        return SelectionPolicy.from_dict(json.loads(spec_path.read_text(encoding="utf-8")))


class ExternalProcessBackend(_PolicyFileBackend):
    """Child generation via a configured command running inside the sandbox.

    The command receives one JSON request on stdin (parent payload locator,
    output locator for the child payload, evaluation results locator,
    iterations left, substream id) and must populate the child directory
    before exiting 0.
    """

    def __init__(self, argv: Sequence[str], limits: SandboxLimits):
        if not argv:
            raise ValueError("generation command must be non-empty")
        self.argv = tuple(argv)
        self.limits = limits

    def generate(self, request: GenerationRequest) -> Optional[str]:
        Path(request.child_payload_ref).mkdir(parents=True, exist_ok=True)
        doc = {
            "parent_payload_ref": request.parent_payload_ref,
            "child_payload_ref": request.child_payload_ref,
            "eval_results_ref": request.eval_results_ref,
            "iterations_left": request.iterations_left,
            "rng_stream_id": request.rng_stream_id,
        }
        try:
            outcome = sandbox_execute(
                self.argv, self.limits, stdin_data=json.dumps(doc).encode("utf-8")
            )
        except SandboxSpawnError as exc:
            raise GenerationError(str(exc)) from exc
        if outcome.timed_out:
            return "timeout"
        return f"exit {outcome.exit_status}" if outcome.exit_status != 0 else None


@dataclass(eq=False)
class ModelClientBackend(_PolicyFileBackend):
    """Child generation through one HTTPS request per child.

    One request carries the parent payload bundle, evaluation summaries,
    the remaining iteration budget, and instruction text; the response
    returns the child payload as a file bundle which is materialized at
    the requested location. The endpoint URL and the bearer-token
    environment variable name come from configuration. When an
    instruction template is configured (fixed-instruction mode), an
    instruction-generation request is sent first and its output becomes
    the modification request's instruction text.
    """

    url: str
    token_env: str = "EVOARCHIVE_TOKEN"
    instruction_template: Optional[str] = None
    transport: Optional[Callable[[dict], dict]] = None
    timeout: float = 120.0

    def __post_init__(self) -> None:
        self.transport = self.transport or self._http_post

    def _http_post(self, document: dict) -> dict:
        # imported here: urllib.request pulls ssl and http.client into every process
        import urllib.error
        import urllib.request

        token = os.environ.get(self.token_env, "")
        request = urllib.request.Request(
            self.url,
            data=json.dumps(document).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {token}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, ValueError) as exc:
            raise GenerationError(f"model client request failed: {exc}") from exc

    @staticmethod
    def _bundle(payload_ref: str) -> dict[str, str]:
        root = Path(payload_ref)
        # `rglob` of a missing directory yields nothing: an empty bundle
        if not root.is_dir():
            raise GenerationError(f"payload directory {root} is missing")
        bundle = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                try:
                    bundle[str(path.relative_to(root))] = path.read_text(encoding="utf-8")
                except UnicodeDecodeError as exc:
                    raise GenerationError(
                        f"payload file {path} is not UTF-8 text: {exc}") from exc
        return bundle

    def generate(self, request: GenerationRequest) -> Optional[str]:
        instruction = "Modify any part of the agent payload to improve it."
        parent_payload = self._bundle(request.parent_payload_ref)
        if self.instruction_template is not None:
            instruction_doc = {
                "kind": "instruction-generation",
                "template": self.instruction_template,
                "parent_payload": parent_payload,
                "eval_results_ref": request.eval_results_ref,
            }
            generated = self.transport(instruction_doc)
            if not isinstance(generated, dict):
                raise GenerationError(
                    f"instruction-generation response is not a JSON object: {generated!r:.200}")
            instruction = generated.get("instruction", instruction)
        doc = {
            "kind": "modification",
            "parent_payload": parent_payload,
            "eval_results_ref": request.eval_results_ref,
            "iterations_left": request.iterations_left,
            "instruction": instruction,
        }
        response = self.transport(doc)
        child_dir = Path(request.child_payload_ref)
        child_dir.mkdir(parents=True, exist_ok=True)
        try:
            bundle = response["child_payload"]
            targets = {rel: _bundle_target(child_dir, rel) for rel in bundle}
            files = set(targets.values())
            for rel, target in targets.items():
                if files.intersection(target.parents):
                    raise ValueError(f"bundle key {rel!r} lies below another file key")
            for rel, content in bundle.items():
                targets[rel].parent.mkdir(parents=True, exist_ok=True)
                targets[rel].write_text(content, encoding="utf-8")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            return f"malformed response: {exc}"
        return None


def _bundle_target(child_dir: Path, rel: str) -> Path:
    """Where bundle key `rel` is written: a relative path strictly inside `child_dir`."""
    root = child_dir.resolve()
    target = (root / rel).resolve()
    if not rel or os.path.isabs(rel) or target == root or not target.is_relative_to(root):
        raise ValueError(f"bundle key {rel!r} is not a relative path inside the child directory")
    return target


def generate_child(
    backend,
    request: GenerationRequest,
    smoke_probe: Evaluator,
    limits: SandboxLimits,
) -> GenerationResult:
    """Run the backend into an empty child directory and settle the child.

    `wall_time` is the time `backend.generate` took. A breach the backend
    reports is the child's cause and the child is never probed; otherwise
    `validate_child` decides. Either way the cause goes to the child's one
    validity log, ``<child>.validity.log`` beside the child directory.
    """
    # a retried iteration must not see files an interrupted attempt left behind
    if os.path.exists(request.child_payload_ref):
        shutil.rmtree(request.child_payload_ref)
    start = time.monotonic()
    breach = backend.generate(request)
    wall_time = time.monotonic() - start
    if breach:
        compiled, cause = False, breach
    else:
        compiled, cause = validate_child(request.child_payload_ref, SMOKE_TASK, limits, smoke_probe)
    log = _write_validity_log(request.child_payload_ref, compiled, cause)
    return GenerationResult(request.child_payload_ref, compiled, log, wall_time)
