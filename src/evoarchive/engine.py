"""The iteration loop: select parents, generate children, evaluate, archive.

Five modes share one loop body:

* full                  -- archive kept, parents modify themselves
* no-self-improve       -- the root agent performs every modification
* no-open-ended         -- the newest valid child replaces the archive and
                           the sole member is always the next parent
* dgm-fixed-instruction -- a templated instruction-generation request
                           precedes each modification
* modifiable-selection  -- the most recently added agent's own selection
                           routine produces the parent distribution, with
                           uniform-random fallback when it errors

One master seed derives a named substream per decision (selection,
per-child generation), so concurrency and resume cannot reorder draws.
The event log records how far a run got, and its events are the only way run
state changes: each iteration builds its batch of events, folds it into the
live `RunState` by the same `_apply_event` that `replay_log` uses, then appends
it, so a live state is always the one its log replays to. Besides the fold,
only `_read_committed` (commit kinds) and `_commit` (archive kinds) read event
kinds. `RunState.archived` keeps every agent the fold archived, which is what
the CLI's `progress` and `impk` metrics read. Resuming replays the committed
iterations and continues the same trajectory. ``archive/``, a view of the
log, is written as `run`, `resume` or `step` returns: mid-run it is missing
or stale.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import orjson

from . import archive as archive_mod
from .archive import AgentNode, Archive, ArchiveError, DomainScores
from .evaluation import (
    DomainSpec,
    Evaluator,
    SyntheticEvaluator,
    CommandEvaluator,
    evaluate_full,
    multi_domain_evaluate,
    node_selection_score,
)
from .generation import (
    ExternalProcessBackend,
    GenerationRequest,
    ModelClientBackend,
    SimulatedBackend,
    generate_child,
    initial_genome,
    snapshot_payload,
    validate_child,
    SMOKE_TASK,
)
from .landscape import TwoPeakLandscape
from .rng import stream_id, substream
from .sandbox import SandboxLimits
from .selection import SelectionPolicy, sample_parents, selection_distribution

logger = logging.getLogger(__name__)

MODES = (
    "full",
    "no-self-improve",
    "no-open-ended",
    "dgm-fixed-instruction",
    "modifiable-selection",
)

UNIFORM_FALLBACK = SelectionPolicy(variant="uniform-random")


class EngineError(Exception):
    pass


class IntegrityError(EngineError):
    """Persisted run state is inconsistent; names the first bad event."""


class RunIdMismatch(EngineError):
    """`resume` was asked for one run id and the log records another."""

    def __init__(self, expected: str, recorded: str):
        super().__init__(f"expected run id {expected}, the log records {recorded}")
        self.expected, self.recorded = expected, recorded


@dataclass
class RunConfig:
    mode: str
    iterations: int
    seed: int
    state_dir: Path
    domains: list[DomainSpec]
    policy: SelectionPolicy = field(default_factory=SelectionPolicy)
    backend: dict = field(default_factory=lambda: {"kind": "simulated"})
    initial: dict = field(default_factory=dict)
    parents_per_iteration: int = 1
    concurrency: int = 1
    limits: SandboxLimits = field(default_factory=SandboxLimits)
    payload_dir: Optional[Path] = None
    instruction_template: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.seed < 2**32:  # `rng.substream` keeps 32 bits of it
            raise ValueError("seed must be in [0, 2**32)")
        if self.parents_per_iteration < 1:
            raise ValueError("parents_per_iteration must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not self.domains:
            raise ValueError("at least one domain required")
        self.state_dir = Path(self.state_dir)
        if self.payload_dir is None:
            self.payload_dir = self.state_dir / "payloads"
        self.payload_dir = Path(self.payload_dir)


@dataclass
class RunState:
    """A run as its committed events fold: `completed` once `run_complete` is
    logged, and `archived` every agent an `archive_add` or `archive_replace`
    took in, in id order. Outside `no-open-ended` mode `archived` holds the
    archive's own nodes; in it, also every agent a later one replaced.
    `already_complete` is no event's: `resume` sets it when the log it loaded
    already held `run_complete`, so it ran nothing."""

    archive: Archive
    iteration: int
    event_log: Path
    run_id: Optional[str]
    completed: bool = False
    archived: list[AgentNode] = field(default_factory=list)
    already_complete: bool = False

    @property
    def next_node_id(self) -> int:
        """The id the next archived agent gets: node ids count up from the root's 0."""
        return self.archive.latest().id + 1 if len(self.archive) else 0


# --- event log ----------------------------------------------------------------


# orjson recurses on the C stack once per nesting level, and a deep enough line
# kills the process: about 4,000 levels on a 256 KB thread stack, and 1,000
# levels need about 96 KB. The engine's lines nest at most 4 deep.
MAX_OPENERS = 1000


def _check_depth(line: bytes) -> None:
    """ValueError for a line of over `MAX_OPENERS` bytes with more `[` and `{`
    bytes than that: it might nest deeper than the decoder can follow."""
    if len(line) > MAX_OPENERS and line.count(b"[") + line.count(b"{") > MAX_OPENERS:
        raise ValueError(f"more than {MAX_OPENERS} '[' and '{{' bytes")


def append_events(path: Path, events: list[dict]) -> None:
    """Append one line per event in one write. An event the reader would refuse
    (a NaN or infinity, an unpaired surrogate, too deep a line, a value JSON
    cannot hold) raises EngineError naming its kind before any byte is appended."""
    lines = []
    for event in events:
        try:
            line = json.dumps(event, sort_keys=True, allow_nan=False).encode("utf-8") + b"\n"
            _check_depth(line)
            if b"\\ud" in line:  # a surrogate escape, which the reader refuses unpaired
                orjson.loads(line)
        except (ValueError, TypeError) as exc:
            raise EngineError(f"cannot log event {event.get('event')!r}: {exc}") from exc
        lines.append(line)
    with open(path, "ab") as fh:
        fh.write(b"".join(lines))


def read_events(path: Path) -> list[dict]:
    """The committed events: the log's lines up to its last newline-terminated
    `iteration_complete` or `run_complete` line, the commit point."""
    return [event for batch, _ in _read_committed(path) for event in batch]


def _read_committed(path: Path) -> Iterator[tuple[list[dict], int]]:
    """Each committed batch of the log (its events up to and including a commit
    line), yielded once that commit line is read, with the length in bytes of
    the lines read so far. The lines after the last commit (an unfinished
    batch, a torn line) are dropped. A malformed line before a commit raises
    IntegrityError naming the line at that commit, after yielding the events
    that precede it in its batch (the length unchanged): a fold of what this
    yields stops at the first bad line in file order. A line is one RFC 8259
    JSON object in UTF-8, padded by JSON whitespace, that is not too deep (see
    `_check_depth`): no other encoding, no NaN or Infinity, no unpaired
    surrogate."""
    batch: list[dict] = []
    size = 0
    error: Optional[IntegrityError] = None
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                _check_depth(line)
                event = orjson.loads(line)
                kind = event["event"]
            except (ValueError, KeyError, TypeError) as exc:
                error = error or IntegrityError(
                    f"corrupt event at line {lineno} of {path}: {exc!r}")
                continue
            if error is None:
                batch.append(event)
            if kind in ("iteration_complete", "run_complete") and line.endswith(b"\n"):
                if error is not None:
                    yield batch, size
                    raise error
                size = fh.tell()
                yield batch, size
                batch = []


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


# --- wiring -------------------------------------------------------------------


def _landscape(config: RunConfig) -> TwoPeakLandscape:
    """The synthetic surface shared by the simulated backend and evaluator."""
    return TwoPeakLandscape(**config.backend.get("landscape", {}))


def build_backend(config: RunConfig, root_payload_ref: str):
    spec = dict(config.backend)
    kind = spec.pop("kind", "simulated")
    if kind == "simulated":
        spec.pop("landscape", None)
        return SimulatedBackend(
            master_seed=config.seed,
            landscape=_landscape(config),
            self_improve=config.mode != "no-self-improve",
            root_payload_ref=root_payload_ref,
            evolve_selection_policy=config.mode == "modifiable-selection",
            **spec,
        )
    if kind == "external-process":
        return ExternalProcessBackend(argv=spec["command"], limits=config.limits)
    if kind == "model-client":
        template = None
        if config.mode == "dgm-fixed-instruction":
            template_path = config.instruction_template or default_instruction_template()
            template = Path(template_path).read_text(encoding="utf-8")
        return ModelClientBackend(
            url=spec["url"],
            token_env=spec.get("token_env", "EVOARCHIVE_TOKEN"),
            instruction_template=template,
        )
    raise ValueError(f"unknown backend kind {kind!r}")


def build_evaluators(config: RunConfig, evaluator_specs: dict[str, dict]) -> dict[str, Evaluator]:
    evaluators: dict[str, Evaluator] = {}
    for domain in config.domains:
        spec = dict(evaluator_specs.get(domain.name, {"kind": "synthetic"}))
        kind = spec.pop("kind", "synthetic")
        if kind == "synthetic":
            evaluators[domain.name] = SyntheticEvaluator(_landscape(config))
        elif kind == "command":
            evaluators[domain.name] = CommandEvaluator(spec["command"])
        else:
            raise ValueError(f"unknown evaluator kind {kind!r} for domain {domain.name}")
    return evaluators


def default_instruction_template() -> Path:
    return Path(__file__).parent / "data" / "fixed_instruction_template.txt"


# --- run/step/resume ----------------------------------------------------------


ROOT_PAYLOAD_KEY = "agent_root"


def payload_path(config: RunConfig, payload_ref: str) -> str:
    """Node payload refs are keys relative to the payload directory."""
    return str(config.payload_dir / payload_ref)


class _Runtime:
    """Wired collaborators for one `run`, `resume` or `step` call; rebuilt
    identically on resume. Used as a context manager, which shuts down the
    pool that runs an iteration's child slots (kept across iterations)."""

    def __init__(
        self,
        config: RunConfig,
        backend=None,
        evaluators: Optional[dict[str, Evaluator]] = None,
        evaluator_specs: Optional[dict[str, dict]] = None,
    ):
        self.config = config
        root_ref = payload_path(config, ROOT_PAYLOAD_KEY)
        self.backend = backend or build_backend(config, root_ref)
        self.evaluators = evaluators or build_evaluators(config, evaluator_specs or {})
        self.smoke_probe = self.evaluators[config.domains[0].name]
        parallel = config.parents_per_iteration > 1 and config.concurrency > 1
        self.pool = ThreadPoolExecutor(max_workers=config.concurrency) if parallel else None

    def __enter__(self) -> "_Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def _init_root_payload(config: RunConfig) -> str:
    root_dir = config.payload_dir / ROOT_PAYLOAD_KEY
    # an interrupted earlier start may have left a partial root behind
    if root_dir.exists():
        shutil.rmtree(root_dir)
    initial = config.initial
    if initial.get("payload_ref"):
        snapshot_payload(initial["payload_ref"], root_dir)
    else:
        initial_genome(initial).write_payload(root_dir)
    return str(root_dir)


def _evaluate_payload(runtime: _Runtime, payload_ref: str, task_concurrency: int) -> dict:
    """The fields of the `evaluation` event of the payload under key `payload_ref`,
    node id and `selection_score` aside."""
    config = runtime.config
    path = payload_path(config, payload_ref)
    reports, combined = multi_domain_evaluate(
        path, config.domains, runtime.evaluators, config.limits, task_concurrency
    )
    any_gated = any(r.gated_out for r in reports.values())
    validation: dict[str, float] = {}
    for domain in config.domains:
        if domain.has_validation:
            validation[domain.name] = 0.0 if any_gated else evaluate_full(
                path,
                domain.validation_task_ids,
                runtime.evaluators[domain.name],
                config.limits,
                task_concurrency,
            ).aggregate
    return {
        "payload_ref": payload_ref,
        "scores": {
            name: {"train": r.aggregate, "validation": validation.get(name), "test": None}
            for name, r in reports.items()
        },
        "combined": combined,
        "gated_out": {name: r.gated_out for name, r in reports.items()},
        "aggregates": {name: r.aggregate for name, r in reports.items()},
        "validation": validation,
    }


def _archive_events(iteration: int, node_id: int, parent_id: Optional[int], evaluation: dict,
                    replace: bool = False) -> list[dict]:
    """The `evaluation` and `archive_add` (or `archive_replace`) events that
    archive an agent evaluated as `evaluation` under id `node_id`."""
    return [
        {"event": "evaluation", "time": _now(), "iteration": iteration, "node_id": node_id,
         **evaluation},
        {"event": "archive_replace" if replace else "archive_add", "time": _now(),
         "iteration": iteration, "node_id": node_id, "parent_id": parent_id,
         "payload_ref": evaluation["payload_ref"]},
    ]


def _commit(state: RunState, events: list[dict]) -> None:
    """Fold a batch into `state` by `replay_log`'s fold, then append it to the log:
    the one way a live run's state changes. Each `evaluation` event gets the
    `selection_score` of its node as archived. An inconsistent batch raises
    before anything is appended, and leaves `state` half folded."""
    scores: dict[int, dict[str, DomainScores]] = {}
    evaluations = {e["node_id"]: e for e in events if e["event"] == "evaluation"}
    for event in events:
        _apply_event(state, event, scores)
        if event["event"] in ("archive_add", "archive_replace"):
            node = state.archived[-1]
            evaluations[node.id]["selection_score"] = node_selection_score(node)
    append_events(state.event_log, events)


def _start(runtime: _Runtime, run_id: str) -> RunState:
    config = runtime.config
    config.state_dir.mkdir(parents=True, exist_ok=True)
    config.payload_dir.mkdir(parents=True, exist_ok=True)
    event_log = config.state_dir / "events.jsonl"
    event_log.unlink(missing_ok=True)
    if (config.state_dir / "archive").exists():
        shutil.rmtree(config.state_dir / "archive")

    root_path = _init_root_payload(config)
    ok, cause = validate_child(root_path, SMOKE_TASK, config.limits, runtime.smoke_probe)
    if not ok:
        raise EngineError(f"initial agent payload failed validity check: {cause}")

    evaluation = _evaluate_payload(runtime, ROOT_PAYLOAD_KEY, config.concurrency)
    state = _empty_state(event_log)
    _commit(state, [
        {
            "event": "run_start", "time": _now(), "run_id": run_id,
            "mode": config.mode, "seed": config.seed, "iterations": config.iterations,
        },
        *_archive_events(0, 0, None, evaluation),
        {"event": "iteration_complete", "time": _now(), "iteration": 0},
    ])
    return state


def _choose_policy(
    runtime: _Runtime, state: RunState
) -> tuple[SelectionPolicy, Optional[int], bool]:
    config = runtime.config
    if config.mode != "modifiable-selection":
        return config.policy, None, False
    latest = state.archive.latest()
    try:
        policy = runtime.backend.selection_policy_of(
            payload_path(config, latest.payload_ref)
        )
        return policy, latest.id, False
    except Exception as exc:
        logger.warning("latest agent's selection routine failed (%s); uniform fallback", exc)
        return UNIFORM_FALLBACK, latest.id, True


def _child_slot(
    runtime: _Runtime, state: RunState, iteration: int, slot: int, parent: AgentNode
) -> tuple[list[dict], Optional[dict]]:
    """Generate, settle and evaluate one child; pure with respect to shared state.
    Returns the slot's `generation`, `validation` and (for a child that did not
    compile) `archive_reject` events, and a compiled child's evaluation fields."""
    config = runtime.config
    child_key = f"cand_{iteration:05d}_{slot}"
    request = GenerationRequest(
        parent_payload_ref=payload_path(config, parent.payload_ref),
        eval_results_ref=str(state.event_log),
        iterations_left=config.iterations - state.iteration,
        rng_stream_id=stream_id("gen", iteration, slot),
        child_payload_ref=payload_path(config, child_key),
    )
    result = generate_child(runtime.backend, request, runtime.smoke_probe, config.limits)
    head = {"time": _now(), "iteration": iteration, "slot": slot}
    events = [
        {
            "event": "generation", **head, "parent_id": parent.id,
            "modifier_id": 0 if config.mode == "no-self-improve" else parent.id,
            "child_payload": child_key, "compiled": result.compiled,
            "wall_time": result.wall_time, "validity_log": Path(result.validity_log).name,
            "rng": request.rng_stream_id,
        },
        {"event": "validation", **head, "payload_ref": child_key, "ok": result.compiled},
    ]
    if not result.compiled:
        events.append({"event": "archive_reject", **head, "parent_id": parent.id,
                       "payload_ref": child_key})
        return events, None
    task_concurrency = 1 if config.parents_per_iteration > 1 else config.concurrency
    return events, _evaluate_payload(runtime, child_key, task_concurrency)


def _step(runtime: _Runtime, state: RunState) -> RunState:
    config = runtime.config
    if state.iteration >= config.iterations:
        raise EngineError("run already completed")
    iteration = state.iteration + 1
    events: list[dict] = []

    policy, selector_id, fallback = _choose_policy(runtime, state)
    view = [(node_selection_score(n), n.compiled_children) for n in state.archive]
    breakdown = selection_distribution(view, policy)
    sel_stream = stream_id("sel", iteration)
    rng = substream(config.seed, sel_stream)
    parent_indices = sample_parents(breakdown, config.parents_per_iteration, rng)
    parents = [state.archive.nodes[i] for i in parent_indices]
    events.append(
        {
            "event": "selection", "time": _now(), "iteration": iteration,
            "selector_id": selector_id, "policy": policy.variant,
            "fallback": fallback, "parents": [p.id for p in parents],
            "probabilities": breakdown.probabilities.tolist(),
            "rng": sel_stream,
        }
    )
    if config.mode == "dgm-fixed-instruction":
        template = config.instruction_template or default_instruction_template()
        for parent in parents:
            events.append(
                {
                    "event": "instruction", "time": _now(), "iteration": iteration,
                    "parent_id": parent.id, "template": str(template),
                }
            )

    def slot(j: int) -> tuple[list[dict], Optional[dict]]:
        return _child_slot(runtime, state, iteration, j, parents[j])

    if runtime.pool is not None:
        outcomes = list(runtime.pool.map(slot, range(len(parents))))
    else:
        outcomes = [slot(j) for j in range(len(parents))]

    node_id = state.next_node_id
    for parent, (slot_events, evaluation) in zip(parents, outcomes):
        events.extend(slot_events)
        if evaluation is not None:
            events.extend(_archive_events(iteration, node_id, parent.id, evaluation,
                                          replace=config.mode == "no-open-ended"))
            node_id += 1

    events.append({"event": "iteration_complete", "time": _now(), "iteration": iteration})
    if iteration >= config.iterations:
        events.append({"event": "run_complete", "time": _now(), "iteration": iteration})
    _commit(state, events)
    return state


def step(
    state: RunState,
    config: RunConfig,
    backend=None,
    evaluators: Optional[dict[str, Evaluator]] = None,
    evaluator_specs: Optional[dict[str, dict]] = None,
) -> RunState:
    """Apply one iteration to `state`, then write `archive/`. Requires iteration < T."""
    with _Runtime(config, backend, evaluators, evaluator_specs) as runtime:
        state = _step(runtime, state)
    archive_mod.persist(state.archive, config.state_dir / "archive", run_id=state.run_id)
    return state


def run(
    config: RunConfig,
    backend=None,
    evaluators: Optional[dict[str, Evaluator]] = None,
    evaluator_specs: Optional[dict[str, dict]] = None,
    run_id: Optional[str] = None,
    stop_after: Optional[int] = None,
) -> RunState:
    """Evaluate the root at t=0, run T iterations (or stop_after), write `archive/`."""
    with _Runtime(config, backend, evaluators, evaluator_specs) as runtime:
        state = _start(runtime, run_id or "run")
        limit = config.iterations if stop_after is None else min(stop_after, config.iterations)
        while state.iteration < limit:
            state = _step(runtime, state)
    archive_mod.persist(state.archive, config.state_dir / "archive", run_id=state.run_id)
    return state


def _empty_state(event_log: Path) -> RunState:
    """The state before a run's first event: no run id until `run_start`."""
    return RunState(Archive(), -1, event_log, None)


def replay_log(event_log: Path) -> tuple[RunState, int]:
    """Rebuild a run's state (mode and run id from `run_start`) from the committed
    events of `event_log`, and the committed lines' length in bytes; writes
    nothing. Each committed batch is folded as soon as it is parsed, so the fold
    holds the archive plus one batch whatever the log's length. Errors name lines
    of `event_log`; a log that archives no agent, not even the root its first
    commit holds, raises naming the log. `completed` is set by a `run_complete`
    event."""
    event_log = Path(event_log)
    state = _empty_state(event_log)
    scores: dict[int, dict[str, DomainScores]] = {}
    lineno = committed = 0
    for batch, committed in _read_committed(event_log):
        for event in batch:
            lineno += 1
            try:
                _apply_event(state, event, scores)
            except (ValueError, KeyError, TypeError, ArchiveError) as exc:
                raise IntegrityError(
                    f"bad event at line {lineno} of {event_log}: {exc!r}") from exc
    if state.iteration < 0:
        raise IntegrityError(f"{event_log} holds no completed iteration")
    if not state.archived:
        raise IntegrityError(f"{event_log} archives no agent, not even the root")
    return state, committed


def load_state(config: RunConfig) -> RunState:
    """`replay_log` of the run's event log, checked against its config."""
    return _load_checked(config)[0]


def _load_checked(config: RunConfig, run_id: Optional[str] = None) -> tuple[RunState, int]:
    """`load_state` and the committed lines' length in bytes: checks the logged
    run id against `run_id` (if given), then the nodes' scores against the
    config's domains."""
    state, committed = replay_log(config.state_dir / "events.jsonl")
    if run_id is not None and run_id != state.run_id:
        raise RunIdMismatch(run_id, state.run_id)
    _check_score_coverage(state.archive, config.domains)
    return state, committed


def _apply_event(state: RunState, event: dict, scores: dict[int, dict[str, DomainScores]]) -> None:
    kind = event["event"]
    if (kind == "run_start") != (state.run_id is None):
        raise ValueError("run_start must be the first event, and only the first")
    if kind == "evaluation":
        if type(event["scores"]) is not dict:
            raise TypeError(f"evaluation scores are a {type(event['scores']).__name__}, "
                            "not an object")
        if not event["scores"]:
            raise ValueError("evaluation holds no domain's scores")
        scores[event["node_id"]] = {k: DomainScores(**s) for k, s in event["scores"].items()}
    elif kind in ("archive_add", "archive_replace"):
        node = AgentNode(event["node_id"], event["parent_id"], event["payload_ref"],
                         compiled=True, scores=scores.pop(event["node_id"]),
                         created_at_iteration=event["iteration"])
        insert = archive_mod.add_node if kind == "archive_add" else archive_mod.replace_sole_node
        insert(state.archive, node)
        state.archived.append(node)
    elif kind == "iteration_complete":
        if type(event["iteration"]) is not int:  # bool is a subclass of int
            raise TypeError(f"iteration {event['iteration']!r} is not an integer")
        state.iteration = event["iteration"]
    elif kind == "run_start":
        state.archive.mode_tag, state.run_id = event["mode"], event["run_id"]
    elif kind == "run_complete":
        state.completed = True


_RECORD_KINDS = {
    None: "no record",
    False: "a record without a validation score",
    True: "a record with a validation score",
}


def _check_score_coverage(arch: Archive, domains: list[DomainSpec]) -> None:
    """Every node holds a record for exactly the configured domains, with a
    validation score exactly where the domain has a validation split, so its
    `node_selection_score` is the configured selection score."""
    expected = {d.name: d.has_validation for d in domains}
    for node in arch:
        held = {name: s.validation is not None for name, s in node.scores.items()}
        for name in sorted(expected.keys() | held.keys()):
            if held.get(name) != expected.get(name):
                raise IntegrityError(
                    f"node {node.id} holds {_RECORD_KINDS[held.get(name)]} for domain "
                    f"{name!r}; the config expects {_RECORD_KINDS[expected.get(name)]}"
                )


def resume(
    config: RunConfig,
    backend=None,
    evaluators: Optional[dict[str, Evaluator]] = None,
    evaluator_specs: Optional[dict[str, dict]] = None,
    run_id: Optional[str] = None,
) -> RunState:
    """Cut the log back to its last commit, continue the run to completion and
    rewrite `archive/` from it; for a completed run that rebuilds `archive/` alone
    and sets `already_complete`. A `run_id` other than the logged one raises
    RunIdMismatch before any check of the config's domains or any write."""
    state, committed = _load_checked(config, run_id)
    os.truncate(state.event_log, committed)
    if state.completed:
        logger.info("run %s already completed at iteration %d; nothing to resume",
                    state.run_id, state.iteration)
        state.already_complete = True
    else:
        with _Runtime(config, backend, evaluators, evaluator_specs) as runtime:
            append_events(state.event_log,
                          [{"event": "resume", "time": _now(), "iteration": state.iteration}])
            while state.iteration < config.iterations:
                state = _step(runtime, state)
        if not state.completed:  # killed between its last commit and `run_complete`
            _commit(state, [{"event": "run_complete", "time": _now(),
                             "iteration": state.iteration}])
    archive_mod.persist(state.archive, config.state_dir / "archive", run_id=state.run_id)
    return state
