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
it, so a live state is always the one its log replays to. The fold holds every
rule of the log, and besides it only `_read_committed`, which finds the commit
lines, reads event kinds. `RunState.archived` keeps every agent the fold
archived, which is what the CLI's `progress` and `impk` metrics read. Resuming
replays the committed iterations and continues the same trajectory.
``archive/``, a view of the log, is written as `run`, `resume` or `step`
returns: mid-run it is missing or stale.
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
from .config import MODES, RunConfig, read_evaluator
from .evaluation import (
    DomainSpec,
    Evaluator,
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
    SyntheticEvaluator,
    generate_child,
    snapshot_payload,
    validate_child,
    SMOKE_TASK,
)
from .rng import stream_id, substream
from .selection import SelectionPolicy, read_keys, sample_parents, selection_distribution

logger = logging.getLogger(__name__)

UNIFORM_FALLBACK = SelectionPolicy(variant="uniform-random")
_BATCH_ENDS = (None, "iteration_complete")  # what precedes a batch's head


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
class RunState:
    """A run as its committed events fold: `completed` once `run_complete` is logged,
    `archived` every agent an `archive_add` or `archive_replace` took in, in id order,
    and `log_bytes` the committed lines' length, where the log ends before a call
    appends. Outside `no-open-ended` mode `archived` holds the archive's own nodes;
    in it, also every agent a later one replaced. `already_complete` is no event's:
    `resume` sets it when the log it loaded already held `run_complete`."""

    archive: Archive
    iteration: int
    event_log: Path
    run_id: Optional[str]
    completed: bool = False
    archived: list[AgentNode] = field(default_factory=list)
    already_complete: bool = False
    log_bytes: int = field(default=0, compare=False)

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


def append_events(path: Path, events: list[dict]) -> int:
    """Append one line per event in one write; return its bytes. An event the reader
    would refuse (a NaN or infinity, an unpaired surrogate, too deep a line, a value
    JSON cannot hold) raises EngineError naming its kind before any byte is appended."""
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
        return fh.write(b"".join(lines))


def read_events(path: Path) -> list[dict]:
    """The committed events: the log's lines up to its last newline-terminated
    `iteration_complete` or `run_complete` line, the commit point."""
    return [event for batch, _ in _read_committed(path) for event in batch]


def _read_committed(path: Path, start: int = 0) -> Iterator[tuple[list[dict], int]]:
    """Each committed batch of the log from byte `start` on (its events up to and
    including a commit line), yielded once that commit line is read, with the log's
    length in bytes up to there. The lines after the last commit (an unfinished
    batch, a torn line) are dropped. A malformed line before a commit raises
    IntegrityError naming the line at that commit, after yielding the events
    that precede it in its batch (the length unchanged): a fold of what this
    yields stops at the first bad line in file order. A line is one RFC 8259
    JSON object in UTF-8, padded by JSON whitespace, that is not too deep (see
    `_check_depth`): no other encoding, no NaN or Infinity, no unpaired
    surrogate."""
    batch: list[dict] = []
    size = start
    error: Optional[IntegrityError] = None
    with open(path, "rb") as fh:
        fh.seek(start)
        for lineno, line in enumerate(fh, start=1):
            try:
                if len(line) > MAX_OPENERS:
                    _check_depth(line)
                event = orjson.loads(line)
                kind = event["event"]
            except (ValueError, KeyError, TypeError) as exc:
                error = error or IntegrityError(
                    f"corrupt event at line {lineno} of {path}: {exc!r}")
                continue
            if error is None:
                batch.append(event)
            if (kind == "iteration_complete" or kind == "run_complete") and line.endswith(b"\n"):
                if error is not None:
                    yield batch, size
                    raise error
                size = fh.tell()
                yield batch, size
                batch = []


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _event(kind: str, iteration: int, **fields) -> dict:
    """A log line after `run_start`: its kind, the time it is built, its iteration
    and `fields`."""
    return {"event": kind, "time": _now(), "iteration": iteration, **fields}


# --- wiring -------------------------------------------------------------------


def build_backend(config: RunConfig, root_payload_ref: str):
    spec = dict(config.backend)
    kind = spec.pop("kind", "simulated")
    if kind == "simulated":
        spec.pop("landscape", None)
        return SimulatedBackend(
            master_seed=config.seed,
            landscape=config.landscape,
            self_improve=config.mode != "no-self-improve",
            root_payload_ref=root_payload_ref,
            evolve_selection_policy=config.mode == "modifiable-selection",
            **spec,
        )
    if kind == "external-process":
        return ExternalProcessBackend(argv=spec["command"], limits=config.limits)
    template = None  # a model-client backend: `RunConfig` admits no other kind
    if config.mode == "dgm-fixed-instruction":
        template_path = config.instruction_template or default_instruction_template()
        template = Path(template_path).read_text(encoding="utf-8")
    return ModelClientBackend(**spec, instruction_template=template)


def build_evaluators(config: RunConfig, evaluator_specs: dict[str, dict]) -> dict[str, Evaluator]:
    """Each domain's evaluator, from its spec (synthetic if none) read by `read_evaluator`;
    a spec keyed by no configured domain is an unknown key."""
    names = [domain.name for domain in config.domains]
    read_keys(evaluator_specs, dict.fromkeys(names, dict), "evaluator_specs.")
    evaluators: dict[str, Evaluator] = {}
    for i, name in enumerate(names):
        spec = read_evaluator(evaluator_specs.get(name, {}), f"domains[{i}].evaluator.")
        evaluators[name] = (CommandEvaluator(spec["command"]) if "command" in spec
                            else SyntheticEvaluator(config.landscape))
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
    identically on resume. `pool` (when `concurrency` > 1) is the call's one
    executor: it runs the root's tasks, then an iteration's slots or, for one
    parent, each child's tasks. Used as a context manager, which shuts it down."""

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
        self.pool = ThreadPoolExecutor(config.concurrency) if config.concurrency > 1 else None

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
        snapshot_payload(initial["payload_ref"], root_dir, copy=True)  # never link the user's files
    else:
        config.root_genome.write_payload(root_dir)
    return str(root_dir)


def _evaluate_payload(runtime: _Runtime, payload_ref: str,
                      pool: Optional[ThreadPoolExecutor]) -> dict:
    """The fields of the `evaluation` event of the payload under key `payload_ref`,
    node id and `selection_score` aside; its tasks run on `pool` if given."""
    config = runtime.config
    path = payload_path(config, payload_ref)
    reports, combined = multi_domain_evaluate(
        path, config.domains, runtime.evaluators, config.limits, pool
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
                pool,
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
        _event("evaluation", iteration, node_id=node_id, **evaluation),
        _event("archive_replace" if replace else "archive_add", iteration, node_id=node_id,
               parent_id=parent_id, payload_ref=evaluation["payload_ref"]),
    ]


def _commit(state: RunState, events: list[dict]) -> None:
    """Fold a batch into `state` by `replay_log`'s fold, then append it to the log:
    the one way a live run's state changes, and the log's one writer. The fold
    gives each `evaluation` event the `selection_score` of its node as archived.
    An inconsistent batch raises before anything is appended, and leaves `state`
    half folded."""
    pending, prior = {}, None
    for event in events:
        prior = _apply_event(state, event, pending, prior)
    state.log_bytes += append_events(state.event_log, events)


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

    evaluation = _evaluate_payload(runtime, ROOT_PAYLOAD_KEY, runtime.pool)
    state = _empty_state(event_log)
    _commit(state, [
        {
            "event": "run_start", "time": _now(), "run_id": run_id,
            "mode": config.mode, "seed": config.seed, "iterations": config.iterations,
        },
        *_archive_events(0, 0, None, evaluation),
        _event("iteration_complete", 0),
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
    events = [
        _event("generation", iteration, slot=slot, parent_id=parent.id,
               modifier_id=0 if config.mode == "no-self-improve" else parent.id,
               child_payload=child_key, compiled=result.compiled,
               wall_time=result.wall_time, validity_log=Path(result.validity_log).name,
               rng=request.rng_stream_id),
        _event("validation", iteration, slot=slot, payload_ref=child_key, ok=result.compiled),
    ]
    if not result.compiled:
        events.append(_event("archive_reject", iteration, slot=slot, parent_id=parent.id,
                             payload_ref=child_key))
        return events, None
    # a slot on the pool must not wait on the pool: its tasks run one after another
    tasks = None if config.parents_per_iteration > 1 else runtime.pool
    return events, _evaluate_payload(runtime, child_key, tasks)


def _step(runtime: _Runtime, state: RunState, head: tuple[dict, ...]) -> None:
    """Run and commit the next iteration; its batch starts with the events `head`."""
    config = runtime.config
    if state.completed or state.iteration >= config.iterations:
        raise EngineError("run already completed")
    iteration = state.iteration + 1
    events: list[dict] = [*head]

    policy, selector_id, fallback = _choose_policy(runtime, state)
    view = [(node_selection_score(n), n.compiled_children) for n in state.archive]
    probabilities = selection_distribution(view, policy)
    sel_stream = stream_id("sel", iteration)
    rng = substream(config.seed, sel_stream)
    parent_indices = sample_parents(probabilities, config.parents_per_iteration, rng)
    parents = [state.archive.nodes[i] for i in parent_indices]
    events.append(_event("selection", iteration, selector_id=selector_id,
                         policy=policy.variant, fallback=fallback,
                         parents=[p.id for p in parents],
                         probabilities=probabilities.tolist(), rng=sel_stream))
    if config.mode == "dgm-fixed-instruction":
        template = config.instruction_template or default_instruction_template()
        for parent in parents:
            events.append(_event("instruction", iteration, parent_id=parent.id,
                                 template=str(template)))

    def slot(j: int) -> tuple[list[dict], Optional[dict]]:
        return _child_slot(runtime, state, iteration, j, parents[j])

    slots = runtime.pool if config.parents_per_iteration > 1 else None
    outcomes = list((slots.map if slots else map)(slot, range(len(parents))))

    node_id = state.next_node_id
    for parent, (slot_events, evaluation) in zip(parents, outcomes):
        events.extend(slot_events)
        if evaluation is not None:
            events.extend(_archive_events(iteration, node_id, parent.id, evaluation,
                                          replace=config.mode == "no-open-ended"))
            node_id += 1

    events.append(_event("iteration_complete", iteration))
    if iteration >= config.iterations:
        events.append(_event("run_complete", iteration))
    _commit(state, events)


def _advance(config: RunConfig, wiring: tuple, until: int, state: Optional[RunState] = None,
             run_id: Optional[str] = None, head: tuple[dict, ...] = ()) -> RunState:
    """The one driver of `run`, `step` and `resume`. On one `_Runtime` (of `config` and
    `wiring`, built before any write): start the run as `run_id` (or "run") when `state`
    is None, else cut the log back to `state.log_bytes` (a stale `state`, one its log is
    shorter than or commits past, raises IntegrityError). Commit iterations up to `until`,
    the first headed by `head`; a run killed just before `run_complete` gets that line,
    after `head` if no batch took it. Then write `archive/`."""
    with _Runtime(config, *wiring) as runtime:
        if state is None:
            state = _start(runtime, run_id or "run")
        elif (size := os.path.getsize(state.event_log)) != state.log_bytes:
            if size < state.log_bytes or next(  # a batch, for a commit line past it
                    _read_committed(state.event_log, state.log_bytes), None):
                raise IntegrityError(f"{state.event_log} has changed since iteration "
                                     f"{state.iteration} was committed: the state is stale")
            os.truncate(state.event_log, state.log_bytes)
        while state.iteration < until:
            _step(runtime, state, head)
            head = ()
    if state.iteration >= config.iterations and not state.completed:
        _commit(state, [*head, _event("run_complete", state.iteration)])
    archive_mod.persist(state.archive, config.state_dir / "archive", run_id=state.run_id)
    return state


def step(
    state: RunState,
    config: RunConfig,
    backend=None,
    evaluators: Optional[dict[str, Evaluator]] = None,
    evaluator_specs: Optional[dict[str, dict]] = None,
) -> RunState:
    """Apply one iteration to `state`, then write `archive/`. Requires iteration < T;
    cuts an uncommitted tail off the log and refuses a stale `state` (`_advance`)."""
    return _advance(config, (backend, evaluators, evaluator_specs), state.iteration + 1, state)


def run(
    config: RunConfig,
    backend=None,
    evaluators: Optional[dict[str, Evaluator]] = None,
    evaluator_specs: Optional[dict[str, dict]] = None,
    run_id: Optional[str] = None,
    stop_after: Optional[int] = None,
) -> RunState:
    """Evaluate the root at t=0, run T iterations (or stop_after), write `archive/`."""
    until = config.iterations if stop_after is None else min(stop_after, config.iterations)
    return _advance(config, (backend, evaluators, evaluator_specs), until, run_id=run_id)


def _empty_state(event_log: Path) -> RunState:
    """The state before a run's first event: no run id until `run_start`."""
    return RunState(Archive(), -1, event_log, None)


def replay_log(event_log: Path) -> RunState:
    """Rebuild a run's state (mode and run id from `run_start`, `log_bytes` the
    committed lines' length) from the committed events of `event_log`; writes
    nothing. Each committed batch is folded as soon as it is parsed, so the fold
    holds the archive plus one batch whatever the log's length. Errors name lines
    of `event_log`. `completed` is set by a `run_complete` event."""
    event_log = Path(event_log)
    state = _empty_state(event_log)
    pending, prior = {}, None
    lineno = 0
    for batch, state.log_bytes in _read_committed(event_log):
        for event in batch:
            lineno += 1
            try:
                prior = _apply_event(state, event, pending, prior)
            except (ValueError, KeyError, TypeError, ArchiveError) as exc:
                raise IntegrityError(
                    f"bad event at line {lineno} of {event_log}: {exc!r}") from exc
    if state.iteration < 0:
        raise IntegrityError(f"{event_log} holds no completed iteration")
    return state


def load_state(config: RunConfig, run_id: Optional[str] = None) -> RunState:
    """`replay_log` of the run's event log, checked against its config: the logged
    run id against `run_id` (if given), then the nodes' scores against the
    config's domains."""
    state = replay_log(config.state_dir / "events.jsonl")
    if run_id is not None and run_id != state.run_id:
        raise RunIdMismatch(run_id, state.run_id)
    _check_score_coverage(state.archive, config.domains)
    return state


def _apply_event(state: RunState, event: dict, pending: dict, prior: Optional[str]) -> str:
    """Fold `event` into `state` by the log's rules (docs/formats.md, Run state), and
    return its kind. `pending` holds unarchived evaluations and their scores by node
    id; `prior` is the previous event's kind (None first in a log or live batch)."""
    kind = event["event"]
    if state.completed:
        raise ValueError(f"{kind} after run_complete: nothing follows it")
    if (kind == "run_start") != (state.run_id is None):
        raise ValueError("run_start must be the first event, and only the first")
    if kind == "run_start":
        if type(event["run_id"]) is not str:
            raise TypeError(f"run_id {event['run_id']!r} is not a string")
        if event["mode"] not in MODES:
            raise ValueError(f"unknown mode {event['mode']!r}")
        state.archive.mode_tag, state.run_id = event["mode"], event["run_id"]
        return kind
    # the iteration rule: the last committed one for `resume` and `run_complete`, else the next
    iteration = event["iteration"]
    if type(iteration) is not int:  # bool is a subclass of int
        raise TypeError(f"iteration {iteration!r} is not an integer")
    if iteration != state.iteration + (kind != "resume" and kind != "run_complete"):
        raise ValueError(f"{kind} at iteration {iteration}, "
                         f"after iteration {state.iteration} completed")
    if kind == "evaluation":  # the most common kind first
        records = event["scores"]
        if type(records) is not dict:
            raise TypeError(f"evaluation scores are a {type(records).__name__}, not an object")
        if not records:
            raise ValueError("evaluation holds no domain's scores")
        built = {}  # a loop, not a comprehension: no function call per event
        for name, record in records.items():
            built[name] = DomainScores(**record)
        pending[event["node_id"]] = event, built
    elif kind == "archive_add" or kind == "archive_replace":
        evaluation, scores = pending.pop(event["node_id"])
        node = AgentNode(event["node_id"], event["parent_id"], event["payload_ref"], True,
                         scores, 0, iteration)
        insert = archive_mod.add_node if kind == "archive_add" else archive_mod.replace_sole_node
        insert(state.archive, node)
        state.archived.append(node)
        evaluation["selection_score"] = node.selection_score  # as the live run logs it
    elif kind == "iteration_complete":
        if pending:  # a batch archives each agent it evaluates, and the first one the root
            raise ValueError(f"node {[*pending][0]!r} is evaluated but not archived in its batch")
        if not state.archived:
            raise ValueError("the run archives no agent, not even the root")
        state.iteration = iteration
    # the place rule: `resume` heads its batch, and `run_complete` may follow it
    elif kind == "run_complete":
        if prior not in _BATCH_ENDS and prior != "resume":
            raise ValueError(f"run_complete after {prior}: it follows iteration_complete "
                             "or heads its batch")
        state.completed = True
    elif kind == "resume" and prior not in _BATCH_ENDS:
        raise ValueError(f"resume after {prior}: it heads its batch")
    return kind


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
    RunIdMismatch before any check of the config's domains or specs, or any write."""
    state = load_state(config, run_id)
    state.already_complete = state.completed
    if state.completed:
        logger.info("run %s already completed at iteration %d; nothing to resume",
                    state.run_id, state.iteration)
    # the `resume` line heads the first batch this writes; a completed run writes none
    until = state.iteration if state.completed else config.iterations
    return _advance(config, (backend, evaluators, evaluator_specs), until, state,
                    head=(_event("resume", state.iteration),))
