from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import re
from pathlib import Path

import pytest

from evoarchive import archive as archive_mod
from evoarchive.archive import DomainScores, fingerprint
from evoarchive.engine import (
    _commit,
    _read_committed,
    EngineError,
    IntegrityError,
    MODES,
    RunConfig,
    RunIdMismatch,
    append_events,
    load_state,
    read_events,
    replay_log,
    resume,
    run,
    step,
)
from evoarchive.evaluation import (
    DomainSpec,
    Gate,
    StagedEvalPolicy,
    SyntheticEvaluator,
    node_selection_score,
)
from evoarchive.generation import SimulatedAgentGenome
from evoarchive.sandbox import SandboxLimits
from evoarchive.selection import SelectionPolicy

LIMITS = SandboxLimits(wall_clock_seconds=10.0, cpu_seconds=10, max_output_bytes=100_000)


def landscape_domain(n_tasks: int = 3, subset: int = 1, has_validation: bool = False) -> DomainSpec:
    return DomainSpec(
        name="landscape",
        task_ids=tuple(f"probe-{i}" for i in range(n_tasks)),
        staged=StagedEvalPolicy(
            subset_size=subset, full_size=n_tasks, gate=Gate(kind="min-successes", count=1)
        ),
        has_validation=has_validation,
        validation_task_ids=("probe-val",) if has_validation else (),
    )


def make_config(tmp_path: Path, mode: str = "full", iterations: int = 5, seed: int = 7,
                **kwargs) -> RunConfig:
    defaults = dict(
        mode=mode,
        iterations=iterations,
        seed=seed,
        state_dir=tmp_path / "state",
        policy=SelectionPolicy(variant="score-child-prop"),
        domains=[landscape_domain()],
        initial={"task_skill": [0.0, 0.0], "meta_capability": 0.3,
                 "compile_probability": 0.9},
        limits=LIMITS,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def events_of(state) -> list[dict]:
    return read_events(state.event_log)


# --- basic loop -------------------------------------------------------------------


def test_run_evaluates_root_then_iterates(tmp_path):
    state = run(make_config(tmp_path, iterations=4))
    assert state.completed
    assert state.iteration == 4
    assert state.archive.node(0).created_at_iteration == 0
    kinds = [e["event"] for e in events_of(state)]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_complete"


def test_archive_growth_bounded_by_iterations(tmp_path):
    config = make_config(tmp_path, iterations=6, parents_per_iteration=2)
    state = run(config)
    assert len(state.archive) <= 1 + 6 * 2
    iterations = [n.created_at_iteration for n in state.archive]
    assert iterations == sorted(iterations)  # non-decreasing in id


class AlwaysInvalidBackend:
    def generate(self, request):
        child = Path(request.child_payload_ref)
        child.mkdir(parents=True, exist_ok=True)
        (child / "genome.json").write_text("{broken", encoding="utf-8")
        return None  # no breach reported: the validity probe rejects the child


def test_always_invalid_backend_leaves_root_only(tmp_path):
    config = make_config(tmp_path, iterations=1)
    state = run(config, backend=AlwaysInvalidBackend())
    assert len(state.archive) == 1
    kinds = [e["event"] for e in events_of(state)]
    assert "archive_reject" in kinds


def test_gated_out_child_still_archived_when_compiled(tmp_path):
    # zero-base surface and far-from-everything start: fitness is 0 so the
    # min-successes gate fails; children stay compiled and must still enter
    # the archive zero-filled
    config = make_config(
        tmp_path,
        iterations=3,
        initial={"task_skill": [40.0, 40.0], "meta_capability": 0.3,
                 "compile_probability": 1.0},
        backend={"kind": "simulated", "step_sigma": 0.01,
                 "landscape": {"base_level": 0.0}},
    )
    state = run(config)
    assert len(state.archive) == 4
    for event in events_of(state):
        if event["event"] == "evaluation" and event["node_id"] > 0:
            assert event["gated_out"]["landscape"] is True
            assert event["selection_score"] == 0.0


# --- mode semantics ----------------------------------------------------------------


def test_no_open_ended_keeps_archive_size_one(tmp_path):
    config = make_config(tmp_path, mode="no-open-ended", iterations=8)
    state = run(config)
    assert len(state.archive) == 1
    # replacements happened (wouldn't be the root forever with 0.9 compile rate)
    kinds = [e["event"] for e in events_of(state)]
    assert "archive_replace" in kinds
    assert "archive_add" not in [e["event"] for e in events_of(state) if e.get("iteration", 0) > 0]


def test_no_open_ended_sole_member_is_always_parent(tmp_path):
    config = make_config(tmp_path, mode="no-open-ended", iterations=6)
    state = run(config)
    current = 0
    for event in events_of(state):
        if event["event"] == "selection":
            assert event["parents"] == [current]
        if event["event"] == "archive_replace":
            assert event["parent_id"] == current
            current = event["node_id"]


def test_no_self_improve_always_modifies_with_root(tmp_path):
    config = make_config(tmp_path, mode="no-self-improve", iterations=8)
    state = run(config)
    generations = [e for e in events_of(state) if e["event"] == "generation"]
    assert generations
    assert all(e["modifier_id"] == 0 for e in generations)


def test_no_self_improve_keeps_meta_frozen(tmp_path):
    config = make_config(tmp_path, mode="no-self-improve", iterations=6)
    state = run(config)
    for node in state.archive:
        genome = SimulatedAgentGenome.from_payload(config.payload_dir / node.payload_ref)
        assert genome.meta_capability == 0.3


def test_full_mode_modifier_is_parent(tmp_path):
    config = make_config(tmp_path, iterations=6)
    state = run(config)
    for event in events_of(state):
        if event["event"] == "generation":
            assert event["modifier_id"] == event["parent_id"]


def test_dgm_fixed_instruction_logs_instruction_per_parent(tmp_path):
    config = make_config(tmp_path, mode="dgm-fixed-instruction", iterations=4)
    state = run(config)
    events = events_of(state)
    instructions = [e for e in events if e["event"] == "instruction"]
    selections = [e for e in events if e["event"] == "selection"]
    assert len(instructions) == sum(len(e["parents"]) for e in selections)
    assert all(Path(e["template"]).name == "fixed_instruction_template.txt"
               for e in instructions)


def test_modifiable_selection_names_latest_as_selector(tmp_path):
    config = make_config(
        tmp_path,
        mode="modifiable-selection",
        iterations=8,
        initial={"task_skill": [0.0, 0.0], "meta_capability": 0.3,
                 "compile_probability": 0.9,
                 "selection_policy": {"variant": "uniform-random"}},
    )
    state = run(config)
    latest = 0
    for event in events_of(state):
        if event["event"] == "selection":
            assert event["selector_id"] == latest
        if event["event"] == "archive_add":
            latest = event["node_id"]


def test_modifiable_selection_falls_back_to_uniform_without_policy(tmp_path):
    # root genome carries no selection routine: every selection event must
    # record the uniform fallback
    config = make_config(
        tmp_path, mode="modifiable-selection", iterations=3,
        initial={"task_skill": [0.0, 0.0], "meta_capability": 0.3,
                 "compile_probability": 0.0},
    )
    state = run(config)
    selections = [e for e in events_of(state) if e["event"] == "selection"]
    assert selections
    assert all(e["fallback"] and e["policy"] == "uniform-random" for e in selections)


def test_modifiable_selection_malformed_payload_policy_falls_back(tmp_path):
    # a payload policy follows the config rules: the string "false" is not a
    # bool, so the routine is malformed and selection falls back to uniform
    config = make_config(
        tmp_path, mode="modifiable-selection", iterations=3,
        initial={"task_skill": [0.0, 0.0], "meta_capability": 0.3,
                 "compile_probability": 0.0,
                 "selection_policy": {"variant": "ucb", "stagnation_boost": "false"}},
    )
    state = run(config)
    selections = [e for e in events_of(state) if e["event"] == "selection"]
    assert len(selections) == 3
    assert all(e["fallback"] and e["policy"] == "uniform-random" for e in selections)


# --- iterations_left ----------------------------------------------------------------


class IterationsSpyBackend:
    def __init__(self):
        self.seen: list[int] = []
        self.inner = None

    def generate(self, request):
        self.seen.append(request.iterations_left)
        return self.inner.generate(request)

    def selection_policy_of(self, payload_ref):
        return self.inner.selection_policy_of(payload_ref)


def test_step_passes_iterations_left(tmp_path):
    from evoarchive.engine import build_backend

    config = make_config(tmp_path, iterations=4)
    spy = IterationsSpyBackend()
    spy.inner = build_backend(config, str(config.payload_dir / "agent_root"))
    state = run(config, backend=spy)
    assert spy.seen == [4, 3, 2, 1]  # T - t for t = 0..T-1
    assert state.completed


@pytest.mark.parametrize("configured", [False, True])
def test_model_client_in_fixed_instruction_mode_gets_the_template(tmp_path, configured):
    from evoarchive.engine import build_backend, default_instruction_template

    template = tmp_path / "t.txt"
    template.write_text("TEMPLATE {code}", encoding="utf-8")
    config = make_config(tmp_path, mode="dgm-fixed-instruction",
                         backend={"kind": "model-client", "url": "https://example.invalid/g"},
                         instruction_template=template if configured else None)
    backend = build_backend(config, str(config.payload_dir / "agent_root"))
    expected = template if configured else default_instruction_template()
    assert backend.instruction_template == expected.read_text(encoding="utf-8")
    # in any other mode no instruction-generation request is sent
    backend = build_backend(dataclasses.replace(config, mode="full"), "root")
    assert backend.instruction_template is None


def test_step_rejects_completed_run(tmp_path):
    config = make_config(tmp_path, iterations=2)
    state = run(config)
    with pytest.raises(EngineError):
        step(state, config)


# --- determinism and resume -----------------------------------------------------------


def strip_times(events: list[dict]) -> list[dict]:
    return [{k: v for k, v in e.items() if k not in ("time", "wall_time")} for e in events]


def test_replay_is_identical(tmp_path):
    state_a = run(make_config(tmp_path / "a", iterations=6, seed=13))
    state_b = run(make_config(tmp_path / "b", iterations=6, seed=13))
    fp_a = fingerprint(Path(state_a.event_log).parent / "archive")
    fp_b = fingerprint(Path(state_b.event_log).parent / "archive")
    assert fp_a == fp_b
    assert strip_times(events_of(state_a)) == strip_times(events_of(state_b))


def test_different_seeds_differ(tmp_path):
    state_a = run(make_config(tmp_path / "a", iterations=6, seed=13))
    state_b = run(make_config(tmp_path / "b", iterations=6, seed=14))
    fp_a = fingerprint(Path(state_a.event_log).parent / "archive")
    fp_b = fingerprint(Path(state_b.event_log).parent / "archive")
    assert fp_a != fp_b


def test_split_run_equals_uninterrupted(tmp_path):
    config_full = make_config(tmp_path / "full", iterations=10, seed=21)
    full = run(config_full)

    config_split = make_config(tmp_path / "split", iterations=10, seed=21)
    run(config_split, stop_after=3)  # interrupt after iteration 3
    resumed = resume(config_split)
    assert resumed.completed

    fp_full = fingerprint((tmp_path / "full" / "state") / "archive")
    fp_split = fingerprint((tmp_path / "split" / "state") / "archive")
    assert fp_full == fp_split


def test_resume_of_completed_run_is_noop(tmp_path, caplog):
    config = make_config(tmp_path, iterations=3)
    run(config)
    before = fingerprint(config.state_dir / "archive")
    state = resume(config)
    assert state.completed
    assert fingerprint(config.state_dir / "archive") == before


def test_resume_checks_the_run_id_before_any_write(tmp_path):
    config = make_config(tmp_path, iterations=3)
    run(config, run_id="abc", stop_after=1)
    with open(config.state_dir / "events.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"event": "resume", "iter')  # a torn line that resume would cut off
    log_before = (config.state_dir / "events.jsonl").read_bytes()
    archive_before = fingerprint(config.state_dir / "archive")
    with pytest.raises(RunIdMismatch) as caught:
        resume(config, run_id="xyz")
    assert (caught.value.expected, caught.value.recorded) == ("xyz", "abc")
    assert (config.state_dir / "events.jsonl").read_bytes() == log_before
    assert fingerprint(config.state_dir / "archive") == archive_before
    state = resume(config, run_id="abc")
    assert state.completed and not state.already_complete
    assert resume(config, run_id="abc").already_complete


def test_each_call_writes_archive_once(tmp_path, monkeypatch):
    real, calls = archive_mod.persist, []

    def counting_persist(*args, **kwargs):
        calls.append(1)
        real(*args, **kwargs)

    monkeypatch.setattr(archive_mod, "persist", counting_persist)

    def assert_one_write(config: RunConfig) -> None:
        assert len(calls) == 1
        calls.clear()
        written = archive_mod.load(config.state_dir / "archive")
        assert [n.id for n in written] == [n.id for n in load_state(config).archive]

    config = make_config(tmp_path / "whole", iterations=4)
    run(config)
    assert_one_write(config)
    config = make_config(tmp_path / "split", iterations=4)
    state = run(config, stop_after=1)
    assert_one_write(config)
    step(state, config)
    assert_one_write(config)
    assert resume(config).completed  # continues an interrupted run
    assert_one_write(config)
    resume(config)  # a completed run
    assert_one_write(config)


@pytest.mark.parametrize("shape", [*MODES, "validation"])
def test_written_archive_loads_equal_to_its_replay(tmp_path, shape):
    # whole nodes: scores, parent links, compiled_children and iterations
    config = make_config(tmp_path, mode=shape if shape in MODES else "full", iterations=6,
                         parents_per_iteration=2,
                         domains=[landscape_domain(has_validation=shape == "validation")])
    run(config)
    written = archive_mod.load(config.state_dir / "archive")
    assert written == load_state(config).archive
    assert len(written) == 1 if shape == "no-open-ended" else len(written) > 6


@pytest.mark.parametrize("mode", MODES)
def test_live_state_is_the_replayed_log(tmp_path, mode):
    # a live run changes its state only by folding the batches it logs, so after
    # every call it is the state that replaying its log rebuilds
    config = make_config(tmp_path, mode=mode, iterations=6, parents_per_iteration=3,
                         domains=[landscape_domain(has_validation=True)])

    def assert_replays(state) -> None:
        replayed = replay_log(state.event_log)[0]
        assert replayed.archive.mode_tag == state.archive.mode_tag == mode
        assert replayed.archive.nodes == state.archive.nodes
        assert replayed.archived == state.archived
        if mode != "no-open-ended":
            assert all(a is n for a, n in zip(state.archived, state.archive.nodes, strict=True))
        assert all(s.validation is not None for n in state.archive for s in n.scores.values())
        assert ((replayed.iteration, replayed.run_id, replayed.next_node_id, replayed.completed)
                == (state.iteration, state.run_id, state.next_node_id, state.completed))

    state = run(config, run_id="live", stop_after=2)
    assert_replays(state)
    for _ in range(2):
        state = step(state, config)
        assert_replays(state)
    state = resume(config)
    assert state.completed and state.next_node_id > 6
    assert_replays(state)


def log_lines(state) -> int:
    return len(Path(state.event_log).read_bytes().splitlines())


def test_resume_detects_archive_log_mismatch(tmp_path):
    config = make_config(tmp_path, iterations=4)
    state = run(config, stop_after=2)
    assert len(state.archive) >= 1
    # tamper: a committed iteration adds a node whose id skips ahead
    scores = {"landscape": {"train": 0.5, "validation": None, "test": None}}
    append_events(state.event_log, [
        {"event": "evaluation", "iteration": 3, "node_id": 99, "scores": scores},
        {"event": "archive_add", "iteration": 3, "node_id": 99, "parent_id": 0,
         "payload_ref": "x"},
        {"event": "iteration_complete", "iteration": 3},
    ])
    with pytest.raises(IntegrityError, match=f"line {log_lines(state) - 1} .*node id 99"):
        load_state(config)


def test_resume_detects_corrupt_event_line(tmp_path):
    config = make_config(tmp_path, iterations=4)
    state = run(config, stop_after=2)
    with open(state.event_log, "a") as fh:
        fh.write("{not json\n")
    append_events(state.event_log, [{"event": "iteration_complete", "iteration": 3}])
    with pytest.raises(IntegrityError, match=f"line {log_lines(state) - 1} "):
        load_state(config)


RUN_START_RULE = "run_start must be the first event, and only the first"


def test_replay_requires_run_start_on_line_one(tmp_path):
    state = run(make_config(tmp_path, iterations=2))
    lines = state.event_log.read_bytes().splitlines(keepends=True)
    state.event_log.write_bytes(b"".join(lines[1:]))  # line 1 is now the root's evaluation
    with pytest.raises(IntegrityError, match=f"bad event at line 1 .*{RUN_START_RULE}"):
        replay_log(state.event_log)


def second_run_start(state) -> dict:
    return {"event": "run_start", "time": "t", "run_id": state.run_id,
            "mode": state.archive.mode_tag, "seed": 7, "iterations": 4}


def test_replay_rejects_a_second_run_start_in_a_later_batch(tmp_path):
    state = run(make_config(tmp_path, iterations=4), stop_after=2)
    append_events(state.event_log, [
        {"event": "selection", "iteration": 3},
        second_run_start(state),
        {"event": "iteration_complete", "iteration": 3},
    ])
    with pytest.raises(IntegrityError,
                       match=f"bad event at line {log_lines(state) - 1} .*{RUN_START_RULE}"):
        replay_log(state.event_log)


def test_a_live_commit_of_a_second_run_start_raises_and_appends_nothing(tmp_path):
    state = run(make_config(tmp_path, iterations=4), stop_after=2)
    committed = state.event_log.read_bytes()
    with pytest.raises(ValueError, match=RUN_START_RULE):
        _commit(state, [second_run_start(state), {"event": "iteration_complete", "iteration": 3}])
    assert state.event_log.read_bytes() == committed


@pytest.mark.parametrize("value", [math.nan, -math.inf, "/d\udcff/t.txt", [[]] * 1000, {1, 2}],
                         ids=["nan", "-inf", "unpaired surrogate", "1002 openers", "set"])
def test_a_batch_the_reader_would_refuse_raises_before_any_byte_is_appended(tmp_path, value):
    event_log = tmp_path / "events.jsonl"
    append_events(event_log, [{"event": "run_start"}, {"event": "iteration_complete"}])
    committed = event_log.read_bytes()
    with pytest.raises(EngineError, match="cannot log event 'evaluation': "):
        append_events(event_log, [
            {"event": "selection", "iteration": 1},
            {"event": "evaluation", "iteration": 1, "value": value},
            {"event": "iteration_complete", "iteration": 1},
        ])
    assert event_log.read_bytes() == committed


def test_a_surrogate_pair_is_logged_and_read_back(tmp_path):
    event_log = tmp_path / "events.jsonl"
    events = [{"event": "run_start", "note": "\U0001f600 \\ud800"},
              {"event": "iteration_complete", "iteration": 0}]
    append_events(event_log, events)
    assert b"\\ud83d\\ude00" in event_log.read_bytes()
    assert read_events(event_log) == events


def test_replay_of_a_log_that_archives_no_agent_names_the_log(tmp_path):
    event_log = tmp_path / "events.jsonl"
    append_events(event_log, [
        {"event": "run_start", "run_id": "r", "mode": "full", "seed": 1, "iterations": 2},
        {"event": "iteration_complete", "iteration": 0},
    ])
    with pytest.raises(IntegrityError, match=f"{re.escape(str(event_log))} archives no agent"):
        replay_log(event_log)


def test_read_events_returns_committed_events_only(tmp_path):
    event_log = tmp_path / "events.jsonl"
    event_log.write_text(
        '{"event": "run_start"}\n'
        '{"event": "iteration_complete", "iteration": 0}\n'
        '{"event": "archive_add", "node_id": 1}\n'
        '{"event": "iteration_complete", "iteration": 1}'  # unterminated: not a commit
    )
    assert read_events(event_log) == [
        {"event": "run_start"}, {"event": "iteration_complete", "iteration": 0},
    ]
    event_log.write_text(
        '{"event": "run_start"}\n'
        '{"event": "archive_add", "node_id"\n'
        '{"event": "iteration_complete", "iteration": 0}\n'
        '{"event": "selec'
    )
    with pytest.raises(IntegrityError, match="corrupt event at line 2 "):
        read_events(event_log)


def committed_by_json_loads(data: bytes) -> tuple[list[dict], int] | int:
    """Oracle: the commit rule over `json.loads` of each line. Returns the kept
    events and their byte length, or the number of the line an error names."""
    events, kept, size, offset, error = [], 0, 0, 0, None
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        offset += len(line)
        try:
            event = json.loads(line)
            kind = event["event"]
        except (ValueError, KeyError, TypeError):
            error = error or lineno
            continue
        events.append(event)
        if kind in ("iteration_complete", "run_complete") and line.endswith(b"\n"):
            if error is not None:
                return error
            kept, size = len(events), offset
    return events[:kept], size


def committed_by_engine(path: Path) -> tuple[list[dict], int] | int:
    """The same, from the engine's batches: their events and the byte length
    the last batch reports."""
    events, size = [], 0
    try:
        for batch, size in _read_committed(path):
            events += batch
    except IntegrityError as exc:
        return int(re.match(r"corrupt event at line (\d+) ", str(exc)).group(1))
    return events, size


LOG_HEAD = b'{"event": "run_start"}\n{"event": "iteration_complete", "iteration": 0}\n'
COMMIT = b'{"event": "iteration_complete", "iteration": 1}\n'
EDGE_LINES = {
    "blank": b"\n",
    "json whitespace padding": b' \t {"event": "archive_add"}\r \t\n',
    "vertical tab padding": b'\x0b{"event": "archive_add"}\n',
    "form feed padding": b'{"event": "archive_add"}\x0c\n',
    "array": b'[{"event": "archive_add"}]\n',
    "string": b'"event"\n',
    "null": b"null\n",
    "no event key": b'{"kind": "archive_add"}\n',
    "trailing garbage": b'{"event": "archive_add"} x\n',
    "second object": b'{"event": "archive_add"}{}\n',
    "invalid utf-8": b'{"event": "archive_add", "note": "\xff"}\n',
    "non-ascii": '{"event": "archive_add", "note": "caf\u00e9 \u2713"}\n'.encode(),
    "non-ascii commit": '{"event": "iteration_complete", "iteration": 1, "n": "\u00e9"}\n'.encode(),
    "torn": b'{"event": "iteration_compl',
    "unterminated commit": b'{"event": "iteration_complete", "iteration": 1}',
}


@pytest.mark.parametrize("name", sorted(EDGE_LINES))
@pytest.mark.parametrize("position", ["before commit", "after commit", "at end"])
def test_read_committed_matches_json_loads_per_line(tmp_path, name, position):
    line = EDGE_LINES[name]
    if position != "at end" and not line.endswith(b"\n"):
        line += b"\n"  # only the last line can lack its newline
    body = {"before commit": line + COMMIT, "after commit": COMMIT + line + COMMIT,
            "at end": COMMIT + line}[position]
    event_log = tmp_path / "events.jsonl"
    event_log.write_bytes(LOG_HEAD + body)
    expected = committed_by_json_loads(LOG_HEAD + body)
    assert committed_by_engine(event_log) == expected
    if isinstance(expected, tuple):
        assert read_events(event_log) == expected[0]


@pytest.mark.parametrize("line", [
    b'\xef\xbb\xbf{"event": "archive_add"}\n',  # UTF-8 byte-order mark
    b'{"event": "archive_add", "note": "\xed\xa0\x80"}\n',  # encoded lone surrogate
])
def test_log_lines_are_plain_utf8(tmp_path, line):
    # `json.loads` of the bytes accepts these; the engine never writes them
    json.loads(line)
    event_log = tmp_path / "events.jsonl"
    event_log.write_bytes(LOG_HEAD + line + COMMIT)
    assert committed_by_engine(event_log) == 3


def float_bits(value):
    """`value` with each leaf tagged by its type and each float given as its
    `float.hex`, so that `==` compares types and float bits."""
    if isinstance(value, dict):
        return {key: float_bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [float_bits(item) for item in value]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("shape", [*MODES, "resumed", "validation"])
def test_read_events_equals_a_stdlib_decode_of_each_line(tmp_path, shape):
    config = make_config(tmp_path, mode=shape if shape in MODES else "full", iterations=6,
                         parents_per_iteration=2,
                         domains=[landscape_domain(has_validation=shape == "validation")])
    if shape == "resumed":
        run(config, stop_after=3)
        resume(config)
    else:
        run(config)
    event_log = config.state_dir / "events.jsonl"
    lines = event_log.read_bytes().splitlines()
    assert float_bits(read_events(event_log)) == float_bits([json.loads(line) for line in lines])


def test_run_rebuilds_partial_root_payload(tmp_path, monkeypatch):
    source = tmp_path / "source"
    SimulatedAgentGenome([0.0, 0.0], 0.3, 0.9).write_payload(source)
    (source / "notes.txt").write_text("a second file to snapshot", encoding="utf-8")
    initial = {"payload_ref": str(source)}
    clean = make_config(tmp_path / "clean", iterations=3, initial=initial)
    run(clean)
    config = make_config(tmp_path / "killed", iterations=3, initial=initial)
    real_link, links = os.link, []

    def link_then_die(src, dst):
        links.append(dst)
        if len(links) == 2:
            raise OSError("killed while snapshotting the root")
        real_link(src, dst)

    with monkeypatch.context() as patches:
        patches.setattr(os, "link", link_then_die)
        with pytest.raises(OSError, match="snapshotting"):
            run(config)
    assert run(config).completed
    assert fingerprint(config.state_dir / "archive") == fingerprint(clean.state_dir / "archive")
    root = config.payload_dir / "agent_root"
    assert sorted(p.name for p in root.iterdir()) == sorted(p.name for p in source.iterdir())


def test_halted_state_is_resumable_after_backend_failure(tmp_path):
    class FlakyBackend:
        def __init__(self, inner, fail_at):
            self.inner, self.fail_at, self.calls = inner, fail_at, 0

        def generate(self, request):
            self.calls += 1
            if self.calls == self.fail_at:
                raise RuntimeError("backend exploded")
            return self.inner.generate(request)

        def selection_policy_of(self, ref):
            return self.inner.selection_policy_of(ref)

    from evoarchive.engine import build_backend

    config = make_config(tmp_path, iterations=5, seed=3)
    inner = build_backend(config, str(config.payload_dir / "agent_root"))
    with pytest.raises(RuntimeError):
        run(config, backend=FlakyBackend(inner, fail_at=3))
    state = load_state(config)  # state from the last completed iteration loads clean
    assert state.iteration >= 1
    final = resume(config)
    assert final.completed


# --- concurrency ------------------------------------------------------------------


def test_concurrent_slots_match_serial(tmp_path):
    serial = run(make_config(tmp_path / "s", iterations=5, seed=9,
                             parents_per_iteration=3, concurrency=1))
    parallel = run(make_config(tmp_path / "p", iterations=5, seed=9,
                               parents_per_iteration=3, concurrency=3))
    fp_serial = fingerprint((tmp_path / "s" / "state") / "archive")
    fp_parallel = fingerprint((tmp_path / "p" / "state") / "archive")
    assert fp_serial == fp_parallel


def test_each_call_keeps_one_slot_pool_and_shuts_it_down(tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    from evoarchive import engine

    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.maps = 0
            pools.append(self)

        def map(self, *args, **kwargs):
            self.maps += 1
            return super().map(*args, **kwargs)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", CountedPool)
    config = make_config(tmp_path, iterations=4, seed=9, parents_per_iteration=2, concurrency=2)
    state = run(config, stop_after=2)
    step(state, config)

    class Exploding:
        def __init__(self, inner):
            self.inner = inner

        def generate(self, request):
            if request.rng_stream_id == "gen/4/1":
                raise RuntimeError("backend exploded")
            return self.inner.generate(request)

        def selection_policy_of(self, ref):
            return self.inner.selection_policy_of(ref)

    inner = engine.build_backend(config, str(config.payload_dir / "agent_root"))
    with pytest.raises(RuntimeError, match="exploded"):
        resume(config, backend=Exploding(inner))
    assert [pool.maps for pool in pools] == [2, 1, 1]
    assert all(pool._shutdown for pool in pools)


# --- config validation ---------------------------------------------------------------


def test_run_config_rejects_bad_values(tmp_path):
    with pytest.raises(ValueError):
        make_config(tmp_path, mode="bogus")
    with pytest.raises(ValueError):
        make_config(tmp_path, iterations=0)
    with pytest.raises(ValueError):
        make_config(tmp_path, parents_per_iteration=0)
    with pytest.raises(ValueError):
        make_config(tmp_path, domains=[])


# --- selection score across domains ----------------------------------------------


def _three_domain_config(tmp_path: Path) -> RunConfig:
    # configured out of name order, so config order and name order differ
    def domain(name: str, has_validation: bool = False) -> DomainSpec:
        return DomainSpec(
            name=name,
            task_ids=tuple(f"{name}-{i}" for i in range(3)),
            staged=StagedEvalPolicy(
                subset_size=1, full_size=3, gate=Gate(kind="min-successes", count=1)
            ),
            has_validation=has_validation,
            validation_task_ids=(f"{name}-val",) if has_validation else (),
        )

    return make_config(
        tmp_path, iterations=60, seed=3, parents_per_iteration=2,
        domains=[domain("c"), domain("a", has_validation=True), domain("b")],
    )


def _three_domain_evaluators() -> dict:
    surface = SyntheticEvaluator()
    return {
        "c": surface,
        "a": lambda task, ref, limits: surface(task, ref, limits) ** 2,
        "b": lambda task, ref, limits: math.sqrt(surface(task, ref, limits)) * 0.9,
    }


def test_logged_selection_score_matches_reloaded_nodes(tmp_path):
    config = _three_domain_config(tmp_path)
    state = run(config, evaluators=_three_domain_evaluators())
    arch = archive_mod.load(config.state_dir / "archive")
    evaluations = [e for e in events_of(state) if e["event"] == "evaluation"]
    assert len(evaluations) == len(arch) > 60
    for event in evaluations:
        assert event["selection_score"] == node_selection_score(arch.node(event["node_id"]))


def test_three_domain_split_run_equals_uninterrupted(tmp_path):
    full = _three_domain_config(tmp_path / "full")
    run(full, evaluators=_three_domain_evaluators())
    split = _three_domain_config(tmp_path / "split")
    run(split, evaluators=_three_domain_evaluators(), stop_after=25)
    assert resume(split, evaluators=_three_domain_evaluators()).completed
    assert fingerprint(split.state_dir / "archive") == fingerprint(full.state_dir / "archive")


@pytest.mark.parametrize(
    "has_validation, scores, message",
    [
        # a record for another domain only: an `evaluation` without any domain is
        # refused by the fold before this check
        (False, {"other": DomainScores(0.5)}, "holds no record for domain 'landscape'"),
        (False, {"landscape": DomainScores(0.5), "extra": DomainScores(0.5)},
         "holds a record without a validation score for domain 'extra'; "
         "the config expects no record"),
        (True, {"landscape": DomainScores(0.5)},
         "holds a record without a validation score for domain 'landscape'; "
         "the config expects a record with a validation score"),
        (False, {"landscape": DomainScores(0.5, validation=0.4)},
         "holds a record with a validation score for domain 'landscape'"),
    ],
)
def test_load_state_checks_score_coverage(tmp_path, has_validation, scores, message):
    config = make_config(tmp_path, iterations=3,
                         domains=[landscape_domain(has_validation=has_validation)])
    run(config, stop_after=1)
    assert load_state(config).iteration == 1  # engine-built nodes pass the check
    # tamper with the root's committed evaluation event
    event_log = config.state_dir / "events.jsonl"
    events = read_events(event_log)
    root_eval = next(e for e in events if e["event"] == "evaluation" and e["node_id"] == 0)
    root_eval["scores"] = {name: dataclasses.asdict(s) for name, s in scores.items()}
    event_log.unlink()
    append_events(event_log, events)
    with pytest.raises(IntegrityError, match=f"node 0 {message}"):
        load_state(config)


# --- structure -------------------------------------------------------------------------


def test_only_the_engine_reads_event_kinds():
    # the event schema lives behind the engine's fold: no other module names
    # the `event` key or a kind that changes run state
    import ast

    import evoarchive

    read_kinds = {"event", "run_start", "archive_add", "archive_replace",
                  "iteration_complete", "run_complete"}
    readers = []
    for path in sorted(Path(evoarchive.__file__).parent.glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in read_kinds:
                readers.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert readers == []


def test_one_function_decodes_log_lines():
    # one line parser: the package calls `orjson.loads` in the log's reader, and
    # in its writer's check that a line holds no unpaired surrogate
    import ast

    import evoarchive

    callers = set()
    for path in sorted(Path(evoarchive.__file__).parent.glob("*.py")):
        scopes: list[str] = []

        class Calls(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                scopes.append(node.name)
                self.generic_visit(node)
                scopes.pop()

            def visit_Call(self, node):
                if (isinstance(node.func, ast.Attribute) and node.func.attr == "loads"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "orjson"):
                    callers.add(f"{path.name}:{'.'.join(scopes) or '<module>'}")
                self.generic_visit(node)

        Calls().visit(ast.parse(path.read_text(encoding="utf-8")))
    assert callers == {"engine.py:_read_committed", "engine.py:append_events"}
