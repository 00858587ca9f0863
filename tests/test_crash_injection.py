"""Kill a run, or a resume, at every write boundary, then resume it.

A kill is a `Killed` exception raised from a patched write: nothing in the
engine catches it, so the state directory is left as a dead process would
leave it. Every case must resume to the uninterrupted archive and leave an
event log that `read_events` parses and that matches the uninterrupted one
apart from `resume` events and timings.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from evoarchive import archive as archive_mod
from evoarchive import engine
from evoarchive.archive import fingerprint
from evoarchive.cli import main
from evoarchive.config import demo_config
from evoarchive.engine import RunConfig, read_events, resume, run
from evoarchive.evaluation import DomainSpec, Gate, StagedEvalPolicy
from evoarchive.sandbox import SandboxLimits
from evoarchive.selection import SelectionPolicy

ITERATIONS = 6
KILL_AT = 3  # the iteration a kill interrupts


class Killed(BaseException):
    """Stands in for the process dying at a write."""


def make_config(state_dir: Path, mode: str, has_validation: bool) -> RunConfig:
    domain = DomainSpec(
        name="landscape",
        task_ids=("probe-0", "probe-1", "probe-2"),
        staged=StagedEvalPolicy(
            subset_size=1, full_size=3, gate=Gate(kind="min-successes", count=1)
        ),
        has_validation=has_validation,
        validation_task_ids=("probe-val",) if has_validation else (),
    )
    return RunConfig(
        mode=mode, iterations=ITERATIONS, seed=5, state_dir=state_dir,
        policy=SelectionPolicy(variant="score-child-prop"), domains=[domain],
        initial={"task_skill": [0.0, 0.0], "meta_capability": 0.3,
                 "compile_probability": 0.9},
        parents_per_iteration=2,
        limits=SandboxLimits(wall_clock_seconds=10.0, cpu_seconds=10),
    )


def comparable(event_log: Path) -> list[dict]:
    return [
        {k: v for k, v in e.items() if k not in ("time", "wall_time")}
        for e in read_events(event_log) if e["event"] != "resume"
    ]


def kill_on_call(monkeypatch, owner, name: str, call: int, action) -> None:
    """Patch `owner.name` so its `call`-th call runs `action(real, *args)`,
    which does part of the write, then dies."""
    real = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            action(real, *args, **kwargs)
            raise Killed(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


# _start makes the first append_events call, iteration k the (k+1)-th; `archive/`
# is written once, by the persist call just before `run` returns
KILL_CALL = KILL_AT + 1


def log_committed_archive_stale(monkeypatch):
    # the log is ahead of `archive/`, which this run has not written yet
    def action(real, path, events):
        real(path, events)
        assert not (Path(path).parent / "archive").exists()

    kill_on_call(monkeypatch, engine, "append_events", KILL_CALL, action)


def last_commit_archive_stale(monkeypatch):
    # the log says the run is complete; only resume can bring archive/ up to it
    kill_on_call(monkeypatch, archive_mod, "persist", 1, lambda real, *a, **k: None)


def records_written_manifest_stale(monkeypatch):
    # every node record is written, the manifest is not: the earlier one stays, if any
    def action(real, arch, location, **kwargs):
        manifest = Path(location) / "manifest.json"
        old = manifest.read_bytes() if manifest.exists() else None
        real(arch, location, **kwargs)
        if old is None:
            manifest.unlink()
        else:
            manifest.write_bytes(old)

    kill_on_call(monkeypatch, archive_mod, "persist", 1, action)


def manifest_torn(monkeypatch):
    def action(real, arch, location, **kwargs):
        real(arch, location, **kwargs)
        manifest = Path(location) / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:40])

    kill_on_call(monkeypatch, archive_mod, "persist", 1, action)


def manifest_missing(monkeypatch):
    # dies after the first node record: the other records and the manifest are missing
    def action(real, arch, location, **kwargs):
        real(archive_mod.Archive(arch.mode_tag, arch.nodes[:1]), location, **kwargs)
        (Path(location) / "manifest.json").unlink()

    kill_on_call(monkeypatch, archive_mod, "persist", 1, action)


def tear_batch(monkeypatch, missing_bytes: int) -> None:
    def action(real, path, events):
        text = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text[: len(text) - missing_bytes])

    kill_on_call(monkeypatch, engine, "append_events", KILL_CALL, action)


def log_line_torn(monkeypatch):
    tear_batch(monkeypatch, 20)


def log_newline_missing(monkeypatch):
    # the commit line is complete JSON but was not terminated
    tear_batch(monkeypatch, 1)


def batch_without_commit(monkeypatch):
    def action(real, path, events):
        real(path, [e for e in events
                    if e["event"] not in ("iteration_complete", "run_complete")])

    kill_on_call(monkeypatch, engine, "append_events", KILL_CALL, action)


def run_complete_missing(monkeypatch):
    # the final batch is written through its iteration_complete line, which
    # commits it, but the run_complete line after it is not
    def action(real, path, events):
        real(path, [e for e in events if e["event"] != "run_complete"])

    kill_on_call(monkeypatch, engine, "append_events", ITERATIONS + 1, action)


def partial_child_directory(monkeypatch):
    # dies while generating the second child of iteration KILL_AT
    def action(real, backend, request, *args):
        child = Path(request.child_payload_ref)
        child.mkdir(parents=True)
        (child / "genome.json").write_text('{"task_skill": ["9', encoding="utf-8")
        (child / "stale.txt").write_text("partial", encoding="utf-8")

    kill_on_call(monkeypatch, engine, "generate_child", 2 * KILL_AT, action)


BOUNDARIES = [
    log_committed_archive_stale,
    last_commit_archive_stale,
    records_written_manifest_stale,
    manifest_torn,
    manifest_missing,
    log_line_torn,
    log_newline_missing,
    batch_without_commit,
    run_complete_missing,
    partial_child_directory,
]
SHAPES = [("full", True), ("no-open-ended", False)]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory) -> dict:
    out = {}
    for mode, has_validation in SHAPES:
        config = make_config(tmp_path_factory.mktemp(mode) / "state", mode, has_validation)
        run(config)
        out[mode] = (fingerprint(config.state_dir / "archive"),
                     comparable(config.state_dir / "events.jsonl"))
    return out


def kill(monkeypatch, boundary, call, *args) -> None:
    with monkeypatch.context() as patches:
        boundary(patches)
        with pytest.raises(Killed):
            call(*args)


def assert_resumes_uninterrupted(config: RunConfig, uninterrupted: dict) -> None:
    state = resume(config)
    assert state.completed and state.iteration == ITERATIONS
    want_fingerprint, want_events = uninterrupted[config.mode]
    assert fingerprint(config.state_dir / "archive") == want_fingerprint
    assert comparable(config.state_dir / "events.jsonl") == want_events
    assert not list(config.payload_dir.rglob("stale.txt"))


@pytest.mark.parametrize("mode, has_validation", SHAPES)
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.__name__)
def test_resume_after_kill(tmp_path, monkeypatch, uninterrupted, boundary, mode,
                           has_validation):
    config = make_config(tmp_path / "state", mode, has_validation)
    kill(monkeypatch, boundary, run, config)
    assert_resumes_uninterrupted(config, uninterrupted)


@pytest.mark.parametrize("mode, has_validation", SHAPES)
@pytest.mark.parametrize("boundary", [records_written_manifest_stale, manifest_torn],
                         ids=lambda b: b.__name__)
def test_resume_killed_in_its_persist_resumes_again(tmp_path, monkeypatch, uninterrupted,
                                                    boundary, mode, has_validation):
    # the first resume continues the run and dies writing over the archive/
    # that run left; the second finds the log complete and only rebuilds archive/
    config = make_config(tmp_path / "state", mode, has_validation)
    run(config, stop_after=KILL_AT)
    kill(monkeypatch, boundary, resume, config)
    assert read_events(config.state_dir / "events.jsonl")[-1]["event"] == "run_complete"
    assert_resumes_uninterrupted(config, uninterrupted)


@pytest.mark.parametrize("mode, has_validation", SHAPES)
def test_killed_run_in_a_used_state_dir_resumes(tmp_path, monkeypatch, uninterrupted, mode,
                                                has_validation):
    earlier = make_config(tmp_path / "state", mode, has_validation)
    earlier.seed = 6
    run(earlier)
    assert fingerprint(earlier.state_dir / "archive") != uninterrupted[mode][0]
    config = make_config(tmp_path / "state", mode, has_validation)
    # the assertion in log_committed_archive_stale: the earlier run's archive/ is gone
    kill(monkeypatch, log_committed_archive_stale, run, config)
    assert_resumes_uninterrupted(config, uninterrupted)


def test_corrupt_committed_line_exits_1(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(demo_config(str(tmp_path / "state"), iterations=3)))
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    event_log = tmp_path / "state" / "events.jsonl"
    lines = event_log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = '{"event": "archive_add", "node_id": 0\n'  # the root's add, committed
    event_log.write_text("".join(lines), encoding="utf-8")
    assert main(["resume", "--state", str(tmp_path / "state")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "IntegrityError" in err and "line 3 " in err
