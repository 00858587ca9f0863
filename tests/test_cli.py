from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import evoarchive
from evoarchive.archive import AgentNode, ArchiveError, DomainScores, fingerprint, load
from evoarchive import engine
from evoarchive.cli import ANALYZE_METRICS, _impk_row, main
from evoarchive.config import (
    GATE_KEYS,
    INITIAL_KEYS,
    LANDSCAPE_KEYS,
    LIMITS_KEYS,
    SIMULATED_BACKEND_KEYS,
    ConfigError,
    config_hash,
    demo_config,
    parse_config,
    read_config_doc,
)
from evoarchive.engine import append_events, load_state, run
from evoarchive.evaluation import Gate
from evoarchive.generation import GenerationError, SimulatedAgentGenome, SimulatedBackend
from evoarchive.landscape import TwoPeakLandscape
from evoarchive.metrics import export_scalars_csv
from evoarchive.sandbox import SandboxLimits
from evoarchive.selection import SelectionPolicy

from test_engine import (
    _three_domain_config,
    _three_domain_evaluators,
    landscape_domain,
    make_config,
)


def _reload_config(path: Path):
    """The run config that a config file, such as a state directory's snapshot, parses to."""
    return parse_config(read_config_doc(path), base_dir=path.parent.resolve())[0]


def write_config(tmp_path: Path, **overrides) -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    doc = demo_config(state_dir=str(tmp_path / "state"), iterations=6, seed=11)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# --- run ---------------------------------------------------------------------


def test_run_completes_and_exits_zero(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "complete" in out
    assert (tmp_path / "state" / "archive" / "manifest.json").exists()
    assert (tmp_path / "state" / "config.json").exists()


def test_invalid_mode_exits_2_and_names_key(tmp_path, capsys):
    config_path = write_config(tmp_path, mode="turbo")
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "mode" in err


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    config_path = write_config(tmp_path, wibble=3)
    assert main(["run", "--config", str(config_path)]) == 2
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b'{"mode": "full",', b"[1, 2]"])
def test_unreadable_config_file_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                           content):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    if content is not None:
        config_path.write_bytes(content)
    before = tree_state(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(config_path) in err
    assert len(err.strip().splitlines()) == 1
    assert tree_state(tmp_path) == before


def test_flag_overrides_take_precedence(tmp_path):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path), "--iterations", "2",
                 "--mode", "no-open-ended"]) == 0
    assert load_state(_reload_config(tmp_path / "state" / "config.json")).iteration == 2
    arch = load(tmp_path / "state" / "archive")
    assert arch.mode_tag == "no-open-ended"
    assert len(arch) == 1
    # the effective config written to the state dir reflects the overrides
    effective = json.loads((tmp_path / "state" / "config.json").read_text())
    assert effective["mode"] == "no-open-ended"
    assert effective["iterations"] == 2


@pytest.mark.parametrize("overrides, flags", [
    ({"mode": "turbo"}, ["--mode", "full"]),
    ({"iterations": 0}, ["--iterations", "2"]),
    ({"policy": {"variant": "score-child-prop", "sharpness": "steep"}},
     ["--policy-sharpness", "5"]),
])
def test_a_flag_replaces_an_invalid_config_value(tmp_path, capsys, overrides, flags):
    config_path = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(config_path)]) == 2
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), *flags]) == 0
    assert "complete" in capsys.readouterr().out


def test_rerun_same_seed_identical_manifest_hash(tmp_path):
    config_a = write_config(tmp_path / "a")
    config_b = write_config(tmp_path / "b")
    assert main(["run", "--config", str(config_a)]) == 0
    assert main(["run", "--config", str(config_b)]) == 0
    assert fingerprint(tmp_path / "a" / "state" / "archive") == fingerprint(
        tmp_path / "b" / "state" / "archive"
    )


def test_override_seed_changes_archive(tmp_path):
    config_a = write_config(tmp_path / "a")
    config_b = write_config(tmp_path / "b")
    assert main(["run", "--config", str(config_a)]) == 0
    assert main(["run", "--config", str(config_b), "--seed", "99"]) == 0
    assert fingerprint(tmp_path / "a" / "state" / "archive") != fingerprint(
        tmp_path / "b" / "state" / "archive"
    )


# --- resume -------------------------------------------------------------------


def test_resume_completed_run_is_noop(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    assert main(["resume", "--state", str(tmp_path / "state")]) == 0
    assert "nothing to resume" in capsys.readouterr().out


def tree_state(root: Path) -> str:
    """Hash of every file's path, content, inode and mtime under `root`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        stat = path.stat()
        digest.update(f"{path.relative_to(root)}:{stat.st_ino}:{stat.st_mtime_ns}:".encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def cut_log_after(event_log: Path, iteration: int) -> None:
    """Cut the log back to the commit line of `iteration`, as a kill would leave it."""
    lines = event_log.read_bytes().splitlines(keepends=True)
    events = [json.loads(line) for line in lines]
    cut = next(i for i, e in enumerate(events)
               if e["event"] == "iteration_complete" and e["iteration"] == iteration)
    event_log.write_bytes(b"".join(lines[:cut + 1]))


def _add_validation_split(doc: dict) -> None:
    doc["domains"][0].update(has_validation=True, validation_task_ids=["probe-4"])


def _add_domain(doc: dict) -> None:
    doc["domains"].append({**doc["domains"][0], "name": "second"})


def assert_resume_refuses_edited_snapshot(tmp_path, capsys, edit) -> None:
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    state = tmp_path / "state"
    with open(state / "events.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"event": "resume", "iter')  # a torn line that resume would cut off
    snapshot = state / "config.json"
    doc = json.loads(snapshot.read_text())
    edit(doc)
    snapshot.write_text(json.dumps(doc))
    log_before = (state / "events.jsonl").read_bytes()
    archive_before = tree_state(state / "archive")
    capsys.readouterr()
    assert main(["resume", "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refusing to resume: config hash ") and len(err.splitlines()) == 1
    assert (state / "events.jsonl").read_bytes() == log_before
    assert tree_state(state / "archive") == archive_before


def test_resume_refuses_mismatched_config_hash(tmp_path, capsys):
    assert_resume_refuses_edited_snapshot(tmp_path, capsys, lambda doc: doc.update(seed=12345))


@pytest.mark.parametrize("edit", [_add_validation_split, _add_domain])
def test_resume_refuses_a_changed_domain_by_its_hash(tmp_path, capsys, edit):
    # the logged scores no longer cover the edited domains either; the hash is checked first
    assert_resume_refuses_edited_snapshot(tmp_path, capsys, edit)


def test_resume_of_a_copied_state_dir_writes_its_own_payloads(tmp_path):
    config_path = write_config(tmp_path / "a", iterations=6, seed=4)
    assert main(["run", "--config", str(config_path)]) == 0
    original, copy = tmp_path / "a" / "state", tmp_path / "b"
    shutil.copytree(original, copy)
    # config.json names the original state_dir by its absolute path
    assert json.loads((copy / "config.json").read_text())["state_dir"] == str(original)
    cut_log_after(copy / "events.jsonl", 2)
    payloads_before = tree_state(original / "payloads")
    copied_payloads = tree_state(copy / "payloads")

    assert main(["resume", "--state", str(copy)]) == 0
    assert tree_state(original / "payloads") == payloads_before
    assert tree_state(copy / "payloads") != copied_payloads
    assert fingerprint(copy / "archive") == fingerprint(original / "archive")


def test_resume_finds_a_relative_payload_dir_beside_the_config(tmp_path, monkeypatch):
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    cfg = tmp_path / "cfg"
    config_path = write_config(cfg, state_dir="st", payload_dir="pl")
    assert main(["run", "--config", str(config_path)]) == 0
    # the snapshot names the payload directory by its resolved path, so the
    # run resumes from its state directory under the same run id
    state = cfg / "st"
    payloads = (cfg / "pl").resolve()
    assert json.loads((state / "config.json").read_text())["payload_dir"] == str(payloads)
    finished = fingerprint(state / "archive")
    cut_log_after(state / "events.jsonl", 3)
    assert main(["resume", "--state", str(state)]) == 0
    assert fingerprint(state / "archive") == finished
    assert (payloads / "agent_root").is_dir() and not (state / "pl").exists()


@pytest.mark.parametrize("interrupted", [False, True])
def test_resume_parses_the_log_once(tmp_path, monkeypatch, capsys, interrupted):
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    state = tmp_path / "state"
    if interrupted:
        cut_log_after(state / "events.jsonl", 2)
    parses = []

    def counting(path):
        parses.append(path)
        return read_committed(path)

    read_committed = engine._read_committed
    monkeypatch.setattr(engine, "_read_committed", counting)
    capsys.readouterr()
    assert main(["resume", "--state", str(state)]) == 0
    assert parses == [state / "events.jsonl"]
    out = capsys.readouterr().out
    assert ("nothing to resume" in out) != interrupted
    monkeypatch.undo()
    assert load_state(_reload_config(state / "config.json")).completed


def test_resume_of_a_torn_config_snapshot_exits_2_and_writes_nothing(tmp_path, capsys):
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    state = tmp_path / "state"
    cut_log_after(state / "events.jsonl", 3)
    snapshot = state / "config.json"
    snapshot.write_bytes(snapshot.read_bytes()[:-20])
    log_before = (state / "events.jsonl").read_bytes()
    before = tree_state(state)
    capsys.readouterr()
    assert main(["resume", "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and "config.json" in err
    assert len(err.strip().splitlines()) == 1
    assert (state / "events.jsonl").read_bytes() == log_before
    assert tree_state(state) == before


def test_resume_missing_state_dir(tmp_path, capsys):
    assert main(["resume", "--state", str(tmp_path / "missing")]) == 2


def test_resume_without_event_log_exits_1(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    (tmp_path / "state" / "events.jsonl").unlink()
    assert main(["resume", "--state", str(tmp_path / "state")]) == 1
    err = capsys.readouterr().err
    assert "events.jsonl" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("content", [b'{"task', b"\xff\xfe{}"])
def test_torn_payload_genome_halts_resume_in_one_line(tmp_path, capsys, content):
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    state = tmp_path / "state"
    cut_log_after(state / "events.jsonl", 3)
    for genome in (state / "payloads").rglob("genome.json"):
        genome.write_bytes(content)
    capsys.readouterr()
    assert main(["resume", "--state", str(state)]) == 1
    err = capsys.readouterr().err
    assert "GenerationError" in err and "genome.json" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "backend, evaluator, key",
    [
        ({"kind": "external-process"}, {"kind": "synthetic"}, "backend.command"),
        ({"kind": "model-client"}, {"kind": "synthetic"}, "backend.url"),
        ({"kind": "simulated"}, {"kind": "command"}, "domains[0].evaluator.command"),
        ({"kind": "simulated"}, {"kind": "bogus"}, "domains[0].evaluator.kind"),
    ],
)
def test_missing_backend_or_evaluator_key_exits_2(tmp_path, capsys, backend, evaluator, key):
    doc = demo_config(state_dir=str(tmp_path / "state"), iterations=2)
    doc["domains"][0]["evaluator"] = evaluator
    config_path = write_config(tmp_path, backend=backend, domains=doc["domains"])
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "initial, key",
    [
        ({"meta_capability": 2}, "meta_capability"),
        ({"compile_probability": -0.5}, "compile_probability"),
        ({"compile_probability": "x"}, "initial.compile_probability"),
        ({"task_skill": "ab"}, "initial.task_skill"),
        ({"task_skill": [0.0, "ab"]}, "initial.task_skill[1]"),
        ({"task_skill": [0.0, float("inf")]}, "task_skill"),
        ({"payload_ref": 3}, "initial.payload_ref"),
        ({"bogus": 1}, "initial.bogus"),
    ],
)
def test_bad_initial_exits_2_and_keeps_the_earlier_run(tmp_path, capsys, initial, key):
    doc = demo_config(iterations=6, seed=11)
    doc["initial"].update(initial)
    err = rejected_before_the_state_is_touched(tmp_path, capsys, doc)
    assert key in err and "initial" in err


def rejected_before_the_state_is_touched(tmp_path, capsys, doc: dict) -> str:
    """The one stderr line of `run` of `doc` over an earlier run's state
    directory, which exits 2 and leaves that run's files as they were."""
    assert main(["run", "--config", str(write_config(tmp_path / "a"))]) == 0
    state = tmp_path / "a" / "state"
    before = tree_state(state)
    capsys.readouterr()
    assert main(["run", "--config", str(write_config(tmp_path / "b", **{
        **doc, "state_dir": str(state)}))]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    # nothing in the state directory was touched: the earlier run still resumes
    assert tree_state(state) == before
    assert main(["resume", "--state", str(state)]) == 0
    return err


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("domains",), [3], "domains[0]"),
        (("iterations",), "6", "iterations"),
        (("concurrency",), 1.5, "concurrency"),
        (("instruction_template",), ["t"], "instruction_template"),
        (("domains", 0, "task_ids"), [1, 2, 3], "domains[0].task_ids[0]"),
        (("domains", 0, "validation_task_ids"), ["probe-4"], "domains[0]"),
        (("domains", 0, "gate", "count"), "1", "domains[0].gate.count"),
        (("domains", 0, "gate", "kind"), "most", "domains[0].gate"),
        (("domains", 0, "evaluator"), {"kind": "command", "command": [1, 2]},
         "domains[0].evaluator.command[0]"),
        (("domains", 0, "evaluator"), {"kind": "command", "command": []},
         "domains[0].evaluator.command"),
        (("limits", "cpu_seconds"), 1.5, "limits.cpu_seconds"),
        (("policy", "sharpness"), "steep", "policy"),
        (("policy",), {"variant": "softmax", "temperature": float("nan")}, "policy"),
        (("policy",), {"variant": "softmax", "temperature": 10**400}, "policy"),
        (("policy",), {"variant": "ucb", "exploration_weight": float("inf")}, "policy"),
        (("backend", "landscape"), {"local_height": 10**400}, "backend.landscape.local_height"),
        (("backend", "step_sigma"), "x", "backend.step_sigma"),
        (("backend", "max_probes"), 2.5, "backend.max_probes"),
        (("backend", "landscape"), {"bogus": 1}, "backend.landscape.bogus"),
        (("backend", "landscape"), {"local_center": [0.8, "y"]},
         "backend.landscape.local_center[1]"),
        (("backend", "step_sigma"), float("nan"), "backend.step_sigma"),
        (("backend", "landscape"), {"base_level": float("nan")}, "backend.landscape.base_level"),
        (("limits", "wall_clock_seconds"), float("inf"), "limits.wall_clock_seconds"),
        (("policy",), {"variant": "softmax", "temperature": float("inf")}, "policy"),
        (("backend",), {"kind": "external-process", "command": []}, "backend.command"),
        (("backend",), {"kind": "model-client", "url": 3}, "backend.url"),
        (("domains", 0, "name"), "\ud800", "domains[0].name"),
        (("domains", 0, "task_ids"), ["probe-1", "a\udfff"], "domains[0].task_ids[1]"),
        # `_bump` divides by 2 * width**2, which rounds to 0 for a tiny width
        (("backend", "landscape"), {"local_width": 0.0}, "backend.landscape"),
        (("backend", "landscape"), {"global_width": 1e-200}, "backend.landscape"),
        # the domain rules of `Gate`, `StagedEvalPolicy` and `DomainSpec`
        (("domains", 0, "gate", "count"), 0, "domains[0].gate"),
        (("domains", 0, "gate"), {"kind": "min-fraction", "fraction": 1.5}, "domains[0].gate"),
        (("domains", 0, "subset_size"), 0, "domains[0]"),
        (("domains", 0, "full_size"), 0, "domains[0]"),
        (("domains", 0, "task_ids"), [], "domains[0]"),
        (("domains", 0, "task_ids"), ["probe-1", "probe-2", "probe-1"], "domains[0]"),
        (("domains", 0, "full_size"), 4, "domains[0]"),
        (("domains", 0, "has_validation"), True, "domains[0]"),
        (("domains", 0), {**demo_config()["domains"][0], "has_validation": True,
                          "validation_task_ids": ["probe-4", "probe-4"]}, "domains[0]"),
    ],
)
def test_bad_config_exits_2_and_keeps_the_earlier_run(tmp_path, capsys, path, value, key):
    doc = demo_config(iterations=6, seed=11)
    *parents, last = path
    section = doc
    for step in parents:
        section = section[step]
    section[last] = value
    assert f"'{key}'" in rejected_before_the_state_is_touched(tmp_path, capsys, doc)


@pytest.mark.parametrize(
    "settings, evaluator_specs, key",
    [
        ({"backend": {"kind": "simulated", "step_sigma": "0.1"}}, {}, "backend.step_sigma"),
        ({"backend": {"landscape": {"local_center": "xyz"}}}, {},
         "backend.landscape.local_center"),
        ({"backend": {"kind": "external-process", "command": ["/bin/true"],
                      "comand": ["/bin/true"]}}, {}, "backend.comand"),
        ({"initial": {"task_skil": [0.5, 0.0]}}, {}, "initial.task_skil"),
        ({"initial": {"task_skill": "abc"}}, {}, "initial.task_skill"),
        ({"initial": {"payload_ref": 5}}, {}, "initial.payload_ref"),
        ({"initial": 5}, {}, "initial"),
        ({"backend": "simulated"}, {}, "backend"),
        ({}, {"landscape": "synthetic"}, "evaluator_specs.landscape"),
        ({}, {"landscape": {"kind": "synthetic", "extra": 1}}, "domains[0].evaluator.extra"),
        ({}, {"landscpe": {"kind": "synthetic"}}, "evaluator_specs.landscpe"),
        # the paths as `parse_config` resolves them: here beside the current directory
        ({"mode": "dgm-fixed-instruction", "instruction_template": Path("no-such-template.txt")},
         {}, "instruction_template"),
        ({"state_dir": Path(os.fsdecode(b"state\xff"))}, {}, "state_dir"),
    ],
)
def test_a_bad_library_config_raises_before_the_earlier_run_is_touched(
        tmp_path, monkeypatch, settings, evaluator_specs, key):
    # the library path reads the documents by the CLI's tables: `RunConfig` its
    # `backend` and `initial`, `run` its evaluator specs; and it checks the paths
    # as `evoarchive run` does
    assert main(["run", "--config", str(write_config(tmp_path / "a"))]) == 0
    state = tmp_path / "a" / "state"
    before = tree_state(state)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"'{key}'")):
        run(make_config(tmp_path, **{"state_dir": state, **settings}),
            evaluator_specs=evaluator_specs)
    assert sorted(os.listdir(tmp_path)) == ["a"]
    assert tree_state(state) == before
    assert main(["resume", "--state", str(state)]) == 0


@pytest.mark.parametrize("seed", [-1, 2**32, 2**70])
def test_a_seed_outside_32_bits_exits_2_and_keeps_the_earlier_run(tmp_path, capsys, seed):
    # `rng.substream` keeps a seed's low 32 bits: seeds 1 and 2**32 + 1 would run
    # one trajectory under two run ids
    doc = {**demo_config(iterations=6, seed=11), "seed": seed}
    assert "seed must be in [0, 2**32)" in rejected_before_the_state_is_touched(
        tmp_path, capsys, doc)


@pytest.mark.parametrize("template", [None, b"\xff\xfe not utf-8"])
def test_unreadable_instruction_template_exits_2_and_keeps_the_earlier_run(
        tmp_path, capsys, template):
    if template is not None:
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "t.txt").write_bytes(template)
    doc = {**demo_config(iterations=6, seed=11), "mode": "dgm-fixed-instruction",
           "instruction_template": "t.txt"}
    err = rejected_before_the_state_is_touched(tmp_path, capsys, doc)
    assert "'instruction_template'" in err and "t.txt" in err


def test_initial_payload_ref_is_read_beside_the_config(tmp_path, monkeypatch):
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    root = SimulatedAgentGenome([0.5, 0.0, 0.0], 0.05, 0.95)
    root.write_payload(tmp_path / "agent")
    config_path = write_config(tmp_path, initial={"payload_ref": "agent"})
    assert main(["run", "--config", str(config_path)]) == 0
    state = tmp_path / "state"
    assert SimulatedAgentGenome.from_payload(state / "payloads" / "agent_root") == root
    # the snapshot keeps the value as written: `resume` never reads the initial payload
    assert json.loads((state / "config.json").read_text())["initial"] == {"payload_ref": "agent"}
    cut_log_after(state / "events.jsonl", 2)
    assert main(["resume", "--state", str(state)]) == 0


def test_instruction_template_is_read_beside_the_config(tmp_path, monkeypatch):
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    config_path = write_config(tmp_path, mode="dgm-fixed-instruction",
                               instruction_template="t.txt")
    template = tmp_path / "t.txt"
    template.write_text("TEMPLATE {code}", encoding="utf-8")
    assert _reload_config(config_path).instruction_template == template
    assert main(["run", "--config", str(config_path)]) == 0
    # the snapshot names the template by its resolved path, so the run resumes
    # from its state directory
    state = tmp_path / "state"
    assert json.loads((state / "config.json").read_text())["instruction_template"] == str(template)
    cut_log_after(state / "events.jsonl", 2)
    assert main(["resume", "--state", str(state)]) == 0
    instructions = [e for e in engine.read_events(state / "events.jsonl")
                    if e["event"] == "instruction"]
    assert instructions and {e["template"] for e in instructions} == {str(template)}


NOT_UTF8_DIR = os.fsdecode(b"d\xff")


@pytest.mark.parametrize("key", ["state_dir", "payload_dir", "instruction_template"])
def test_a_path_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys, key):
    # a child that does not compile logs its path: the run must not start
    here = tmp_path / NOT_UTF8_DIR
    here.mkdir()
    doc = {**demo_config(state_dir=str(tmp_path / "state"), iterations=6, seed=11),
           key: "t.txt" if key == "instruction_template" else "sub"}
    doc["initial"]["compile_probability"] = 0.3
    if key == "instruction_template":
        doc["mode"] = "dgm-fixed-instruction"
        (here / "t.txt").write_text("TEMPLATE {code}", encoding="utf-8")
    (here / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    before = tree_state(here)
    assert main(["run", "--config", str(here / "config.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: key '{key}': path ") and "not UTF-8" in err
    assert len(err.strip().splitlines()) == 1
    assert tree_state(here) == before and sorted(os.listdir(tmp_path)) == [NOT_UTF8_DIR]


def test_resume_of_a_state_dir_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys):
    assert main(["run", "--config", str(write_config(tmp_path / "a"))]) == 0
    state = tmp_path / NOT_UTF8_DIR
    shutil.copytree(tmp_path / "a" / "state", state)
    cut_log_after(state / "events.jsonl", 3)
    before = tree_state(state)
    capsys.readouterr()
    assert main(["resume", "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'state_dir': path ") and "not UTF-8" in err
    assert len(err.strip().splitlines()) == 1
    assert tree_state(state) == before


def test_config_tables_match_the_objects_they_build():
    # a field or parameter added without its config key (or the reverse) fails here
    assert GATE_KEYS == typing.get_type_hints(Gate)
    assert LIMITS_KEYS == typing.get_type_hints(SandboxLimits)
    assert set(LANDSCAPE_KEYS) == {f.name for f in dataclasses.fields(TwoPeakLandscape)}
    assert set(INITIAL_KEYS) == {f.name for f in dataclasses.fields(SimulatedAgentGenome)} | {
        "payload_ref"}
    # the rest are wired by the engine from the run's seed, mode and root payload
    wired = {"self", "master_seed", "self_improve", "root_payload_ref",
             "evolve_selection_policy"}
    tunable = set(inspect.signature(SimulatedBackend.__init__).parameters) - wired
    assert set(SIMULATED_BACKEND_KEYS) == tunable | {"kind"}


def test_malformed_initial_selection_policy_is_not_a_config_error(tmp_path):
    # agent payload: the run's selection routine falls back to uniform instead
    doc = demo_config(state_dir=str(tmp_path / "state"), iterations=2)
    parse_config({**doc, "initial": {**doc["initial"], "selection_policy": "junk"}})


def test_missing_generation_command_exits_1(tmp_path, capsys):
    config_path = write_config(
        tmp_path, backend={"kind": "external-process",
                           "command": [str(tmp_path / "no-such-generator")]},
    )
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "GenerationError" in err and "no-such-generator" in err
    assert len(err.strip().splitlines()) == 1


def test_model_client_non_utf8_payload_file_exits_1(tmp_path, capsys):
    # the parent bundle is read before any request is sent; the endpoint is local
    root = tmp_path / "root_agent"
    SimulatedAgentGenome([0.0, 0.0, 0.0], 0.05, 0.95).write_payload(root)
    (root / "blob.bin").write_bytes(b"\x89PNG\r\n\x1a\n\xff")
    config_path = write_config(
        tmp_path, initial={"payload_ref": str(root)},
        backend={"kind": "model-client", "url": "http://127.0.0.1:9/generate"},
    )
    for command in (["run", "--config", str(config_path)],
                    ["resume", "--state", str(tmp_path / "state")]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert "GenerationError" in err and "blob.bin" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("genome", [
    '{"task_skill": ["0.0", "0.0", "0.0"], "compile_probability": "0.95"}',
    '{"task_skill": ["nan", "0.0", "0.0"], "meta_capability": "0.05",'
    ' "compile_probability": "0.95"}',
    '{"task_skill": ["0.0", "0.0", "0.0"], "meta_capability": "0.05",'
    ' "compile_probability": "2"}',
    '["0.0", "0.0", "0.0"]',
], ids=["no meta_capability", "a nan skill", "compile_probability 2", "an array"])
def test_a_root_that_is_no_genome_fails_run_before_any_log(tmp_path, capsys, genome):
    # the probe reads the root by the backend's rule: a root that it accepted
    # would halt the run at iteration 1, and every resume after it
    root = tmp_path / "root_agent"
    root.mkdir()
    (root / "genome.json").write_text(genome, encoding="utf-8")
    config_path = write_config(tmp_path, initial={"payload_ref": str(root)})
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    with pytest.raises(GenerationError) as verdict:
        SimulatedAgentGenome.from_payload(tmp_path / "state" / "payloads" / "agent_root")
    assert "validity check" in err and "genome.json" in err and str(verdict.value) in err
    assert not (tmp_path / "state" / "events.jsonl").exists()


# --- analyze ------------------------------------------------------------------


@pytest.fixture
def finished_run(tmp_path) -> Path:
    config_path = write_config(tmp_path, iterations=12, seed=4)
    assert main(["run", "--config", str(config_path)]) == 0
    return tmp_path / "state"


def test_analyze_tree_dot(finished_run, tmp_path):
    out = tmp_path / "tree.dot"
    assert main(["analyze", "--state", str(finished_run), "--metric", "tree",
                 "--out", str(out)]) == 0
    arch = load(finished_run / "archive")
    text = out.read_text()
    assert text.count("[label=") == len(arch)
    assert text.count("->") == len(arch) - 1


def test_analyze_progress_rows(finished_run, tmp_path):
    out = tmp_path / "progress.csv"
    assert main(["analyze", "--state", str(finished_run), "--metric", "progress",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 12 + 1


def test_analyze_transfer_matches_independent_recomputation(finished_run, tmp_path):
    out = tmp_path / "transfer.csv"
    code = main(["analyze", "--state", str(finished_run), "--metric", "transfer",
                 "--out", str(out)])
    arch = load(finished_run / "archive")

    # independent recomputation from the exported archive records
    def score(i):
        s = arch.node(i).scores["landscape"]
        return s.train if s.validation is None else s.validation

    def offspring(i):
        out_ids = []
        for node in arch.nodes:
            current = node.parent_id
            while current is not None:
                if current == i:
                    out_ids.append(node.id)
                    break
                current = arch.node(current).parent_id
        return out_ids

    def depth(i):
        d, cur = 0, arch.node(i).parent_id
        while cur is not None:
            d, cur = d + 1, arch.node(cur).parent_id
        return d

    best_id, best_g = None, -math.inf
    for node in arch.nodes:
        kids = offspring(node.id)
        if len(kids) < 3:
            continue
        g = sum(
            (score(j) - score(node.id)) * 0.6 ** (depth(j) - depth(node.id))
            for j in kids
        ) / len(kids)
        if g > best_g:
            best_id, best_g = node.id, g

    if best_id is None:
        assert code == 1  # no eligible node in this run shape
        return
    assert code == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert int(row["selected_node"]) == best_id
    assert float(row["growth_score"]) == pytest.approx(best_g, abs=1e-12)


def test_analyze_ci_brackets_median(finished_run, tmp_path):
    out = tmp_path / "ci.csv"
    assert main(["analyze", "--state", str(finished_run), "--metric", "ci",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["lower"]) <= float(row["median"]) <= float(row["upper"])


def test_analyze_impk_max_variant(finished_run, tmp_path):
    out = tmp_path / "impk.csv"
    assert main(["analyze", "--state", str(finished_run), "--metric", "impk",
                 "--out", str(out)]) == 0
    arch = load(finished_run / "archive")
    scores = [n.scores["landscape"].train for n in arch.nodes]
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["improvement_at_k"]) == pytest.approx(
        max(scores[1:]) - scores[0] if len(scores) > 1 else 0.0
    )


def test_analyze_impk_no_open_ended_takes_every_archived_child(tmp_path):
    # the archive holds only the newest child; impk ranges over every child
    # the run archived, each with the selection score its evaluation logged
    config_path = write_config(tmp_path, mode="no-open-ended", iterations=8)
    assert main(["run", "--config", str(config_path)]) == 0
    state = tmp_path / "state"
    scores = {e["node_id"]: e["selection_score"]
              for e in engine.read_events(state / "events.jsonl")
              if e["event"] == "evaluation"}
    assert len(load(state / "archive")) == 1 and len(scores) > 2
    out = tmp_path / "impk.csv"
    assert main(["analyze", "--state", str(state), "--metric", "impk",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    generated = [score for node_id, score in scores.items() if node_id != 0]
    assert int(row["k"]) == len(generated)
    assert float(row["initial_score"]) == scores[0]
    assert float(row["improvement_at_k"]) == max(generated) - scores[0]


@pytest.mark.parametrize("variant", ["max", "validation-selected"])
def test_analyze_has_no_impk_variant_flag(finished_run, tmp_path, capsys, variant):
    # improvement@k has one variant; argparse rejects the flag before any read
    out = tmp_path / "impk.csv"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--state", str(finished_run), "--metric", "impk",
              "--impk-variant", variant, "--out", str(out)])
    assert exc.value.code == 2
    assert "--impk-variant" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_never_mutates_state(finished_run, tmp_path):
    before = fingerprint(finished_run / "archive")
    log_before = (finished_run / "events.jsonl").read_bytes()
    for metric in ("tree", "progress", "ci", "impk"):
        main(["analyze", "--state", str(finished_run), "--metric", metric,
              "--out", str(tmp_path / f"{metric}.out")])
    assert fingerprint(finished_run / "archive") == before
    assert (finished_run / "events.jsonl").read_bytes() == log_before


def tamper_root_record(state_dir: Path) -> None:
    record = state_dir / "archive" / "nodes" / "node_000000.json"
    doc = json.loads(record.read_text())
    doc["compiled_children"] += 1
    record.write_text(json.dumps(doc))


def test_analyze_ignores_tampered_archive(finished_run, tmp_path):
    # analyze replays the event log; archive/ is written, never read back
    before, after = tmp_path / "before.dot", tmp_path / "after.dot"
    assert main(["analyze", "--state", str(finished_run), "--metric", "tree",
                 "--out", str(before)]) == 0
    tamper_root_record(finished_run)
    assert main(["analyze", "--state", str(finished_run), "--metric", "tree",
                 "--out", str(after)]) == 0
    assert after.read_bytes() == before.read_bytes()


def test_analyze_corrupt_committed_line_exits_1(finished_run, tmp_path, capsys):
    event_log = finished_run / "events.jsonl"
    lines = event_log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = '{"event": "archive_add", "node_id": 0\n'  # the root's add, committed
    event_log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", "--state", str(finished_run), "--metric", "tree",
                 "--out", str(tmp_path / "t.dot")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "IntegrityError" in err and "line 3 " in err


# each stands in for a committed line in the middle of iteration 2's batch
MALFORMED_LINES = {
    "torn": b'{"event": "genera\n',
    "blank": b"\n",
    "utf-8 byte-order mark": b'\xef\xbb\xbf{"event": "validation"}\n',
    "utf-16": '{"event": "validation"}'.encode("utf-16") + b"\n",
    "utf-8-encoded surrogate": b'{"event": "validation", "note": "\xed\xa0\x80"}\n',
    "escaped unpaired surrogate": b'{"event": "validation", "note": "\\ud800"}\n',
    "NaN": b'{"event": "validation", "ok": NaN}\n',
    "Infinity": b'{"event": "validation", "ok": Infinity}\n',
    "-Infinity": b'{"event": "validation", "ok": -Infinity}\n',
    "1e400": b'{"event": "validation", "ok": 1e400}\n',
    "trailing data": b'{"event": "validation"} {}\n',
    "non-object": b'["event", "validation"]\n',
    "no event key": b'{"kind": "validation"}\n',
}


def break_line(state_dir: Path, bad: bytes) -> int:
    """Put `bad` in place of the second line of iteration 2's batch in the
    run's log; returns its line number."""
    event_log = state_dir / "events.jsonl"
    lines = event_log.read_bytes().splitlines(keepends=True)
    index = [i for i, line in enumerate(lines) if b'"iteration_complete"' in line][1] + 2
    lines[index] = bad
    event_log.write_bytes(b"".join(lines))
    return index + 1


@pytest.mark.parametrize("name", sorted(MALFORMED_LINES))
def test_a_malformed_line_is_named_by_replay_and_analyze(finished_run, tmp_path, capsys, name):
    lineno = break_line(finished_run, MALFORMED_LINES[name])
    event_log = finished_run / "events.jsonl"
    with pytest.raises(engine.IntegrityError, match=f"corrupt event at line {lineno} of "):
        engine.replay_log(event_log)
    capsys.readouterr()
    assert main(["analyze", "--state", str(finished_run), "--metric", "tree",
                 "--out", str(tmp_path / "t.dot")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"corrupt event at line {lineno} of {event_log}" in err


DEEP_ANALYZE = """
import sys, threading
from evoarchive.cli import main
argv = ["analyze", "--state", sys.argv[1], "--metric", "tree", "--out", sys.argv[2]]
if sys.argv[3] == "main":
    sys.exit(main(argv))
threading.stack_size(256 * 1024)
codes = []
worker = threading.Thread(target=lambda: codes.append(main(argv)))
worker.start()
worker.join()
sys.exit(codes[0])
"""


@pytest.mark.parametrize("thread", ["main", "256 KB stack"])
def test_a_line_nested_a_million_deep_exits_1_not_by_a_signal(finished_run, tmp_path, thread):
    lineno = break_line(finished_run, b"[" * 1_000_000 + b"]" * 1_000_000 + b"\n")
    env = {**os.environ, "PYTHONPATH": str(Path(evoarchive.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", DEEP_ANALYZE, str(finished_run), str(tmp_path / "t.dot"), thread],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 1, result
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert f"corrupt event at line {lineno} of " in result.stderr


NO_AGENT = ValueError("the run archives no agent, not even the root")


def rootless_state(tmp_path: Path) -> Path:
    """A state directory whose committed log archives no agent: `run_start`
    and `iteration_complete 0` only, beside the config snapshot of its run."""
    config_path = write_config(tmp_path)
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    shutil.copy(config_path, state_dir / "config.json")
    run_id = config_hash(read_config_doc(config_path))[:12]
    append_events(state_dir / "events.jsonl", [
        {"event": "run_start", "time": "t", "run_id": run_id, "mode": "full",
         "seed": 11, "iterations": 6},
        {"event": "iteration_complete", "time": "t", "iteration": 0},
    ])
    return state_dir


@pytest.mark.parametrize("command", [*ANALYZE_METRICS, "resume"])
def test_a_log_that_archives_no_agent_exits_1_and_writes_nothing(tmp_path, capsys, command):
    state_dir = rootless_state(tmp_path)
    before = tree_state(tmp_path)
    argv = (["resume", "--state", str(state_dir)] if command == "resume" else
            ["analyze", "--state", str(state_dir), "--metric", command,
             "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert (f"IntegrityError: bad event at line 2 of {state_dir / 'events.jsonl'}: "
            f"{NO_AGENT!r}") in err
    assert tree_state(tmp_path) == before


NOT_COMMITTED = {
    "an empty log": lambda run_start: b"",
    "a torn first batch": lambda run_start: run_start + b'{"event": "evaluation", "iter',
}


@pytest.mark.parametrize("command", [*ANALYZE_METRICS, "resume", "load_state"])
@pytest.mark.parametrize("log", sorted(NOT_COMMITTED))
def test_a_log_with_no_committed_iteration_exits_1_and_writes_nothing(tmp_path, capsys, log,
                                                                      command):
    # a run killed before its root was logged cannot be resumed, nor analyzed
    state_dir = rootless_state(tmp_path)
    event_log = state_dir / "events.jsonl"
    event_log.write_bytes(NOT_COMMITTED[log](event_log.read_bytes().splitlines(True)[0]))
    before = tree_state(tmp_path)
    message = f"IntegrityError: {event_log} holds no completed iteration"
    if command == "load_state":
        with pytest.raises(engine.IntegrityError) as caught:
            load_state(_reload_config(state_dir / "config.json"))
        assert f"{type(caught.value).__name__}: {caught.value}" == message
    else:
        argv = (["resume", "--state", str(state_dir)] if command == "resume" else
                ["analyze", "--state", str(state_dir), "--metric", command,
                 "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"{argv[0]} halted: {message}\n"
    assert tree_state(tmp_path) == before


def rewrite_committed_log(state_dir: Path, edit) -> int:
    """Cut the log back to iteration 2's commit, so that `resume` has work left,
    and let `edit` change the committed events in place; returns the line number
    that `edit` returns."""
    event_log = state_dir / "events.jsonl"
    cut_log_after(event_log, 2)
    events = engine.read_events(event_log)
    lineno = edit(events)
    event_log.unlink()
    append_events(event_log, events)
    return lineno


def edit_a_committed_event(state_dir: Path, edit, pick) -> int:
    """`rewrite_committed_log` that applies `edit` to the committed event at the
    index `pick` returns for the events; returns the line number of that event."""
    def rewrite(events: list[dict]) -> int:
        index = pick(events)
        edit(events[index])
        return index + 1

    return rewrite_committed_log(state_dir, rewrite)


def edit_a_child_evaluation(state_dir: Path, edit) -> int:
    """`edit_a_committed_event` of the first child's `evaluation` event."""
    return edit_a_committed_event(state_dir, edit, lambda events: next(
        i for i, e in enumerate(events) if e["event"] == "evaluation" and e["node_id"] > 0))


def null_train_scores(event: dict) -> None:
    for record in event["scores"].values():
        record["train"] = None


def assert_bad_event_refused(state_dir: Path, tmp_path: Path, capsys, command: str,
                             lineno: int, error: Exception) -> None:
    """`replay_log` names line `lineno` and raises from `error` (its type and
    message), `command` exits 1 with one stderr line naming both, writing nothing,
    and `_commit` of the line's batch onto the state before it raises `error`,
    appending nothing."""
    event_log = state_dir / "events.jsonl"
    with pytest.raises(engine.IntegrityError, match=f"bad event at line {lineno} of ") as caught:
        engine.replay_log(event_log)
    assert repr(caught.value.__cause__) == repr(error)
    before = tree_state(tmp_path)
    argv = (["resume", "--state", str(state_dir)] if command == "resume" else
            ["analyze", "--state", str(state_dir), "--metric", command,
             "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert f"IntegrityError: bad event at line {lineno} of {event_log}: {error!r}" in err
    assert tree_state(tmp_path) == before

    batches = [batch for batch, _ in engine._read_committed(event_log)]
    index = next(i for i, end in enumerate(itertools.accumulate(map(len, batches)))
                 if end >= lineno)
    live_log = tmp_path / "live" / "events.jsonl"
    live_log.parent.mkdir()
    append_events(live_log, [event for batch in batches[:index] for event in batch])
    state = engine.replay_log(live_log) if index else engine._empty_state(live_log)
    committed = live_log.read_bytes()
    with pytest.raises(type(error)) as caught:
        engine._commit(state, batches[index])
    assert repr(caught.value) == repr(error)
    assert live_log.read_bytes() == committed


@pytest.mark.parametrize("command", [*ANALYZE_METRICS, "resume"])
def test_a_null_train_score_exits_1_and_writes_nothing(finished_run, tmp_path, capsys,
                                                        command):
    lineno = edit_a_child_evaluation(finished_run, null_train_scores)
    assert_bad_event_refused(finished_run, tmp_path, capsys, command, lineno,
                             ValueError("train score None outside [0, 1]"))


@pytest.mark.parametrize("command", [*ANALYZE_METRICS, "resume"])
def test_an_evaluation_without_a_domain_exits_1_and_writes_nothing(finished_run, tmp_path,
                                                                   capsys, command):
    lineno = edit_a_child_evaluation(finished_run, lambda event: event["scores"].clear())
    assert_bad_event_refused(finished_run, tmp_path, capsys, command, lineno,
                             ValueError("evaluation holds no domain's scores"))


# a committed field of the wrong JSON type: the event kind, the field, its value, and
# the error; `scores` is edited in the first child's `evaluation`, an `archive_add`
# field in the last one (node 2, whose parent is node 1, so that `true` names a node),
# and `iteration` in the last commit line
MISTYPED_FIELDS = {
    "scores an array": ("evaluation", "scores",
                        [["landscape", {"train": 0.5, "validation": None, "test": None}]],
                        TypeError("evaluation scores are a list, not an object")),
    "scores a string": ("evaluation", "scores", "landscape",
                        TypeError("evaluation scores are a str, not an object")),
    "iteration a string": ("iteration_complete", "iteration", "2",
                           TypeError("iteration '2' is not an integer")),
    "iteration null": ("iteration_complete", "iteration", None,
                       TypeError("iteration None is not an integer")),
    "iteration a fraction": ("iteration_complete", "iteration", 2.5,
                             TypeError("iteration 2.5 is not an integer")),
    "iteration true": ("iteration_complete", "iteration", True,
                       TypeError("iteration True is not an integer")),
    "archived parent true": ("archive_add", "parent_id", True,
                             TypeError("parent_id True is not an integer")),
    "archived parent a fraction": ("archive_add", "parent_id", 1.5,
                                   TypeError("parent_id 1.5 is not an integer")),
    "archived parent a string": ("archive_add", "parent_id", "1",
                                 TypeError("parent_id '1' is not an integer")),
    "archived iteration true": ("archive_add", "iteration", True,
                                TypeError("iteration True is not an integer")),
    "archived iteration a fraction": ("archive_add", "iteration", 1.5,
                                      TypeError("iteration 1.5 is not an integer")),
    "archived iteration a string": ("archive_add", "iteration", "1",
                                    TypeError("iteration '1' is not an integer")),
}


@pytest.mark.parametrize("command", [*ANALYZE_METRICS, "resume"])
@pytest.mark.parametrize("name", sorted(MISTYPED_FIELDS))
def test_a_mistyped_field_exits_1_and_writes_nothing(finished_run, tmp_path, capsys, name,
                                                     command):
    kind, field, value, error = MISTYPED_FIELDS[name]

    def edit(event: dict) -> None:
        event[field] = value

    if kind == "evaluation":
        lineno = edit_a_child_evaluation(finished_run, edit)
    else:
        lineno = edit_a_committed_event(finished_run, edit, lambda events: max(
            i for i, e in enumerate(events) if e["event"] == kind))
    assert_bad_event_refused(finished_run, tmp_path, capsys, command, lineno, error)


def a_second_run_start(events: list[dict]) -> int:
    """A copy of `run_start` as the first line of iteration 2's batch."""
    index = max(i for i, e in enumerate(events) if e["event"] == "iteration_complete"
                and e["iteration"] == 1) + 1
    events.insert(index, dict(events[0]))
    return index + 1


def an_evaluation_first(events: list[dict]) -> int:
    """The root's `evaluation` swapped with the `run_start` before it."""
    events[0], events[1] = events[1], events[0]
    return 1


def set_last(*kinds: str, **fields):
    """An edit that sets `fields` in the last committed event of each of `kinds`,
    the events of node 2 and of iteration 2, and names the last of them."""
    def edit(events: list[dict]) -> int:
        indices = [max(i for i, e in enumerate(events) if e["event"] == kind) for kind in kinds]
        for index in indices:
            events[index].update(fields)
        return max(indices) + 1

    return edit


def an_evaluation_a_batch_early(events: list[dict]) -> int:
    """The last `evaluation` (node 2's) moved to just before the commit line of the
    batch before its own; names the moved line."""
    index = max(i for i, e in enumerate(events) if e["event"] == "evaluation")
    commit = max(i for i, e in enumerate(events[:index]) if e["event"] == "iteration_complete")
    events.insert(commit, events.pop(index))
    return commit + 1


def the_last_archive_add_deleted(events: list[dict]) -> int:
    """Node 2's `archive_add` deleted; names the commit line of its batch."""
    index = max(i for i, e in enumerate(events) if e["event"] == "archive_add")
    del events[index]
    return next(i for i in range(index, len(events))
                if events[i]["event"] == "iteration_complete") + 1


def the_root_deleted(events: list[dict]) -> int:
    """The root's `evaluation` and `archive_add` deleted, which leaves the first batch
    `run_start` and `iteration_complete 0`; names that commit line."""
    assert [e["event"] for e in events[1:3]] == ["evaluation", "archive_add"]
    del events[1:3]
    return 2


def a_run_complete(iteration, *unarchived: int, named: int = 0):
    """An edit that commits one more batch: copies of node 2's `evaluation` under the
    ids `unarchived`, then `run_complete` at `iteration`; names the line `named`
    lines before the `run_complete`."""
    def edit(events: list[dict]) -> int:
        evaluation = next(e for e in reversed(events) if e["event"] == "evaluation")
        events.extend({**evaluation, "node_id": node_id} for node_id in unarchived)
        events.append({"event": "run_complete", "time": "t", "iteration": iteration})
        return len(events) - named

    return edit


def a_batch(commit: str, iteration: int, node_3_at: int | None = None, named: int = 0):
    """An edit that commits one more batch: node 2's `evaluation` and `archive_add`
    copied as node 3 created at iteration `node_3_at` (if given), then `commit` at
    `iteration`; names the line `named` lines before the commit line."""
    def edit(events: list[dict]) -> int:
        if node_3_at is not None:
            events.extend({**next(e for e in reversed(events) if e["event"] == kind),
                           "node_id": 3, "iteration": node_3_at}
                          for kind in ("evaluation", "archive_add"))
        events.append({"event": commit, "time": "t", "iteration": iteration})
        return len(events) - named

    return edit


def lines(*kinds_at: tuple[str, int], named: int = 1):
    """An edit that commits more lines: one of each kind at its iteration, with no
    other field but `time`, the last a commit line; names the `named`-th of them."""
    def edit(events: list[dict]) -> int:
        start = len(events)
        events.extend({"event": kind, "time": "t", "iteration": iteration}
                      for kind, iteration in kinds_at)
        return start + named

    return edit


RUN_START_RULE = "run_start must be the first event, and only the first"
NOT_ARCHIVED = ValueError("node 2 is evaluated but not archived in its batch")
RUN_COMPLETE_PLACE = "run_complete after {}: it follows iteration_complete or heads its batch"


def landscape(**record) -> dict:
    return {"landscape": {"validation": None, "test": None, **record}}


# every way the fold refuses a committed event that parses: the edit of the log,
# and the error the fold raises from, whether it replays the log or commits live
FOLD_REFUSALS = {
    "a second run_start": (a_second_run_start, ValueError(RUN_START_RULE)),
    "an evaluation before run_start": (an_evaluation_first, ValueError(RUN_START_RULE)),
    "scores an array": (set_last("evaluation", scores=[]),
                        TypeError("evaluation scores are a list, not an object")),
    "scores empty": (set_last("evaluation", scores={}),
                     ValueError("evaluation holds no domain's scores")),
    "a trian key": (set_last("evaluation", scores=landscape(trian=0.5)), TypeError(
        "DomainScores.__init__() got an unexpected keyword argument 'trian'")),
    "train 1.5": (set_last("evaluation", scores=landscape(train=1.5)),
                  ValueError("train score 1.5 outside [0, 1]")),
    "node_id true": (set_last("evaluation", "archive_add", node_id=True),
                     TypeError("id True is not an integer")),
    "node_id a fraction": (set_last("evaluation", "archive_add", node_id=1.5),
                           TypeError("id 1.5 is not an integer")),
    "node_id a string": (set_last("evaluation", "archive_add", node_id="1"),
                         TypeError("id '1' is not an integer")),
    "parent_id true": (set_last("archive_add", parent_id=True),
                       TypeError("parent_id True is not an integer")),
    "iteration a string": (set_last("iteration_complete", iteration="3"),
                           TypeError("iteration '3' is not an integer")),
    "a dangling parent": (set_last("archive_add", parent_id=7),
                          ArchiveError("node 2 references dangling parent 7")),
    "a duplicate id": (set_last("evaluation", "archive_add", node_id=1),
                       ArchiveError("duplicate node id 1")),
    "an evaluation a batch early": (an_evaluation_a_batch_early,
        ValueError("evaluation at iteration 2, after iteration 0 completed")),
    "the last archive_add deleted": (the_last_archive_add_deleted, NOT_ARCHIVED),
    "the root deleted": (the_root_deleted, NO_AGENT),
    "a run_complete after an unarchived evaluation": (a_run_complete(2, 3, named=1),
        ValueError("evaluation at iteration 2, after iteration 2 completed")),
    "a run_complete at a later iteration": (
        a_run_complete(3), ValueError("run_complete at iteration 3, after iteration 2 completed")),
    "run_complete iteration true": (a_run_complete(True),
                                    TypeError("iteration True is not an integer")),
    "a node created in a completed iteration": (a_batch("run_complete", 2, 2, named=2),
        ValueError("evaluation at iteration 2, after iteration 2 completed")),
    "a run_complete that ends a batch archiving a node": (a_batch("run_complete", 2, 3),
        ValueError(RUN_COMPLETE_PLACE.format("archive_add"))),
    "an iteration skipped": (a_batch("iteration_complete", 4),
        ValueError("iteration_complete at iteration 4, after iteration 2 completed")),
    "a node created at a later iteration": (a_batch("iteration_complete", 3, 7, named=2),
        ValueError("evaluation at iteration 7, after iteration 2 completed")),
    "a selection a batch late": (lines(("selection", 2), ("iteration_complete", 3)),
        ValueError("selection at iteration 2, after iteration 2 completed")),
    "an instruction a batch early": (lines(("instruction", 4), ("iteration_complete", 3)),
        ValueError("instruction at iteration 4, after iteration 2 completed")),
    "a generation two batches late": (lines(("generation", 1), ("iteration_complete", 3)),
        ValueError("generation at iteration 1, after iteration 2 completed")),
    "a validation at iteration -1": (lines(("validation", -1), ("iteration_complete", 3)),
        ValueError("validation at iteration -1, after iteration 2 completed")),
    "an archive_reject a batch late": (lines(("archive_reject", 2), ("iteration_complete", 3)),
        ValueError("archive_reject at iteration 2, after iteration 2 completed")),
    "an evaluation a batch late": (lines(("evaluation", 2), ("iteration_complete", 3)),
        ValueError("evaluation at iteration 2, after iteration 2 completed")),
    "a resume at the batch's own iteration": (lines(("resume", 3), ("iteration_complete", 3)),
        ValueError("resume at iteration 3, after iteration 2 completed")),
    "a resume in the middle of a batch": (
        lines(("selection", 3), ("resume", 2), ("iteration_complete", 3), named=2),
        ValueError("resume after selection: it heads its batch")),
    "a run_complete after a selection": (lines(("selection", 3), ("run_complete", 2), named=2),
        ValueError(RUN_COMPLETE_PLACE.format("selection"))),
    "a batch after run_complete": (
        lines(("run_complete", 2), ("selection", 3), ("iteration_complete", 3), named=2),
        ValueError("selection after run_complete: nothing follows it")),
    "payload_ref a number": (set_last("archive_add", payload_ref=5),
                             TypeError("payload_ref 5 is not a string")),
    "run_id a number": (set_last("run_start", run_id=5), TypeError("run_id 5 is not a string")),
    "an unknown mode": (set_last("run_start", mode="turbo"),
                        ValueError("unknown mode 'turbo'")),
}


@pytest.mark.parametrize("command", [*ANALYZE_METRICS, "resume"])
@pytest.mark.parametrize("name", sorted(FOLD_REFUSALS))
def test_the_fold_refuses_a_bad_event_alike_in_replay_and_commit(finished_run, tmp_path,
                                                                  capsys, name, command):
    edit, error = FOLD_REFUSALS[name]
    lineno = rewrite_committed_log(finished_run, edit)
    assert_bad_event_refused(finished_run, tmp_path, capsys, command, lineno, error)


def test_each_node_is_scored_once_per_domain(tmp_path, monkeypatch):
    domain = demo_config(state_dir="unused")["domains"][0]
    domains = [{**domain, "name": "c"},
               {**domain, "name": "a", "has_validation": True, "validation_task_ids": ["v"]},
               {**domain, "name": "b"}]
    assert main(["run", "--config", str(write_config(tmp_path, domains=domains))]) == 0
    finished_run = tmp_path / "state"
    calls = 0
    component = DomainScores.selection_component

    def counting(scores):
        nonlocal calls
        calls += 1
        return component(scores)

    monkeypatch.setattr(DomainScores, "selection_component", counting)
    state = engine.replay_log(finished_run / "events.jsonl")
    per_replay = 3 * len(state.archived)
    assert calls == per_replay
    for metric in ANALYZE_METRICS:
        calls = 0
        assert main(["analyze", "--state", str(finished_run), "--metric", metric,
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == per_replay, metric  # the replay's, and none by the metric

    # `_step`'s view scores no node: only the children an iteration archives are
    config = _reload_config(finished_run / "config.json")
    cut_log_after(finished_run / "events.jsonl", config.iterations - 1)
    state = engine.replay_log(finished_run / "events.jsonl")
    archived = len(state.archived)
    calls = 0
    engine.step(state, config)
    assert len(state.archived) > archived
    assert calls == len(config.domains) * (len(state.archived) - archived)


@pytest.mark.parametrize("metric", ANALYZE_METRICS)
def test_analyze_parses_the_log_once(finished_run, tmp_path, monkeypatch, metric):
    parses = []

    def counting(path):
        parses.append(path)
        return read_committed(path)

    read_committed = engine._read_committed
    monkeypatch.setattr(engine, "_read_committed", counting)
    assert main(["analyze", "--state", str(finished_run), "--metric", metric,
                 "--out", str(tmp_path / "out")]) == 0
    assert parses == [finished_run / "events.jsonl"]


LOADS = {
    "analyze": lambda state: main(["analyze", "--state", str(state), "--metric", "tree",
                                   "--out", str(state.parent / "tree.dot")]),
    "load_state": lambda state: load_state(_reload_config(state / "config.json")),
    "resume": lambda state: main(["resume", "--state", str(state)]),
}


@pytest.mark.parametrize("load", sorted(LOADS))
def test_each_batch_is_folded_before_the_next_is_parsed(finished_run, monkeypatch, load):
    batches, batch = [], []
    for event in engine.read_events(finished_run / "events.jsonl"):
        batch.append(event)
        if event["event"] in ("iteration_complete", "run_complete"):
            batches.append(batch)
            batch = []
    trace = []

    def spy_loads(line):
        event = loads(line)
        trace.append(("parse", event))
        return event

    def spy_fold(state, event, pending, prior):
        trace.append(("fold", event))
        return fold(state, event, pending, prior)

    loads, fold = engine.orjson.loads, engine._apply_event
    monkeypatch.setattr(engine, "orjson", types.SimpleNamespace(loads=spy_loads))
    monkeypatch.setattr(engine, "_apply_event", spy_fold)
    LOADS[load](finished_run)
    assert trace == [(action, event) for batch in batches
                     for action in ("parse", "fold") for event in batch]


@pytest.mark.parametrize("torn", ["same batch", "later batch"])
@pytest.mark.parametrize("load", sorted(LOADS))
def test_the_first_bad_line_in_file_order_stops_the_load(finished_run, capsys, load, torn):
    # line 5 (iteration 1's first) adds a node no `evaluation` scored; a line
    # after it is torn, in iteration 1's batch or in the next, before a commit
    event_log = finished_run / "events.jsonl"
    lines = event_log.read_bytes().splitlines(keepends=True)
    commits = [i for i, line in enumerate(lines) if b'"iteration_complete"' in line]
    lines[4] = b'{"event": "archive_add", "iteration": 1, "node_id": 99, "parent_id": 0}\n'
    lines[6 if torn == "same batch" else commits[1] + 2] = b'{"event": "genera\n'
    event_log.write_bytes(b"".join(lines))
    before = event_log.read_bytes()
    capsys.readouterr()
    try:
        assert LOADS[load](finished_run) == 1
        message = capsys.readouterr().err
    except engine.IntegrityError as exc:
        message = str(exc)
    assert f"bad event at line 5 of {event_log}" in message
    assert event_log.read_bytes() == before


def analyze_all(state_dir: Path, out_dir: Path) -> dict[str, bytes]:
    out_dir.mkdir()
    outputs = {}
    for metric in ANALYZE_METRICS:
        out = out_dir / metric
        assert main(["analyze", "--state", str(state_dir), "--metric", metric,
                     "--out", str(out)]) == 0
        outputs[metric] = out.read_bytes()
    return outputs


def test_analyze_crashed_run_reports_last_commit(tmp_path):
    config = make_config(tmp_path, iterations=12, seed=4)
    state = run(config, stop_after=8)
    committed = analyze_all(config.state_dir, tmp_path / "committed")
    # a run killed during iteration 9: its batch lacks the commit line, the
    # last line is torn, and archive/ was never rewritten
    node_id = state.next_node_id
    scores = {"landscape": {"train": 1.0, "validation": None, "test": None}}
    append_events(state.event_log, [
        {"event": "evaluation", "iteration": 9, "node_id": node_id, "payload_ref": "x",
         "selection_score": 1.0, "scores": scores},
        {"event": "archive_add", "iteration": 9, "node_id": node_id, "parent_id": 0,
         "payload_ref": "x"},
    ])
    with open(state.event_log, "a", encoding="utf-8") as fh:
        fh.write('{"event": "iteration_compl')
    shutil.rmtree(config.state_dir / "archive")
    assert analyze_all(config.state_dir, tmp_path / "crashed") == committed
    rows = committed["progress"].decode().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(t) for t in range(8 + 1)]


def test_resume_rewrites_inconsistent_archive(finished_run):
    # archive/ is a view of the event log: resume rebuilds it
    before = fingerprint(finished_run / "archive")
    tamper_root_record(finished_run)
    assert main(["resume", "--state", str(finished_run)]) == 0
    assert fingerprint(finished_run / "archive") == before
    load(finished_run / "archive")


def test_analyze_missing_state(tmp_path, capsys):
    assert main(["analyze", "--state", str(tmp_path / "nope"), "--metric", "tree",
                 "--out", str(tmp_path / "t.dot")]) == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--gamma", "0"),
        ("--gamma", "1.5"),
        ("--min-descendants", "0"),
        ("--level", "100"),
        ("--level", "0"),
        ("--resamples", "0"),
        ("--resamples", "-3"),
        ("--ci-seed", "-1"),
        ("--ci-seed", str(2**32)),
    ],
)
@pytest.mark.parametrize("metric", ["transfer", "ci"])
def test_analyze_out_of_range_argument_exits_2(finished_run, tmp_path, capsys, metric,
                                               flag, value):
    out = tmp_path / "out.csv"
    assert main(["analyze", "--state", str(finished_run), "--metric", metric,
                 "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


# --- reference oracle: progress and impk as read straight from the log ------------------


def oracle_progress_csv(events: list[dict], out: Path) -> None:
    """The progress export built from the `evaluation`, `archive_add` and
    `archive_replace` events, each agent with its logged `selection_score`."""
    scores, records = {}, []
    for event in events:
        if event["event"] == "evaluation":
            scores[event["node_id"]] = event["selection_score"]
        elif event["event"] in ("archive_add", "archive_replace"):
            records.append((event["iteration"], scores[event["node_id"]]))
    records.sort(key=lambda r: r[0])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_so_far", "avg_compiled"])
        k, total, best = 0, 0, records[0][1]
        for t in range(events[-1]["iteration"] + 1):
            while k < len(records) and records[k][0] <= t:
                total += records[k][1]
                best = max(best, records[k][1])
                k += 1
            writer.writerow([t, repr(best), repr(total / k)])


def oracle_archived_agents(events: list[dict]) -> list[AgentNode]:
    """Every agent an `archive_add` or `archive_replace` event took in, with the
    scores of its `evaluation` event."""
    scores = {e["node_id"]: e["scores"] for e in events if e["event"] == "evaluation"}
    return [
        AgentNode(e["node_id"], e["parent_id"], e["payload_ref"], compiled=True,
                  scores={k: DomainScores(**v) for k, v in scores[e["node_id"]].items()})
        for e in events if e["event"] in ("archive_add", "archive_replace")
    ]


@pytest.mark.parametrize("shape", ["no-open-ended", "three-domain-validation"])
def test_analyze_progress_and_impk_match_the_log_oracle(tmp_path, shape):
    if shape == "no-open-ended":
        config = make_config(tmp_path, mode="no-open-ended", iterations=12, seed=5,
                             parents_per_iteration=2,
                             domains=[landscape_domain(has_validation=True)])
        state = run(config, stop_after=9)  # a live run, reported at its last commit
    else:
        config = _three_domain_config(tmp_path)
        state = run(config, evaluators=_three_domain_evaluators())
    events = engine.read_events(state.event_log)
    if shape == "no-open-ended":
        # the oracle also takes the agents that the archive no longer holds
        assert len(oracle_archived_agents(events)) > len(state.archive) == 1

    expected, out = tmp_path / "expected", tmp_path / "out"
    oracle_progress_csv(events, expected)
    assert main(["analyze", "--state", str(config.state_dir), "--metric", "progress",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    export_scalars_csv([_impk_row(oracle_archived_agents(events))], expected)
    assert main(["analyze", "--state", str(config.state_dir), "--metric", "impk",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


ANALYZE_SWEEP = [["--metric", metric] for metric in ANALYZE_METRICS]


@pytest.mark.parametrize("mode", engine.MODES)
def test_analyze_every_metric_of_every_mode_exits_cleanly(tmp_path, capsys, mode):
    # a finished run of any mode: each analysis succeeds, or fails with one line
    assert main(["run", "--config", str(write_config(tmp_path, mode=mode))]) == 0
    for index, metric_args in enumerate(ANALYZE_SWEEP):
        capsys.readouterr()
        code = main(["analyze", "--state", str(tmp_path / "state"), *metric_args,
                     "--out", str(tmp_path / f"out{index}")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or (code == 1 and len(err.strip().splitlines()) == 1), (
            metric_args, code, err)


def test_policy_flags_mirror_config_keys(tmp_path):
    config_path = write_config(tmp_path, iterations=3)
    assert main(["run", "--config", str(config_path),
                 "--policy-variant", "softmax", "--policy-temperature", "0.25"]) == 0
    effective = json.loads((tmp_path / "state" / "config.json").read_text())
    assert effective["policy"]["variant"] == "softmax"
    assert effective["policy"]["temperature"] == 0.25


def test_one_parser_serves_every_call_of_a_process_as_if_each_were_its_own(
        finished_run, tmp_path, capsys):
    from evoarchive import cli

    cli._parser.cache_clear()

    def transfer(*flags: str) -> bytes:
        out = tmp_path / "transfer.csv"
        assert main(["analyze", "--state", str(finished_run), "--metric", "transfer",
                     "--out", str(out), *flags]) == 0
        return out.read_bytes()

    default = transfer()
    assert transfer("--gamma", "0.5") != default
    assert transfer() == default
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--state", str(finished_run), "--metric", "nope",
              "--out", str(tmp_path / "x"), "--gamma", "0.5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert transfer() == default
    assert not (tmp_path / "x").exists()
    assert cli._parser.cache_info().misses == 1


def test_a_policy_flag_does_not_carry_over_to_the_next_run(tmp_path):
    def effective_policy(name: str, *flags: str) -> dict:
        config_path = write_config(tmp_path / name, iterations=1)
        assert main(["run", "--config", str(config_path), *flags]) == 0
        return json.loads((tmp_path / name / "state" / "config.json").read_text())["policy"]

    default = effective_policy("first")
    flagged = effective_policy("flagged", "--policy-variant", "ucb", "--policy-stagnation-boost")
    assert flagged == {**default, "variant": "ucb", "stagnation_boost": True}
    assert effective_policy("after") == default


@pytest.mark.parametrize(
    "policy",
    [
        {"variant": "score-child-prop", "sharpness": 4.5, "midpoint_pool_size": 2},
        {"variant": "score-child-prop"},
        {"variant": "uniform-random"},
        {"variant": "softmax", "temperature": 0.25},
        {"variant": "ucb", "exploration_weight": 1.5, "stagnation_boost": True},
        {"variant": "ucb", "exploration_weight": 0},
    ],
)
def test_policy_config_flags_and_from_dict_agree(tmp_path, policy):
    doc = demo_config(state_dir=str(tmp_path / "state"), iterations=1)
    from_config, _ = parse_config({**doc, "policy": policy})
    del doc["policy"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    flags = []
    for key, value in policy.items():
        flag = "--policy-" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    assert main(["run", "--config", str(config_path), *flags]) == 0
    from_flags, _ = parse_config(json.loads((tmp_path / "state" / "config.json").read_text()))
    assert from_config.policy == from_flags.policy == SelectionPolicy.from_dict(policy)


def test_demo_config_twenty_iterations_under_a_minute(tmp_path):
    import time

    out = tmp_path / "demo.json"
    assert main(["demo-config", "--out", str(out), "--state-dir",
                 str(tmp_path / "run"), "--iterations", "20"]) == 0
    start = time.monotonic()
    assert main(["run", "--config", str(out)]) == 0
    assert time.monotonic() - start < 60.0
    assert load_state(_reload_config(out)).iteration == 20


# --- demo-config ----------------------------------------------------------------


def test_demo_config_writer_round_trips(tmp_path):
    out = tmp_path / "demo.json"
    assert main(["demo-config", "--out", str(out), "--state-dir",
                 str(tmp_path / "run")]) == 0
    doc = json.loads(out.read_text())
    parse_config(doc)  # validates cleanly


def test_demo_config_into_a_missing_directory_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "demo.json"
    assert main(["demo-config", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"demo-config halted: FileNotFoundError: [Errno 2] "
                                f"No such file or directory: '{out}'"]
    assert not out.parent.exists()


def test_parse_config_rejects_nested_unknown_key(tmp_path):
    doc = demo_config(state_dir=str(tmp_path))
    doc["policy"]["wat"] = 1
    with pytest.raises(ConfigError, match="wat"):
        parse_config(doc)
    doc = demo_config(state_dir=str(tmp_path))
    doc["domains"][0]["gate"]["oops"] = 2
    with pytest.raises(ConfigError, match="oops"):
        parse_config(doc)
    doc = demo_config(state_dir=str(tmp_path))
    doc["limits"]["network"] = "enabled"
    with pytest.raises(ConfigError, match="network"):
        parse_config(doc)
