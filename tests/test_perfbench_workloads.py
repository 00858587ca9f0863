"""The benchmark checks every run's outputs by reloading its state through
the package (`engine.load_state` replays the event log, including the log
the `analytics` set-up writes by hand). A change that breaks those checks
must fail here rather than in a benchmark run."""

from __future__ import annotations

import importlib.util
import logging
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling as the top-level module `tracing`
    for name in ("tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


@pytest.mark.parametrize("name", ["spawn", "analytics"])
def test_tiny_workload_reports_no_failure(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](seed=1, tiny=True)
    workload.setup(tmp_path / "setup")
    result = workload.run(tmp_path / "job", 0, None)
    workload.check(tmp_path / "job", result)
    assert result.attempted > 0
    assert (result.failed, result.problems) == (0, [])
    assert result.outputs and all(result.outputs.values())


def test_traced_tiny_spawn_accounts_for_every_sandboxed_command(workloads, tmp_path):
    # the check `run.py --trace 1` makes on every traced job
    workload = workloads.WORKLOADS["spawn"](seed=1, tiny=True)
    workload.setup(tmp_path / "setup")
    failures = workloads.TaskFailureCounter()
    evaluation_log = logging.getLogger("evoarchive.evaluation")
    evaluation_log.addHandler(failures)
    tracer = sys.modules["tracing"].Tracer()
    tracer.install()
    try:
        result = workload.run(tmp_path / "job", 0, tracer)
    finally:
        tracer.restore()
        evaluation_log.removeHandler(failures)
    workload.check(tmp_path / "job", result)
    assert tracer.counts["sandbox.sandbox_execute.calls"] == result.commands > 0
    assert (result.failed, result.problems, failures.count) == (0, [], 0)
