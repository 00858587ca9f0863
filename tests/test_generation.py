from __future__ import annotations

import builtins
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from evoarchive.evaluation import CommandEvaluator
from evoarchive.generation import (
    ExternalProcessBackend,
    GenerationError,
    GenerationRequest,
    ModelClientBackend,
    SimulatedAgentGenome,
    SimulatedBackend,
    SyntheticEvaluator,
    generate_child,
    snapshot_payload,
    validate_child,
    SMOKE_TASK,
)
from evoarchive.landscape import TwoPeakLandscape
from evoarchive.sandbox import SandboxLimits
from evoarchive.selection import SelectionPolicy

LIMITS = SandboxLimits(wall_clock_seconds=10.0, cpu_seconds=10, max_output_bytes=100_000)


def write_parent(tmp_path: Path, **kwargs) -> Path:
    defaults = dict(task_skill=[0.0, 0.0], meta_capability=0.5, compile_probability=1.0)
    defaults.update(kwargs)
    parent = tmp_path / "parent"
    SimulatedAgentGenome(**defaults).write_payload(parent)
    return parent


def request_for(tmp_path: Path, parent: Path, name: str = "child", stream: str = "gen/1/0",
                iterations_left: int = 5) -> GenerationRequest:
    return GenerationRequest(
        parent_payload_ref=str(parent),
        eval_results_ref=str(tmp_path / "events.jsonl"),
        iterations_left=iterations_left,
        rng_stream_id=stream,
        child_payload_ref=str(tmp_path / name),
    )


class UncalledProbe:
    """A smoke probe for children whose backend reported a breach: they are
    never probed, so any call is recorded and fails the test."""

    def __init__(self):
        self.calls: list[str] = []

    def __call__(self, task_id, payload_ref, limits):
        self.calls.append(payload_ref)
        raise AssertionError(f"breached child {payload_ref} was probed")


# --- simulated backend -----------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_genome_rejects_non_finite_task_skill(bad):
    with pytest.raises(ValueError, match="task_skill must be finite"):
        SimulatedAgentGenome([0.0, bad], 0.3, 0.9)


def test_genome_accepts_finite_float_and_int_task_skill():
    genome = SimulatedAgentGenome([0.5, -2, np.float64(1e300)], 0.3, 0.9)
    assert genome.task_skill == [0.5, -2, 1e300]


def test_zero_mutation_scale_clones_parent(tmp_path):
    parent = write_parent(tmp_path)
    backend = SimulatedBackend(master_seed=1, mutation_scale=0.0)
    result = generate_child(
        backend, request_for(tmp_path, parent), SyntheticEvaluator(), LIMITS
    )
    assert result.compiled
    child = SimulatedAgentGenome.from_payload(result.child_payload_ref)
    parent_genome = SimulatedAgentGenome.from_payload(parent)
    assert child.task_skill == parent_genome.task_skill
    assert child.meta_capability == parent_genome.meta_capability


def test_generation_starts_from_an_empty_child_directory(tmp_path):
    # a retried iteration reuses the child directory an interrupted one began
    parent = write_parent(tmp_path)
    request = request_for(tmp_path, parent)
    stray = Path(request.child_payload_ref) / "stale.txt"
    stray.parent.mkdir()
    stray.write_text("left by an interrupted attempt", encoding="utf-8")
    result = generate_child(SimulatedBackend(master_seed=1), request, SyntheticEvaluator(), LIMITS)
    assert result.compiled
    assert not stray.exists()


def test_compile_probability_zero_never_compiles(tmp_path):
    parent = write_parent(tmp_path, compile_probability=0.0)
    backend = SimulatedBackend(master_seed=3)
    for slot in range(10):
        request = request_for(tmp_path, parent, f"child{slot}", f"gen/1/{slot}")
        result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
        assert not result.compiled
        assert Path(result.validity_log).exists()


def test_same_request_and_seed_byte_identical(tmp_path):
    parent = write_parent(tmp_path)
    backend_a = SimulatedBackend(master_seed=11)
    backend_b = SimulatedBackend(master_seed=11)
    result_a = generate_child(
        backend_a, request_for(tmp_path, parent, "a"), SyntheticEvaluator(), LIMITS
    )
    result_b = generate_child(
        backend_b, request_for(tmp_path, parent, "b"), SyntheticEvaluator(), LIMITS
    )
    bytes_a = (Path(result_a.child_payload_ref) / "genome.json").read_bytes()
    bytes_b = (Path(result_b.child_payload_ref) / "genome.json").read_bytes()
    assert bytes_a == bytes_b


def test_different_streams_differ(tmp_path):
    parent = write_parent(tmp_path)
    backend = SimulatedBackend(master_seed=11)
    r1 = generate_child(
        backend, request_for(tmp_path, parent, "a", "gen/1/0"), SyntheticEvaluator(), LIMITS
    )
    r2 = generate_child(
        backend, request_for(tmp_path, parent, "b", "gen/2/0"), SyntheticEvaluator(), LIMITS
    )
    g1 = SimulatedAgentGenome.from_payload(r1.child_payload_ref)
    g2 = SimulatedAgentGenome.from_payload(r2.child_payload_ref)
    assert g1.task_skill != g2.task_skill


def test_no_self_improve_routes_through_root_meta(tmp_path):
    root = write_parent(tmp_path, meta_capability=0.1)
    parent = tmp_path / "parent2"
    SimulatedAgentGenome(
        task_skill=[0.5, 0.0], meta_capability=0.9, compile_probability=1.0
    ).write_payload(parent)
    backend = SimulatedBackend(
        master_seed=5, self_improve=False, root_payload_ref=str(root)
    )
    result = generate_child(
        backend, request_for(tmp_path, parent), SyntheticEvaluator(), LIMITS
    )
    child = SimulatedAgentGenome.from_payload(result.child_payload_ref)
    # meta is inherited untouched when self-improvement is off
    assert child.meta_capability == 0.9


def test_improvement_increases_with_meta_capability(tmp_path):
    """Defining surrogate property: step quality grows with meta_capability."""
    landscape = TwoPeakLandscape()
    backend = SimulatedBackend(master_seed=42, bold_probability=0.0)
    rng = np.random.default_rng(0)
    metas, improvements = [], []
    start = [0.2, 0.1]  # on the slope of the near peak
    base_fitness = landscape.fitness(start)
    for trial in range(240):
        meta = float(rng.random())
        parent = tmp_path / f"p{trial}"
        SimulatedAgentGenome(
            task_skill=start, meta_capability=meta, compile_probability=1.0
        ).write_payload(parent)
        request = request_for(tmp_path, parent, f"c{trial}", f"gen/{trial}/0")
        result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
        child = SimulatedAgentGenome.from_payload(result.child_payload_ref)
        metas.append(meta)
        improvements.append(landscape.fitness(child.task_skill) - base_fitness)
    rho, pvalue = stats.spearmanr(metas, improvements)
    assert rho > 0
    assert pvalue < 0.01


def test_selection_policy_survives_and_mutates(tmp_path):
    parent = write_parent(tmp_path)
    genome = SimulatedAgentGenome.from_payload(parent)
    genome.selection_policy = {"variant": "uniform-random"}
    genome.write_payload(parent)
    backend = SimulatedBackend(master_seed=2, evolve_selection_policy=True)
    seen = set()
    for slot in range(40):
        request = request_for(tmp_path, parent, f"c{slot}", f"gen/1/{slot}")
        result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
        spec = SimulatedAgentGenome.from_payload(result.child_payload_ref).selection_policy
        seen.add(spec["variant"])
        SelectionPolicy.from_dict(spec)  # every evolved spec must parse
    assert "uniform-random" in seen
    assert len(seen) > 1  # mutation actually explores other variants


def test_policy_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        SelectionPolicy.from_dict(None)
    with pytest.raises(Exception):
        SelectionPolicy.from_dict({"variant": "not-a-variant"})


def test_snapshot_payload_hardlinks_and_writes_delta(tmp_path):
    parent = tmp_path / "parent"
    parent.mkdir()
    (parent / "tool.py").write_text("print('hi')\n")
    (parent / "nested").mkdir()
    (parent / "nested" / "memo.txt").write_text("note\n")
    child = tmp_path / "child"
    snapshot_payload(parent, child)
    assert (child / "tool.py").read_text() == "print('hi')\n"
    assert (child / "nested" / "memo.txt").stat().st_ino == (
        parent / "nested" / "memo.txt"
    ).stat().st_ino


def test_snapshot_payload_makes_a_linked_directory_empty(tmp_path):
    # a payload's link to a directory is not followed out of the payload
    (tmp_path / "outside").mkdir()
    (tmp_path / "outside" / "memo.txt").write_text("note\n")
    parent = tmp_path / "parent"
    parent.mkdir()
    (parent / "linked").symlink_to(tmp_path / "outside", target_is_directory=True)
    snapshot_payload(parent, tmp_path / "child")
    linked = tmp_path / "child" / "linked"
    assert linked.is_dir() and not linked.is_symlink() and list(linked.iterdir()) == []


def test_child_links_every_parent_file_but_writes_a_new_genome(tmp_path):
    parent = write_parent(tmp_path, compile_probability=0.5)
    (parent / "tool.py").write_text("print('hi')\n")
    (parent / "nested" / "deeper").mkdir(parents=True)
    (parent / "nested" / "deeper" / "memo.txt").write_text("note\n")
    genome = parent / "genome.json"
    genome_before = (genome.read_bytes(), genome.stat().st_ino)
    linked = ["tool.py", "nested/deeper/memo.txt"]
    backend = SimulatedBackend(master_seed=2)
    compiled = set()
    for slot in range(6):
        request = request_for(tmp_path, parent, f"child{slot}", f"gen/1/{slot}")
        result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
        compiled.add(result.compiled)
        child = Path(result.child_payload_ref)
        assert (genome.read_bytes(), genome.stat().st_ino) == genome_before
        assert (child / "genome.json").stat().st_ino != genome_before[1]
        for rel in linked:
            assert (child / rel).stat().st_ino == (parent / rel).stat().st_ino
        assert sorted(p.relative_to(child) for p in child.rglob("*")) == sorted(
            p.relative_to(parent) for p in parent.rglob("*"))
    assert compiled == {True, False}


FS_CALLS = ("mkdir", "link", "unlink", "rmdir", "stat", "lstat", "scandir")


def counted_fs_calls(monkeypatch) -> dict[str, int]:
    """Count, from here on, each call of the `os` functions in FS_CALLS and
    each open in a writing mode (`pathlib` and `shutil` go through these)."""
    counts = dict.fromkeys(FS_CALLS + ("open_write",), 0)

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in FS_CALLS:
        monkeypatch.setattr(os, name, counting(name, getattr(os, name)))
    real_open = io.open

    def open_(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            counts["open_write"] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(builtins, "open", open_)
    return counts


def test_file_system_calls_per_simulated_child(tmp_path, monkeypatch):
    # one compiled child from a genome-only parent, first into a fresh slot,
    # then into the same slot again (a retried or rerun iteration)
    parent = write_parent(tmp_path)
    request = request_for(tmp_path, parent)
    backend, probe = SimulatedBackend(master_seed=1), SyntheticEvaluator()
    budgets = []
    for _ in range(2):
        counts = counted_fs_calls(monkeypatch)
        result = generate_child(backend, request, probe, LIMITS)
        monkeypatch.undo()
        assert result.compiled
        budgets.append(counts)
    fresh, used = budgets
    assert fresh == {"mkdir": 1, "link": 0, "unlink": 0, "rmdir": 0, "stat": 1,
                     "lstat": 0, "scandir": 1, "open_write": 2}
    assert used == {"mkdir": 1, "link": 0, "unlink": 1, "rmdir": 1, "stat": 1,
                    "lstat": 1, "scandir": 2, "open_write": 2}


# --- validate_child ----------------------------------------------------------------


def test_validate_initial_payload_true(tmp_path):
    parent = write_parent(tmp_path)
    ok, cause = validate_child(parent, SMOKE_TASK, LIMITS, SyntheticEvaluator())
    assert ok and cause == "ok"


def test_validate_broken_payload_false(tmp_path):
    payload = tmp_path / "broken"
    payload.mkdir()
    (payload / "genome.json").write_text("{oops", encoding="utf-8")
    ok, cause = validate_child(payload, SMOKE_TASK, LIMITS, SyntheticEvaluator())
    assert not ok
    assert "EvaluatorError" in cause


def test_validate_sleeping_payload_times_out(tmp_path):
    probe = CommandEvaluator([sys.executable, "-c", "import time; time.sleep(30)"])
    limits = SandboxLimits(wall_clock_seconds=0.5, cpu_seconds=5, max_output_bytes=1000)
    ok, cause = validate_child(tmp_path, SMOKE_TASK, limits, probe)
    assert not ok
    assert cause == "timeout"


def test_validate_names_a_failed_command_by_its_exit_not_its_stderr(tmp_path):
    probe = CommandEvaluator([
        sys.executable, "-c",
        "import sys; sys.stderr.write('upstream connection timed out'); sys.exit(1)",
    ])
    ok, cause = validate_child(tmp_path, SMOKE_TASK, LIMITS, probe)
    assert not ok
    assert cause.startswith("EvaluatorError: evaluator exited 1")


# --- external process backend --------------------------------------------------------


WRITER_BACKEND = (
    "import json, sys, pathlib\n"
    "req = json.load(sys.stdin)\n"
    "out = pathlib.Path(req['child_payload_ref'])\n"
    "out.mkdir(parents=True, exist_ok=True)\n"
    "src = pathlib.Path(req['parent_payload_ref']) / 'genome.json'\n"
    "(out / 'genome.json').write_text(src.read_text())\n"
)


def test_external_backend_runs_command_in_sandbox(tmp_path):
    parent = write_parent(tmp_path)
    backend = ExternalProcessBackend([sys.executable, "-c", WRITER_BACKEND], LIMITS)
    result = generate_child(
        backend, request_for(tmp_path, parent), SyntheticEvaluator(), LIMITS
    )
    assert result.compiled
    child = SimulatedAgentGenome.from_payload(result.child_payload_ref)
    assert child.task_skill == [0.0, 0.0]


def test_external_backend_timeout_named_in_validity_log(tmp_path):
    parent = write_parent(tmp_path)
    limits = SandboxLimits(wall_clock_seconds=0.5, cpu_seconds=5, max_output_bytes=1000)
    backend = ExternalProcessBackend(
        [sys.executable, "-c", "import time; time.sleep(30)"], limits
    )
    probe = UncalledProbe()
    result = generate_child(backend, request_for(tmp_path, parent), probe, limits)
    assert not result.compiled
    assert Path(result.validity_log).read_text() == "compiled=False\ncause=timeout\n"
    assert probe.calls == []


def test_external_backend_nonzero_exit_not_compiled(tmp_path):
    parent = write_parent(tmp_path)
    backend = ExternalProcessBackend([sys.executable, "-c", "import sys; sys.exit(9)"], LIMITS)
    probe = UncalledProbe()
    result = generate_child(backend, request_for(tmp_path, parent), probe, LIMITS)
    assert not result.compiled
    assert Path(result.validity_log).read_text() == "compiled=False\ncause=exit 9\n"
    assert probe.calls == []


# --- model client backend ------------------------------------------------------------


def test_model_client_wire_contract(tmp_path):
    parent = write_parent(tmp_path)
    requests: list[dict] = []

    def transport(doc: dict) -> dict:
        requests.append(doc)
        genome = json.loads(doc["parent_payload"]["genome.json"])
        return {"child_payload": {"genome.json": json.dumps(genome)}, "logs": "remote.log"}

    backend = ModelClientBackend(url="https://example.invalid/generate", transport=transport)
    result = generate_child(
        backend, request_for(tmp_path, parent, iterations_left=7),
        SyntheticEvaluator(), LIMITS,
    )
    assert result.compiled
    assert len(requests) == 1
    doc = requests[0]
    assert doc["kind"] == "modification"
    assert doc["iterations_left"] == 7
    assert "genome.json" in doc["parent_payload"]
    assert isinstance(doc["instruction"], str)


def test_model_client_fixed_instruction_prepends_request(tmp_path):
    parent = write_parent(tmp_path)
    requests: list[dict] = []

    def transport(doc: dict) -> dict:
        requests.append(doc)
        if doc["kind"] == "instruction-generation":
            return {"instruction": "improve the parser"}
        return {"child_payload": {"genome.json": doc["parent_payload"]["genome.json"]}}

    backend = ModelClientBackend(
        url="https://example.invalid/generate",
        instruction_template="TEMPLATE {code}",
        transport=transport,
    )
    generate_child(backend, request_for(tmp_path, parent), SyntheticEvaluator(), LIMITS)
    assert [d["kind"] for d in requests] == ["instruction-generation", "modification"]
    assert requests[0]["template"] == "TEMPLATE {code}"
    assert requests[1]["instruction"] == "improve the parser"


def test_model_client_reads_the_parent_bundle_once(tmp_path, monkeypatch):
    parent = write_parent(tmp_path)
    reads: list[str] = []
    bundle = ModelClientBackend._bundle

    def counted(payload_ref: str) -> dict[str, str]:
        reads.append(payload_ref)
        return bundle(payload_ref)

    monkeypatch.setattr(ModelClientBackend, "_bundle", staticmethod(counted))
    requests: list[dict] = []

    def transport(doc: dict) -> dict:
        requests.append(doc)
        if doc["kind"] == "instruction-generation":
            return {"instruction": "improve the parser"}
        return {"child_payload": doc["parent_payload"]}

    backend = ModelClientBackend(url="https://example.invalid/generate",
                                 instruction_template="TEMPLATE {code}", transport=transport)
    assert generate_child(backend, request_for(tmp_path, parent), SyntheticEvaluator(),
                          LIMITS).compiled
    assert reads == [str(parent)]
    assert requests[0]["parent_payload"] is requests[1]["parent_payload"]


def test_model_client_malformed_response_not_compiled(tmp_path):
    parent = write_parent(tmp_path)
    backend = ModelClientBackend(
        url="https://example.invalid/generate", transport=lambda doc: {"nope": 1}
    )
    probe = UncalledProbe()
    result = generate_child(backend, request_for(tmp_path, parent), probe, LIMITS)
    assert not result.compiled
    assert Path(result.validity_log).read_text() == (
        "compiled=False\ncause=malformed response: 'child_payload'\n")
    assert probe.calls == []


@pytest.mark.parametrize("key", ["../escaped.txt", "sub/../../escaped.txt",
                                 "{tmp}/escaped_absolute.txt", "", ".", "sub/.."])
def test_model_client_rejects_bundle_key_outside_child(tmp_path, key):
    parent = write_parent(tmp_path)
    genome = (parent / "genome.json").read_text()
    key = key.format(tmp=tmp_path)
    backend = ModelClientBackend(
        url="https://example.invalid/generate",
        transport=lambda doc: {"child_payload": {"genome.json": genome, key: "x"}},
    )
    request = request_for(tmp_path, parent)
    result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
    assert not result.compiled
    assert "malformed response" in Path(result.validity_log).read_text()
    assert not list(tmp_path.glob("escaped*"))
    # the keys are checked before any file is written
    assert list(Path(request.child_payload_ref).iterdir()) == []


@pytest.mark.parametrize("keys", [("notes", "notes/a.txt"), ("notes/a.txt", "notes")])
def test_model_client_rejects_bundle_key_below_a_file_key(tmp_path, keys):
    parent = write_parent(tmp_path)
    genome = (parent / "genome.json").read_text()
    bundle = {"genome.json": genome, **{key: "x" for key in keys}}
    backend = ModelClientBackend(
        url="https://example.invalid/generate",
        transport=lambda doc: {"child_payload": bundle},
    )
    request = request_for(tmp_path, parent)
    result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
    assert not result.compiled
    log = Path(result.validity_log).read_text()
    assert "malformed response" in log and "'notes/a.txt'" in log
    assert list(Path(request.child_payload_ref).iterdir()) == []


def test_model_client_writes_nested_bundle_keys_inside_child(tmp_path):
    parent = write_parent(tmp_path)
    genome = (parent / "genome.json").read_text()
    backend = ModelClientBackend(
        url="https://example.invalid/generate",
        transport=lambda doc: {"child_payload": {"genome.json": genome,
                                                 "tools/../notes/a.txt": "a"}},
    )
    request = request_for(tmp_path, parent)
    result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
    assert result.compiled
    assert (Path(request.child_payload_ref) / "notes" / "a.txt").read_text() == "a"


def test_model_client_child_that_the_backend_cannot_read_is_not_compiled(tmp_path):
    # its skill sits on the global peak, but the simulated backend could never
    # take it as a parent: the probe reads it by the backend's rule
    parent = write_parent(tmp_path)
    backend = ModelClientBackend(
        url="https://example.invalid/generate",
        transport=lambda doc: {"child_payload": {
            "genome.json": '{"task_skill": ["2.6", "0", "0"]}'}},
    )
    request = request_for(tmp_path, parent)
    result = generate_child(backend, request, SyntheticEvaluator(), LIMITS)
    assert not result.compiled
    with pytest.raises(GenerationError):
        SimulatedAgentGenome.from_payload(request.child_payload_ref)
    assert "meta_capability" in Path(result.validity_log).read_text()


@pytest.mark.parametrize("generated", [["improve"], "improve", None, 3])
def test_model_client_non_object_instruction_response_is_generation_error(tmp_path, generated):
    parent = write_parent(tmp_path)
    backend = ModelClientBackend(
        url="https://example.invalid/generate",
        instruction_template="TEMPLATE {code}",
        transport=lambda doc: generated,
    )
    with pytest.raises(GenerationError, match="not a JSON object"):
        backend.generate(request_for(tmp_path, parent))


def test_model_client_non_utf8_payload_file_is_generation_error(tmp_path):
    parent = write_parent(tmp_path)
    (parent / "blob.bin").write_bytes(b"\x89PNG\r\n\x1a\n\xff")
    sent: list[dict] = []
    backend = ModelClientBackend(url="https://example.invalid/generate",
                                 transport=lambda doc: sent.append(doc) or {})
    with pytest.raises(GenerationError, match=r"blob\.bin is not UTF-8 text"):
        generate_child(backend, request_for(tmp_path, parent), SyntheticEvaluator(), LIMITS)
    assert sent == []


@pytest.mark.parametrize("template", [None, "TEMPLATE {code}"])
def test_model_client_missing_parent_payload_is_generation_error(tmp_path, template):
    # before any request: a missing directory would otherwise bundle as `{}`
    sent: list[dict] = []
    backend = ModelClientBackend(url="https://example.invalid/generate",
                                 instruction_template=template,
                                 transport=lambda doc: sent.append(doc) or {})
    missing = tmp_path / "gone"
    with pytest.raises(GenerationError, match=f"payload directory {missing} is missing"):
        generate_child(backend, request_for(tmp_path, missing), SyntheticEvaluator(), LIMITS)
    assert sent == []


POLICY_FILE_BACKENDS = [
    lambda: ExternalProcessBackend(["true"], LIMITS),
    lambda: ModelClientBackend(url="https://example.invalid/generate", transport=dict),
]


@pytest.mark.parametrize("make_backend", POLICY_FILE_BACKENDS)
def test_policy_file_backend_reads_selection_policy_json(tmp_path, make_backend):
    spec = {"variant": "softmax", "temperature": 0.25}
    spec_path = tmp_path / "selection_policy.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    backend = make_backend()
    assert backend.selection_policy_of(str(tmp_path)) == SelectionPolicy.from_dict(spec)
    spec_path.unlink()
    with pytest.raises(FileNotFoundError, match="selection_policy.json"):
        backend.selection_policy_of(str(tmp_path))


def test_generation_request_validation(tmp_path):
    with pytest.raises(ValueError):
        GenerationRequest(
            parent_payload_ref="p", eval_results_ref="e", iterations_left=-1,
            rng_stream_id="s", child_payload_ref="c",
        )


def test_importing_the_package_leaves_ssl_unloaded():
    # only the model client's HTTP transport needs urllib, and with it ssl
    import subprocess

    import evoarchive

    env = {**os.environ, "PYTHONPATH": str(Path(evoarchive.__file__).parents[1])}
    code = "import sys, evoarchive, evoarchive.cli; print(sorted({'ssl', 'http.client'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_model_client_http_transport_round_trip(tmp_path, monkeypatch):
    # exercises the real HTTP path against a local endpoint, including the
    # bearer token drawn from the configured environment variable
    import http.server
    import threading

    seen = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            seen["body"] = json.loads(self.rfile.read(length))
            seen["auth"] = self.headers.get("Authorization")
            payload = seen["body"]["parent_payload"]
            response = json.dumps({"child_payload": payload, "logs": None}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(response)))
            self.end_headers()
            self.wfile.write(response)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("TEST_MODEL_TOKEN", "sekrit")
        parent = write_parent(tmp_path)
        backend = ModelClientBackend(
            url=f"http://127.0.0.1:{server.server_port}/generate",
            token_env="TEST_MODEL_TOKEN",
        )
        result = generate_child(
            backend, request_for(tmp_path, parent), SyntheticEvaluator(), LIMITS
        )
        assert result.compiled
        assert seen["auth"] == "Bearer sekrit"
        assert seen["body"]["kind"] == "modification"
    finally:
        server.shutdown()
        thread.join()
