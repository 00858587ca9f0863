from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_third_party_import_of_the_package_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on: the other pins run on 3.10
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "evoarchive").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"evoarchive"}
    assert third_party, "the package imports numpy and orjson"
    assert sorted(third_party - declared) == []


def test_every_name_a_module_imports_is_used_or_exported():
    # stands in for a linter's unused-import rule; `import a.b` binds `a`
    unused = []
    for path in sorted((ROOT / "src" / "evoarchive").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_top_level_definition_is_used_exported_or_benchmarked():
    # no test-only code in the package: a reference implementation that only the
    # tests call belongs in tests/oracles.py
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "evoarchive").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                referenced.update(ast.literal_eval(node.value))
    benchmark = "\n".join(path.read_text(encoding="utf-8")
                          for path in sorted((ROOT / "perfbench").rglob("*"))
                          if path.is_file() and "__pycache__" not in path.parts)
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in referenced
              and not re.search(rf"\b{re.escape(node.name)}\b", benchmark)]
    assert unused == []


def test_every_data_file_of_the_package_is_named_in_its_source():
    # a packaged file that no module reads is dead weight shipped with every install
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in sorted((ROOT / "src" / "evoarchive").glob("*.py")))
    data = sorted((ROOT / "src" / "evoarchive" / "data").iterdir())
    assert data, "the package ships the fixed-instruction template"
    assert [path.name for path in data if path.name not in source] == []


def scopes_of(matches) -> list[str]:
    """`file:function` of each syntax node in the package for which `matches` holds,
    named by the innermost function it is in (`<module>` outside any)."""
    found = []
    for path in sorted((ROOT / "src" / "evoarchive").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope_of = {}  # node -> the innermost function it is in: `ast.walk` goes outside in
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    scope_of[node] = function.name
        found += [f"{path.name}:{scope_of.get(node, '<module>')}"
                  for node in ast.walk(tree) if matches(node)]
    return found


def test_the_event_log_has_one_writer():
    # `_commit` folds each batch before it appends it, so it is the one place that
    # calls `append_events`: no line reaches the log that a replay has not folded
    assert scopes_of(lambda node: isinstance(node, ast.Call) and "append_events" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))) == ["engine.py:_commit"]


def test_the_log_is_cut_in_one_place():
    # `_advance` cuts a crash's uncommitted tail only once the call's wiring is
    # built and the state is known not to be stale: no other call shrinks the log
    assert scopes_of(lambda node: isinstance(node, ast.Call) and "truncate" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))) == [
        "engine.py:_advance"]


def test_only_the_fold_and_the_commit_reader_read_event_kinds():
    # every rule of the log is the fold's, and `_read_committed` only finds the
    # commit lines: a kind read anywhere else would be a rule the replay skips
    readers = scopes_of(lambda node: isinstance(node, ast.Subscript)
                        and isinstance(node.slice, ast.Constant) and node.slice.value == "event")
    assert sorted(set(readers)) == ["engine.py:_apply_event", "engine.py:_read_committed"]


def test_every_thread_the_package_starts_is_an_executor_worker():
    # a hand-rolled thread brings its own queues, replies and re-raise; a
    # `ThreadPoolExecutor` worker has them built in, and is joined at exit
    found = []
    for path in sorted((ROOT / "src" / "evoarchive").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "queue" or name == "threading.Thread"]
    assert found == []


def test_the_package_builds_one_executor_per_run_and_the_spawner():
    # concurrency has one code path: a run's work goes to the pool its runtime
    # builds, and the sandbox spawner is the one other executor
    assert scopes_of(lambda node: isinstance(node, ast.Call) and "ThreadPoolExecutor" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))) == [
        "engine.py:__init__", "sandbox.py:_probed_spawner"]


def test_one_builder_stamps_every_line_after_run_start():
    # `_event` builds the `event`, `time` and `iteration` envelope that the fold's
    # iteration rule reads, so no line can carry a hand-written one
    kinds = []

    def event_literal(node) -> bool:
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "event":
                    kinds.append(ast.unparse(value))
                    return True
        return False

    scopes = scopes_of(event_literal)
    assert sorted(zip(scopes, kinds)) == [
        ("engine.py:_event", "kind"), ("engine.py:_start", "'run_start'")]


def test_one_driver_builds_the_runtime():
    # `run`, `step` and `resume` are calls into `_advance`, which builds each
    # call's collaborators and pool, commits its iterations and writes `archive/`
    assert scopes_of(lambda node: isinstance(node, ast.Call) and "_Runtime" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))) == [
        "engine.py:_advance"]


def test_one_decoder_reads_every_genome():
    # the validity probe and the simulated backend both read an agent through
    # `from_payload`, so the probe archives no agent that the backend cannot read
    scopes = scopes_of(lambda node: isinstance(node, ast.Constant) and node.value == "genome.json")
    assert sorted(set(scopes)) == [
        "generation.py:from_payload", "generation.py:generate", "generation.py:write_payload"]


def test_the_builtin_sum_adds_no_float():
    # since Python 3.12 the builtin `sum()` compensates float rounding, so a run's
    # scores would depend on the interpreter: floats are added by
    # `selection.left_sum`, and the builtin keeps one integer count
    calls = []

    def builtin_sum(node) -> bool:
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
            calls.append(ast.unparse(node))
            return True
        return False

    assert list(zip(scopes_of(builtin_sum), calls)) == [
        ("evaluation.py:multi_domain_evaluate", "sum((1 for s in scores.values() if s > 0.0))")]


def test_one_scorer_runs_every_batch():
    # a staged subset, its rest and a validation split all run through
    # `evaluate_full`, which logs each failed task's cause; the validity probe
    # judges its one smoke task alike, and logs at INFO itself. A name, not a
    # call: `evaluate_full` hands `score_task` to `partial`, then to the pool
    assert scopes_of(lambda node: isinstance(node, ast.Name) and node.id == "score_task") == [
        "evaluation.py:evaluate_full", "generation.py:validate_child"]


def test_one_build_of_each_config_object():
    # `RunConfig` builds the run's surface and root genome once, as it checks
    # them, and the engine reads `config.landscape` and `config.root_genome`
    builders = ("TwoPeakLandscape", "initial_genome")

    def builds(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        called = [node.func]
        if getattr(node.func, "id", None) == "_build":  # `_build(context, make, ...)`
            called += node.args[1:2]
        return any(getattr(f, "id", getattr(f, "attr", None)) in builders for f in called)

    assert sorted(scopes_of(builds)) == [
        "config.py:__post_init__", "config.py:__post_init__", "landscape.py:<module>"]
