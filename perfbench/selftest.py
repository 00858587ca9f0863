"""Fast self-test of the benchmark harness (well under a minute).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each run exits 0 and that its last line is a result with exactly the keys
correct, attempted, failed and metrics, carrying every end-to-end
(untraced) or per-layer (traced) metric by name with the unit
BENCHMARK.json gives it.
It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}/{trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == wanted, f"{workload}/{trace}: metrics differ: " \
        f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, " \
        f"units {[(n, got[n], wanted[n]) for n in got if n in wanted and got[n] != wanted[n]]}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), (name, entry)
    print(f"ok  {workload:10s} trace={trace}  {len(got)} metrics")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "ran without the package source"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the package source")


def main() -> int:
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            check_result(workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
