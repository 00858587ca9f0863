"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload spawn --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory. Set-up runs SETUP_REPS times and reports the median of
its CPU time. The
timed jobs then repeat until ``--seconds`` have passed (at least one job),
and each job's outputs are checked after it. A speed gauge runs beside every
job (see ``workloads.SpeedGauge``). State directories are removed only when
the run ends, so no deletion overlaps a timed job, and dirty file data is
flushed after set-up, after each job and after the removal, so no job pays
for another's writeback. With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced
jobs alternate, and the result carries the per-layer metrics plus the
tracing overhead. The last line of standard output is the result; the line
before it holds the environment and the derived figures. ``ablation`` is
not in BENCHMARK.json (see README.md) but runs the same way.
Exit status 0 means every output check passed, 1 that one failed, 2 that
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPS = 5
WORKLOAD_NAMES = ("ablation", "spawn", "analytics")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to seconds-scale (harness self-test)")
    return parser


# --- environment -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fs_type(path: Path) -> str:
    """Filesystem type of the longest mount point containing `path`."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        mount = fields[4]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best):
            best, fstype = mount, fields[fields.index("-") + 1]
    return fstype


def environment(state_dir: Path) -> dict:
    import numpy
    from evoarchive.sandbox import network_isolation_available

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "state_fs": _fs_type(state_dir),
        "network_isolation": network_isolation_available(),
    }


# --- measurement -----------------------------------------------------------------


def _compare(jobs: list, reference: dict | None) -> None:
    """Every job must reproduce the first; at the default seed, the record too."""
    first = jobs[0].outputs
    for job in jobs:
        for key in sorted(set(first) | set(job.outputs)):
            if job.outputs.get(key) != first.get(key):
                job.fail(f"{key}: output differs between jobs of one run")
    if reference is None:
        return
    for key in sorted(set(reference) | set(first)):
        if first.get(key) != reference.get(key):
            jobs[0].fail(f"{key}: output {first.get(key)} differs from the recorded "
                         f"{reference.get(key)}")


def measure(args: argparse.Namespace, workdir: Path) -> int:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, SpeedGauge, TaskFailureCounter, cpu_seconds

    failures = TaskFailureCounter()
    logging.getLogger("evoarchive.evaluation").addHandler(failures)
    workdir.mkdir(parents=True)
    env = environment(workdir)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)

    # Set-up time is CPU time: on the shared host the benchmark was built on,
    # steal time and disk waits moved the median wall time of a set-up by a
    # third between two sets of ten runs.
    setup_s, setup_wall_s = [], []
    for rep in range(SETUP_REPS):
        location = workdir / f"setup{rep}"
        cpu0, start = cpu_seconds(), time.perf_counter()
        workload.setup(location)
        setup_s.append(cpu_seconds() - cpu0)
        setup_wall_s.append(time.perf_counter() - start)
        os.sync()

    # Under --trace 1 traced and untraced jobs alternate, so a drift in the
    # machine's speed weighs on both sides of the tracing overhead alike.
    tracer = Tracer()
    phases = ("untraced", "traced") if args.trace else ("untraced",)
    jobs: dict[str, list] = {phase: [] for phase in phases}
    traced_failures = 0
    index = 0
    start = time.perf_counter()
    while not all(jobs.values()) or time.perf_counter() - start < args.seconds:
        phase = phases[index % len(phases)]
        traced = phase == "traced"
        location = workdir / f"job{index}"
        failures_before = failures.count
        calls_before = tracer.counts["sandbox.sandbox_execute.calls"]
        if traced:
            tracer.install()
        try:
            with SpeedGauge() as gauge:
                result = workload.run(location, index, tracer if traced else None)
        finally:
            tracer.restore()
        result.gauge = gauge.mean_s
        result.cpu -= gauge.cpu_s
        workload.check(location, result)
        os.sync()
        if traced:
            traced_failures += failures.count - failures_before
            calls = tracer.counts["sandbox.sandbox_execute.calls"] - calls_before
            if calls != result.commands:
                result.fail(f"traced {calls} sandbox calls, output accounts for "
                            f"{result.commands}")
        jobs[phase].append(result)
        index += 1

    every = [job for phase in jobs.values() for job in phase]
    reference = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        reference = recorded.get(args.workload, {})
    _compare(every, reference)

    attempted = sum(j.attempted for j in every)
    failed = min(attempted, sum(j.failed for j in every))
    plain = jobs["untraced"]
    wall = statistics.median(j.wall for j in plain)
    gauged = lambda js, field: statistics.median(getattr(j, field) / j.gauge for j in js)
    children = sum(j.children for j in plain)
    if args.trace:
        traced_jobs = jobs["traced"]
        metrics = layer_metrics(
            tracer, len(traced_jobs),
            nodes=statistics.mean(j.nodes for j in traced_jobs),
            task_failures=traced_failures / len(traced_jobs),
        )
        traced_wall = statistics.median(j.wall for j in traced_jobs)
        metrics["trace.job_wall_s_untraced"] = (wall, "s")
        metrics["trace.job_wall_s_traced"] = (traced_wall, "s")
        metrics["trace.overhead_ratio"] = (
            gauged(traced_jobs, "wall") / gauged(plain, "wall") - 1.0, "ratio")
        rate = lambda js: sum(j.children for j in js) / sum(j.wall for j in js)
        metrics["trace.children_per_s_delta"] = (
            rate(traced_jobs) - rate(plain) if children else 0.0, "1/s")
        metrics["trace.analyze_s_delta"] = (
            traced_wall - wall if args.workload == "analytics" else 0.0, "s")
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "job_cpu_gauged": (gauged(plain, "cpu"), "gauge"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    derived = {
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "job_wall_s": {"value": wall, "unit": "s"},
        "job_wall_gauged": {"value": gauged(plain, "wall"), "unit": "gauge"},
        "job_cpu_s": {"value": statistics.median(j.cpu for j in plain), "unit": "s"},
        "gauge_ms": {"value": statistics.median(j.gauge for j in plain) * 1000.0, "unit": "ms"},
    }
    if children:
        cpu = sum(j.cpu for j in plain)
        derived["children_per_s"] = {"value": children / sum(j.wall for j in plain),
                                     "unit": "1/s"}
        derived["cpu_ms_per_child"] = {"value": cpu * 1000.0 / children, "unit": "ms"}
    if args.workload == "analytics":
        derived["analyze_s"] = {"value": wall, "unit": "s"}
    problems = [p for j in every for p in j.problems]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "environment": env, "derived": derived,
        "setup_s": setup_s, "setup_wall_s": setup_wall_s,
        "jobs": {k: [{"wall_s": j.wall, "cpu_s": j.cpu, "gauge_s": j.gauge} for j in v]
                 for k, v in jobs.items()},
        "outputs": every[0].outputs, "problems": problems[:20],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    package = ROOT / "src" / "evoarchive"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import evoarchive

    if Path(evoarchive.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported evoarchive from {evoarchive.__file__}, not {package}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()


if __name__ == "__main__":
    sys.exit(main())
