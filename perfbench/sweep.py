"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads ablation --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --trace 0 1 --out perfbench/baseline.json
    python3 perfbench/sweep.py --seeds 11-20 --compare perfbench/baseline.json

For every workload and metric this prints the median over the runs and the
spread: the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median.
End-to-end metrics whose spread exceeds a third of their bound in
BENCHMARK.json are flagged. ``--compare`` flags end-to-end medians that are
worse than those of an earlier report by more than the bound. ``--out``
writes the figures, every run's values and each workload's environment; an
existing report there keeps the workloads this sweep did not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def sweep(workload: str, seeds: list[int], seconds: float, trace: int) -> dict | None:
    runs = []
    for seed in seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            continue
        detail = json.loads(lines[-2])["detail"]
        metrics = json.loads(lines[-1])["metrics"]
        metrics.update({"derived." + k: v for k, v in detail["derived"].items()})
        runs.append({"process_s": elapsed, "metrics": metrics,
                     "environment": detail["environment"]})
        print(f"{workload} trace={trace} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
    if len(runs) < len(seeds):
        return None
    figures = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        figures[name] = {"unit": entry["unit"], **summarize(values), "values": values}
    return {"seeds": seeds, "environment": runs[0]["environment"],
            "process_s": summarize([r["process_s"] for r in runs]),
            "metrics": figures}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/sweep.py")
    parser.add_argument("--workloads", nargs="+", default=names, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--compare", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"] for m in spec["end_to_end"] if m["better"] == "lower"}
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    report: dict = {"seeds": args.seeds, "seconds": args.seconds, "trace": {}}
    if args.out and args.out.exists():
        report = json.loads(args.out.read_text())
    status = 0
    for trace in args.trace:
        results = report["trace"].setdefault(str(trace), {})
        for workload in args.workloads:
            result = sweep(workload, args.seeds, args.seconds, trace)
            if result is None:
                status = 1
                continue
            results[workload] = result
            print(f"\n{workload} trace={trace} ({len(args.seeds)} runs, median process "
                  f"{result['process_s']['median']:.1f} s)")
            for name, fig in result["metrics"].items():
                flags = []
                if name in bounds and name != "setup_s" and fig["spread"] > bounds[name] / 3:
                    flags.append(f"spread above a third of bound {bounds[name]}")
                if earlier and name in bounds:
                    before = earlier["trace"][str(trace)][workload]["metrics"][name]["median"]
                    worse = (fig["median"] - before) / before
                    if (worse if name in lower else -worse) > bounds[name]:
                        flags.append(f"median worse than {before:.6g} by more than the bound")
                        status = 1
                print(f"  {name:34s} {fig['median']:14.6g} {fig['unit']:6s} "
                      f"spread {fig['spread']:.4f}" + "".join(f"  <-- {f}" for f in flags))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
