"""Operator entry point: launch/resume runs, export metrics.

`analyze` parses the committed event log once and reads nothing else:
`engine.replay_log` folds each committed batch into the run's state as soon
as it is parsed. That state's archive feeds `tree`, `transfer` and `ci`, and
its `archived` agents feed `progress` and `impk` (every agent the run
archived, including those a `no-open-ended` run replaced). It therefore
reports a live or crashed run at its last committed iteration. `resume`
parses the log once too: the engine checks the recorded run id against the
config's hash on that one load.

Exit codes: 0 success, 1 runtime failure (state stays resumable),
2 invalid configuration or arguments (such as an `analyze` flag out of range).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import archive as archive_mod
from . import engine, metrics
from .archive import AgentNode
from .config import (
    ConfigError,
    config_hash,
    demo_config,
    effective_config_doc,
    parse_config,
    read_config_doc,
)
from .evaluation import node_selection_score
from .generation import GenerationError
from .rng import substream
from .selection import POLICY_KEYS

ANALYZE_METRICS = ("impk", "transfer", "ci", "progress", "tree")

# analyze's numeric flags and the values that `metrics.GrowthScoreParams`
# (--gamma, --min-descendants), `metrics.bootstrap_ci` (--resamples, --level)
# and `rng.substream` (--ci-seed, of which it keeps 32 bits) accept; any other
# value exits 2 before the state is read
ANALYZE_RANGES = {
    "gamma": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "min_descendants": (">= 1", lambda v: v >= 1),
    "resamples": (">= 1", lambda v: v >= 1),
    "level": ("in (0, 100)", lambda v: 0.0 < v < 100.0),
    "ci_seed": ("in [0, 2**32)", lambda v: 0 <= v < 2**32),
}

# Failures of `run`, `resume` and `analyze` that exit 1 with a one-line
# message: corrupt or inconsistent state, a failing backend, unreadable files.
RUNTIME_FAILURES = (engine.EngineError, archive_mod.ArchiveError, GenerationError, OSError)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process and shared by its `main` calls: parsing reads the
    parser and changes nothing in it."""
    parser = argparse.ArgumentParser(prog="evoarchive")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="start a run from a config file")
    run_p.add_argument("--config", required=True, help="path to the run config JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--mode", default=None, help="override the algorithm mode")
    run_p.add_argument("--iterations", type=int, default=None, help="override T")
    # selection policy overrides, mirroring the config keys under "policy"
    for key, kind in POLICY_KEYS.items():
        flag = "--policy-" + key.replace("_", "-")
        if kind is bool:
            run_p.add_argument(flag, action="store_true", default=None)
        else:
            run_p.add_argument(flag, type=kind, default=None)

    resume_p = sub.add_parser("resume", help="continue an interrupted run")
    resume_p.add_argument("--state", required=True, help="state directory of the run")

    analyze_p = sub.add_parser("analyze", help="export metrics from a finished run")
    analyze_p.add_argument("--state", required=True, help="state directory of the run")
    analyze_p.add_argument("--metric", required=True, choices=ANALYZE_METRICS)
    analyze_p.add_argument("--out", required=True, help="output file path")
    analyze_p.add_argument("--gamma", type=float, default=0.6)
    analyze_p.add_argument("--min-descendants", type=int, default=3)
    analyze_p.add_argument("--resamples", type=int, default=1000)
    analyze_p.add_argument("--level", type=float, default=95.0)
    analyze_p.add_argument("--ci-seed", type=int, default=0)

    demo_p = sub.add_parser("demo-config", help="write the built-in demo config")
    demo_p.add_argument("--out", required=True)
    demo_p.add_argument("--state-dir", default="demo_run")
    demo_p.add_argument("--iterations", type=int, default=20)
    demo_p.add_argument("--seed", type=int, default=42)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # the flags replace the file's values before anything is checked, so a
    # flag can stand in for an invalid value
    try:
        overrides = {"seed": args.seed, "mode": args.mode, "iterations": args.iterations}
        doc = effective_config_doc(read_config_doc(args.config), overrides)
        policy_overrides = {key: getattr(args, f"policy_{key}") for key in POLICY_KEYS}
        policy = doc.get("policy", {"variant": "score-child-prop"})
        if isinstance(policy, dict) and any(v is not None for v in policy_overrides.values()):
            doc["policy"] = {**policy, **{k: v for k, v in policy_overrides.items()
                                         if v is not None}}
        config, evaluator_specs = parse_config(doc, base_dir=Path(args.config).parent.resolve())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # `resume` reads the snapshot from the state directory, not beside the
    # config file: it names these by their resolved paths
    for key in ("payload_dir", "instruction_template"):
        if key in doc and getattr(config, key) is not None:
            doc[key] = str(getattr(config, key))
    digest = config_hash(doc)
    config.state_dir.mkdir(parents=True, exist_ok=True)
    (config.state_dir / "config.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    state = engine.run(config, evaluator_specs=evaluator_specs, run_id=digest[:12])
    print(f"run {state.run_id} complete: {state.iteration} iterations, "
          f"archive size {len(state.archive)}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    state_dir = Path(args.state)
    config_path = state_dir / "config.json"
    if not config_path.exists():
        print(f"no config snapshot at {config_path}", file=sys.stderr)
        return 2
    try:
        raw = read_config_doc(config_path)
        # the snapshot's own state directory, not that of the run it was copied from
        config, evaluator_specs = parse_config({**raw, "state_dir": "."},
                                               base_dir=state_dir.absolute())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        state = engine.resume(config, evaluator_specs=evaluator_specs,
                              run_id=config_hash(raw)[:12])
    except engine.RunIdMismatch as exc:
        print(
            f"refusing to resume: config hash {exc.expected} does not match "
            f"recorded run id {exc.recorded}",
            file=sys.stderr,
        )
        return 2
    print("run already completed; nothing to resume" if state.already_complete else
          f"run {state.run_id} complete: {state.iteration} iterations, "
          f"archive size {len(state.archive)}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    for name, (allowed, accepts) in ANALYZE_RANGES.items():
        value = getattr(args, name)
        if not accepts(value):
            flag = "--" + name.replace("_", "-")
            print(f"invalid argument {flag} {value}: must be {allowed}", file=sys.stderr)
            return 2
    state_dir = Path(args.state)
    out = Path(args.out)
    if not state_dir.exists():
        print(f"no state directory {state_dir}", file=sys.stderr)
        return 2
    state = engine.replay_log(state_dir / "events.jsonl")
    arch = state.archive

    if args.metric == "tree":
        metrics.export_tree_dot(arch, out)
    elif args.metric == "progress":
        metrics.export_progress_csv(metrics.progress_series(state.archived, state.iteration),
                                    out)
    elif args.metric == "transfer":
        params = metrics.GrowthScoreParams(
            gamma=args.gamma, min_descendants=args.min_descendants
        )
        try:
            node_id = metrics.transfer_select(arch, params)
        except ValueError as exc:
            print(f"transfer selection failed: {exc}", file=sys.stderr)
            return 1
        metrics.export_scalars_csv(
            [{
                "selected_node": node_id,
                "growth_score": repr(metrics.growth_score(arch, node_id, params)),
                "gamma": args.gamma,
                "min_descendants": args.min_descendants,
            }],
            out,
        )
    elif args.metric == "ci":
        samples = [node_selection_score(n) for n in arch]
        rng = substream(args.ci_seed, "cli/ci")
        median, lower, upper = metrics.bootstrap_ci(
            samples, rng, resamples=args.resamples, level=args.level
        )
        metrics.export_scalars_csv(
            [{"median": repr(median), "lower": repr(lower), "upper": repr(upper),
              "samples": len(samples), "resamples": args.resamples, "level": args.level}],
            out,
        )
    elif args.metric == "impk":
        metrics.export_scalars_csv([_impk_row(state.archived)], out)
    print(f"wrote {out}")
    return 0


def _impk_row(agents: list[AgentNode]) -> dict:
    """improvement@k of every generated agent over the initial one, each
    scored by `node_selection_score`."""
    root, *generated = agents
    initial = node_selection_score(root)
    generated_scores = [node_selection_score(n) for n in generated]
    return {
        "variant": "max",
        "initial_score": repr(initial),
        "improvement_at_k": repr(metrics.improvement_at_k(initial, generated_scores)),
        "k": max(1, len(generated)),
    }


def _cmd_demo_config(args: argparse.Namespace) -> int:
    doc = demo_config(args.state_dir, args.iterations, args.seed)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    commands = {"run": _cmd_run, "resume": _cmd_resume, "analyze": _cmd_analyze,
                "demo-config": _cmd_demo_config}
    try:
        return commands[args.command](args)
    except RUNTIME_FAILURES as exc:
        print(f"{args.command} halted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
