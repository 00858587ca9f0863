"""The benchmark's workloads: set-up, the timed public calls, output checks.

Each workload drives the package through its public functions only:

* ``ablation`` -- the acceptance-ablation shape (100 iterations, 3 parents,
  simulated backend, synthetic evaluator, two-peak surface,
  score-child-prop) through ``engine.run`` once in each of the five modes.
* ``spawn`` -- ``no-open-ended`` with 2 parents and concurrency 2, where
  every validity probe and every task is a ``/bin/sh`` command evaluator,
  so each child costs four ``sandbox_execute`` calls.
* ``analytics`` -- set-up grows a 1,000-node archive with the package's own
  selection rule; the timed part runs the five ``evoarchive analyze``
  commands in-process through ``cli.main``. The archive's shape comes from
  a fixed growth seed and the workload seed drives the bootstrap draws (see
  ``Analytics``).

A job is one unit of timed work: one five-mode set, one spawn run, or the
five analyze commands. All state lives under the work directory handed in,
which sits on the repository's own filesystem.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import logging
import math
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from evoarchive import archive, cli, engine
from evoarchive.archive import AgentNode, Archive, DomainScores
from evoarchive.evaluation import DomainSpec, Gate, StagedEvalPolicy, node_selection_score
from evoarchive.rng import substream
from evoarchive.sandbox import SandboxLimits
from evoarchive.selection import SelectionPolicy, sample_parents, selection_distribution

from tracing import Tracer

LIMITS = SandboxLimits(wall_clock_seconds=10.0, cpu_seconds=10, max_output_bytes=100_000)
POLICY = SelectionPolicy(variant="score-child-prop")
ROOT_GENOME = {
    "task_skill": [0.0, 0.0, 0.0],
    "meta_capability": 0.05,
    "compile_probability": 0.95,
    # gives modifiable-selection an evolved policy instead of the uniform fallback
    "selection_policy": {"variant": "score-child-prop", "sharpness": 10.0,
                         "midpoint_pool_size": 3},
}


def landscape_domain() -> DomainSpec:
    return DomainSpec(
        name="landscape",
        task_ids=("probe-0", "probe-1", "probe-2"),
        staged=StagedEvalPolicy(subset_size=1, full_size=3,
                                gate=Gate(kind="min-successes", count=1)),
    )


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedGauge:
    """Times a fixed pure-Python loop in a side thread while a job runs.

    On a shared machine a CPU runs the same code up to 1.6 times slower for
    seconds to minutes at a time, when another tenant loads its sibling
    hardware thread. A job's time divided by the gauge's mean loop time
    (both taken over the same interval) cancels most of that drift, so the
    benchmark's bounded metrics are in units of the gauge loop. The loop's
    own CPU time is measured with the thread clock, so it excludes waiting
    for the GIL or a core; its duty cycle is about 0.5%.
    """

    period_s = 0.05
    loop = 5_000

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cpu_s = 0.0  # the gauge thread's own CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-gauge", daemon=True)

    def _run(self) -> None:
        start = time.thread_time()
        while True:
            t0 = time.thread_time()
            total = 0
            for i in range(self.loop):
                total += i
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(self.period_s):
                break
        self.cpu_s = time.thread_time() - start

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TaskFailureCounter(logging.Handler):
    """Counts the evaluator failures the evaluation layer logs and scores as 0."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


@dataclass
class JobResult:
    wall: float = 0.0  # seconds inside the timed public calls
    cpu: float = 0.0  # CPU seconds over the same calls, reaped children included
    gauge: float = 0.0  # mean SpeedGauge loop time over the job, in seconds
    children: int = 0  # candidate children generated and settled
    nodes: int = 0  # archive nodes at the end, summed over the job's runs
    commands: int = 0  # sandboxed commands the job's output says were run
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # fingerprints, digests

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@contextlib.contextmanager
def timed(result: JobResult, tracer: Optional[Tracer], root: str, run_id: str):
    """Accumulate wall and CPU time; under tracing, record the job's root span."""
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.run_id = run_id
        span = tracer.span(root)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with span:
            yield
    finally:
        result.wall += time.perf_counter() - t0
        result.cpu += cpu_seconds() - cpu0


def check_run(config: engine.RunConfig) -> tuple[str, int, list[str]]:
    """Reload a finished state directory; returns fingerprint, size, problems."""
    location = config.state_dir / "archive"
    try:
        state = engine.load_state(config)
        reloaded = archive.load(location)
        fingerprint = archive.fingerprint(location)
    except Exception as exc:
        return "", 0, [f"{config.state_dir.name}: reload failed: {exc!r}"]
    problems = []
    if not state.completed or state.iteration != config.iterations:
        problems.append(f"{config.state_dir.name}: stopped at iteration {state.iteration}")
    if [n.id for n in reloaded] != [n.id for n in state.archive]:
        problems.append(f"{config.state_dir.name}: archive.load and load_state disagree")
    return fingerprint, len(reloaded), problems


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self, location: Path) -> None:
        """Timed set-up into a fresh directory; the last one made is used."""
        raise NotImplementedError

    def run(self, location: Path, index: int, tracer: Optional[Tracer]) -> JobResult:
        """The timed job; under tracing the caller has installed the wrappers."""
        raise NotImplementedError

    def check(self, location: Path, result: JobResult) -> None:
        """Output checks after the job, with tracing removed again."""
        raise NotImplementedError


class Ablation(Workload):
    name = "ablation"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.iterations = 4 if tiny else 100
        self.warmup_iterations = 2 if tiny else 20

    def config(self, location: Path, mode: str, iterations: int) -> engine.RunConfig:
        return engine.RunConfig(
            mode=mode, iterations=iterations, seed=self.seed, state_dir=location / mode,
            policy=POLICY, domains=[landscape_domain()], initial=dict(ROOT_GENOME),
            parents_per_iteration=3, limits=LIMITS,
        )

    def setup(self, location: Path) -> None:
        for mode in engine.MODES:
            engine.run(self.config(location, mode, self.warmup_iterations))

    def run(self, location: Path, index: int, tracer: Optional[Tracer]) -> JobResult:
        result = JobResult()
        for mode in engine.MODES:
            config = self.config(location, mode, self.iterations)
            result.attempted += 1
            try:
                with timed(result, tracer, "engine.run", f"{self.name}/{index}/{mode}"):
                    engine.run(config)
            except Exception as exc:
                result.fail(f"{mode}: engine.run raised {exc!r}")
                continue
            result.children += config.iterations * config.parents_per_iteration
        return result

    def check(self, location: Path, result: JobResult) -> None:
        for mode in engine.MODES:
            fingerprint, size, problems = check_run(self.config(location, mode, self.iterations))
            result.nodes += size
            result.outputs[mode] = fingerprint
            for problem in problems:
                result.fail(problem)


# Reads the request line, then the payload's genome; prints a fixed score.
# Builtins only, so the sandbox's own cost is what a call measures.
EVALUATOR_SCRIPT = r"""IFS= read -r request || [ -n "$request" ] || exit 1
ref=${request#*\"payload_ref\": \"}
[ "$ref" != "$request" ] || exit 1
ref=${ref%%\"*}
genome=
{ while IFS= read -r line || [ -n "$line" ]; do genome="$genome$line"; done; } < "$ref/genome.json" || exit 1
case $genome in
  *'"task_skill"'*'}'*) printf '{"score": %s, "logs": null}\n' "$SCORE" ;;
  *) exit 1 ;;
esac
"""
FIXED_SCORE = 0.5


class Spawn(Workload):
    name = "spawn"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.iterations = 4 if tiny else 100
        self.warmup_iterations = 1 if tiny else 20

    def config(self, location: Path, iterations: int) -> engine.RunConfig:
        initial = {**ROOT_GENOME, "compile_probability": 1.0}
        del initial["selection_policy"]
        return engine.RunConfig(
            mode="no-open-ended", iterations=iterations, seed=self.seed,
            state_dir=location / "no-open-ended", policy=POLICY,
            domains=[landscape_domain()], initial=initial,
            parents_per_iteration=2, concurrency=2, limits=LIMITS,
        )

    def evaluator_specs(self) -> dict[str, dict]:
        command = ["/bin/sh", "-c", f"SCORE={FIXED_SCORE}\n" + EVALUATOR_SCRIPT]
        return {"landscape": {"kind": "command", "command": command}}

    def setup(self, location: Path) -> None:
        # Warms the engine with the synthetic evaluator: a set-up that ran
        # sandboxed commands varied by 0.57 of its median across ten runs on a
        # shared 2-vCPU host, against 0.04 for the jobs' gauged CPU time.
        engine.run(self.config(location, self.warmup_iterations))

    def run(self, location: Path, index: int, tracer: Optional[Tracer]) -> JobResult:
        result = JobResult()
        config = self.config(location, self.iterations)
        result.attempted += 1
        try:
            with timed(result, tracer, "engine.run", f"{self.name}/{index}"):
                engine.run(config, evaluator_specs=self.evaluator_specs())
        except Exception as exc:
            result.fail(f"engine.run raised {exc!r}")
            return result
        result.children = config.iterations * config.parents_per_iteration
        return result

    def check(self, location: Path, result: JobResult) -> None:
        config = self.config(location, self.iterations)
        fingerprint, size, problems = check_run(config)
        result.nodes = size
        result.outputs[config.mode] = fingerprint
        for problem in problems:
            result.fail(problem)
        commands, failed = self.command_outcomes(config)
        result.commands = commands
        result.attempted += commands
        if failed:
            result.failed += failed
            result.problems.append(f"{failed} of {commands} sandboxed commands failed")

    @staticmethod
    def command_outcomes(config: engine.RunConfig) -> tuple[int, int]:
        """Sandboxed commands run, and how many failed, read from the event log.

        Each generated child costs one validity probe; each evaluation costs
        one command per task it reached. The root's probe is not logged. A
        failure is a non-compiled child or a task that did not score
        FIXED_SCORE.
        """
        domain = config.domains[0]
        commands, failed = 1, 0
        for event in engine.read_events(config.state_dir / "events.jsonl"):
            kind = event["event"]
            if kind == "generation":
                commands += 1
                failed += 0 if event["compiled"] else 1
            elif kind == "evaluation":
                gated = event["gated_out"][domain.name]
                tasks = domain.staged.subset_size if gated else domain.staged.full_size
                scored = round(event["aggregates"][domain.name]
                               * domain.staged.full_size / FIXED_SCORE)
                commands += tasks
                failed += tasks - scored
        return commands, failed


class Analytics(Workload):
    """Analyze commands over one 1,000-node archive grown by selection.

    The lineage metrics cost about n times the sum of squared node depths,
    and that sum varies by 40% (quartile spread) between growth seeds at
    1,000 nodes, which would swamp any change being measured. The archive
    is therefore grown from a fixed seed, `growth_seed`, whose sum of squared
    depths is the median of growth seeds 0-12 (depth 30, mean depth 17.3).
    The workload seed is the bootstrap seed of ``analyze --metric ci``.
    """

    name = "analytics"
    metrics = cli.ANALYZE_METRICS
    growth_seed = 2
    parents_per_step = 3
    noise = 0.05
    root_score = 0.3

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.size = 40 if tiny else 1000
        self.iterations = math.ceil((self.size - 1) / self.parents_per_step)
        self.state_dir: Optional[Path] = None

    def config(self) -> engine.RunConfig:
        return engine.RunConfig(
            mode="full", iterations=self.iterations, seed=self.growth_seed,
            state_dir=self.state_dir, policy=POLICY, domains=[landscape_domain()],
        )

    @staticmethod
    def _events(iteration: int, node: AgentNode) -> list[dict]:
        stamp = now()
        score = node.scores["landscape"].train
        return [
            {"event": "evaluation", "time": stamp, "iteration": iteration, "node_id": node.id,
             "payload_ref": node.payload_ref, "selection_score": score,
             "scores": {"landscape": {"train": score, "validation": None, "test": None}},
             "combined": score, "gated_out": {"landscape": False},
             "aggregates": {"landscape": score}, "validation": {}},
            {"event": "archive_add", "time": stamp, "iteration": iteration, "node_id": node.id,
             "parent_id": node.parent_id, "payload_ref": node.payload_ref},
        ]

    def setup(self, location: Path) -> None:
        """Grow the archive with the selection rule, then write it as a run would."""
        location.mkdir(parents=True)
        event_log = location / "events.jsonl"
        rng = substream(self.growth_seed, "perfbench/analytics")
        arch = Archive(mode_tag="full")
        root = AgentNode(id=0, parent_id=None, payload_ref=engine.ROOT_PAYLOAD_KEY,
                         compiled=True, scores={"landscape": DomainScores(self.root_score)})
        archive.add_node(arch, root)
        engine.append_events(event_log, [
            {"event": "run_start", "time": now(), "run_id": self.name,
             "mode": "full", "seed": self.growth_seed, "iterations": self.iterations},
            *self._events(0, root),
            {"event": "iteration_complete", "time": now(), "iteration": 0},
        ])
        for iteration in range(1, self.iterations + 1):
            view = [(node_selection_score(n), n.compiled_children) for n in arch]
            parents = sample_parents(selection_distribution(view, POLICY),
                                     self.parents_per_step, rng)
            events: list[dict] = []
            for slot, index in enumerate(parents):
                if len(arch) == self.size:
                    break
                parent = arch.nodes[index]
                score = node_selection_score(parent) + float(rng.normal(0.0, self.noise))
                node = AgentNode(
                    id=len(arch), parent_id=parent.id,
                    payload_ref=f"cand_{iteration:05d}_{slot}", compiled=True,
                    scores={"landscape": DomainScores(min(1.0, max(0.0, score)))},
                    created_at_iteration=iteration,
                )
                archive.add_node(arch, node)
                events.extend(self._events(iteration, node))
            events.append({"event": "iteration_complete", "time": now(),
                           "iteration": iteration})
            if iteration == self.iterations:
                events.append({"event": "run_complete", "time": now(),
                               "iteration": iteration})
            engine.append_events(event_log, events)
        archive.persist(arch, location / "archive", run_id=self.name)
        state = {"iteration": self.iterations, "completed": True, "run_id": self.name,
                 "next_node_id": len(arch)}
        (location / "state.json").write_text(
            json.dumps(state, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        self.state_dir = location

    def run(self, location: Path, index: int, tracer: Optional[Tracer]) -> JobResult:
        result = JobResult()
        location.mkdir(parents=True)
        for metric in self.metrics:
            argv = ["analyze", "--state", str(self.state_dir), "--metric", metric,
                    "--out", str(location / f"{metric}.out"), "--ci-seed", str(self.seed)]
            result.attempted += 1
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with timed(result, tracer, "cli.main", f"{self.name}/{index}/{metric}"), \
                        contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception as exc:
                result.fail(f"analyze {metric} raised {exc!r}")
                continue
            if code != 0:
                result.fail(f"analyze {metric} exited {code}: {stderr.getvalue()[:200]}")
        return result

    def check(self, location: Path, result: JobResult) -> None:
        fingerprint, size, problems = check_run(self.config())
        result.nodes = size
        result.outputs["archive"] = fingerprint
        for problem in problems:
            result.fail(problem)
        for metric in self.metrics:
            out = location / f"{metric}.out"
            if out.exists():
                result.outputs[metric] = digest(out)
        progress = location / "progress.out"
        if progress.exists():
            rows = len(progress.read_text(encoding="utf-8").splitlines())
            if rows != self.iterations + 2:
                result.fail(f"progress export has {rows} lines, want {self.iterations + 2}")


WORKLOADS = {cls.name: cls for cls in (Ablation, Spawn, Analytics)}
