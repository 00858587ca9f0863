"""Span tracer for the benchmark's traced run.

The tracer wraps public functions at the module attribute each caller
resolves (``evoarchive.engine.generate_child``, not the defining module's
name, where the engine imported it by name). Every wrapped call records one
span: name, start, end, parent span and the run id of the job it belongs to.
Spans are kept in memory, one list per thread, and written out when the
benchmark ends. Work submitted to a ``ThreadPoolExecutor`` inside the engine
or the evaluator is linked to the span that submitted it, so spans form one
tree per job across threads.

Nothing in the package changes: ``install`` swaps module attributes and
``restore`` puts the originals back.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

# (module, attribute, span name). The attribute is the one callers resolve:
# the engine calls `archive_mod.persist`, the CLI calls `archive_mod.load`
# and `metrics.<name>`, so those are patched on the defining module.
TARGETS = (
    ("evoarchive.engine", "selection_distribution", "selection.selection_distribution"),
    ("evoarchive.engine", "sample_parents", "selection.sample_parents"),
    ("evoarchive.engine", "generate_child", "generation.generate_child"),
    ("evoarchive.engine", "validate_child", "generation.validate_child"),
    ("evoarchive.generation", "validate_child", "generation.validate_child"),
    ("evoarchive.engine", "multi_domain_evaluate", "evaluation.multi_domain_evaluate"),
    ("evoarchive.engine", "evaluate_full", "evaluation.evaluate_full"),
    ("evoarchive.evaluation", "sandbox_execute", "sandbox.sandbox_execute"),
    ("evoarchive.engine", "append_events", "engine.append_events"),
    ("evoarchive.archive", "persist", "archive.persist"),
    ("evoarchive.archive", "load", "archive.load"),
    ("evoarchive.metrics", "transfer_select", "metrics.transfer_select"),
    ("evoarchive.metrics", "growth_score", "metrics.growth_score"),
    ("evoarchive.metrics", "progress_series", "metrics.progress_series"),
    ("evoarchive.metrics", "bootstrap_ci", "metrics.bootstrap_ci"),
    ("evoarchive.metrics", "export_tree_dot", "metrics.export"),
    ("evoarchive.metrics", "export_progress_csv", "metrics.export"),
    ("evoarchive.metrics", "export_scalars_csv", "metrics.export"),
)

# modules whose ThreadPoolExecutor is replaced by one that links spans
POOL_OWNERS = ("evoarchive.engine", "evoarchive.evaluation")

# span names whose process-wide write volume is measured around each call
IO_SPANS = ("archive.persist", "engine.append_events")


def wchar() -> int:
    """Bytes this process has passed to write(2) so far (0 where unreadable)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run_id: str
    thread: int


class Tracer:
    def __init__(self) -> None:
        self.run_id = ""
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists: list[list[Span]] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _thread(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans = []
            state.stack = []
            state.inherited = None
            with self._lock:
                self._lists.append(state.spans)
        return state

    def current(self) -> Optional[int]:
        state = self._thread()
        return state.stack[-1] if state.stack else state.inherited

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        state = self._thread()
        record = Span(next(self._ids), self.current(), name, 0.0, 0.0, self.run_id,
                      threading.get_ident())
        state.stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            state.stack.pop()
            state.spans.append(record)

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def _adopt(self, parent: Optional[int], fn: Callable, *args, **kwargs):
        state = self._thread()
        saved = state.inherited
        state.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            state.inherited = saved

    # --- patching ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, original: Callable, name: str, observe: Optional[Callable]):
        tracer = self
        measure_io = name in IO_SPANS

        def traced(*args, **kwargs):
            before = wchar() if measure_io else 0
            result = error = None
            try:
                with tracer.span(name) as record:
                    result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer.add(name + ".calls")
                if measure_io:
                    tracer.add(name + ".bytes", wchar() - before)
                if observe is not None:
                    observe(tracer, record, result, error)

        return traced

    def install(self) -> None:
        """Wrap every target and link spans across the package's worker pools."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr,
                        self._wrapper(getattr(module, attr), name, OBSERVERS.get(name)))
        tracer = self

        class LinkedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer.current(), fn, *args, **kwargs)

        for module_name in POOL_OWNERS:
            self._patch(importlib.import_module(module_name), "ThreadPoolExecutor", LinkedPool)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            merged = [s for spans in self._lists for s in spans]
        return sorted(merged, key=lambda s: s.start)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans():
                fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


# --- result hooks: counts measured where the work happens ----------------------


def _observe_generation(tracer: Tracer, record: Span, result, error) -> None:
    if result is not None and result.compiled:
        tracer.add("generation.compiled")


def _observe_multi_domain(tracer: Tracer, record: Span, result, error) -> None:
    if result is None:
        return
    reports, _combined = result
    tracer.add("evaluation.reports", len(reports))
    tracer.add("evaluation.gated_out", sum(1 for r in reports.values() if r.gated_out))
    tracer.add("evaluation.tasks", sum(len(r.per_task) for r in reports.values()))


def _observe_evaluate_full(tracer: Tracer, record: Span, result, error) -> None:
    if result is not None:
        tracer.add("evaluation.tasks", len(result.per_task))


def _observe_sandbox(tracer: Tracer, record: Span, result, error) -> None:
    from evoarchive.sandbox import SandboxSpawnError

    tracer.sample("sandbox.call_ms", (record.end - record.start) * 1000.0)
    if result is not None and result.timed_out:
        tracer.add("sandbox.timeouts")
    if isinstance(error, SandboxSpawnError):
        tracer.add("sandbox.spawn_errors")


OBSERVERS = {
    "generation.generate_child": _observe_generation,
    "evaluation.multi_domain_evaluate": _observe_multi_domain,
    "evaluation.evaluate_full": _observe_evaluate_full,
    "sandbox.sandbox_execute": _observe_sandbox,
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


# --- per-layer metrics -----------------------------------------------------------

ROOT_SPANS = ("engine.run", "cli.main")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def _iteration_ms(spans: list[Span]) -> list[float]:
    """Per-iteration durations: from one selection to the next, last to run end."""
    starts: dict[int, list[float]] = collections.defaultdict(list)
    roots = {s.id: s for s in spans if s.name == "engine.run"}
    for s in spans:
        if s.name == "selection.selection_distribution" and s.parent in roots:
            starts[s.parent].append(s.start)
    out = []
    for root_id, points in starts.items():
        points = sorted(points) + [roots[root_id].end]
        out.extend((b - a) * 1000.0 for a, b in zip(points, points[1:]))
    return out


def layer_metrics(tracer: Tracer, jobs: int, nodes: float,
                  task_failures: float) -> dict[str, tuple[float, str]]:
    """Per-job layer figures from the traced jobs' spans and counts."""
    spans = tracer.spans()
    own = self_times(spans)
    busy: dict[str, float] = collections.defaultdict(float)
    selfs: dict[str, float] = collections.defaultdict(float)
    for s in spans:
        busy[s.name] += s.end - s.start
        selfs[s.name] += own[s.id]
    counts = tracer.counts

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in selfs.items() if k.startswith(prefix + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = sum(busy[name] for name in ROOT_SPANS)
    self_sum = sum(selfs.values())
    sandbox_ms = tracer.samples.get("sandbox.call_ms", [])
    iteration_ms = _iteration_ms(spans)
    gen_calls = counts["generation.generate_child.calls"]
    figures = {
        "selection.calls": (counts["selection.selection_distribution.calls"], "count"),
        "selection.busy_s": (busy["selection.selection_distribution"]
                             + busy["selection.sample_parents"], "s"),
        "selection.self_s": (layer_self("selection"), "s"),
        "generation.calls": (gen_calls, "count"),
        "generation.busy_s": (busy["generation.generate_child"], "s"),
        "generation.self_s": (layer_self("generation"), "s"),
        "generation.validate_calls": (counts["generation.validate_child.calls"], "count"),
        "generation.validate_busy_s": (busy["generation.validate_child"], "s"),
        "evaluation.calls": (counts["evaluation.multi_domain_evaluate.calls"]
                             + counts["evaluation.evaluate_full.calls"], "count"),
        "evaluation.busy_s": (busy["evaluation.multi_domain_evaluate"]
                              + busy["evaluation.evaluate_full"], "s"),
        "evaluation.self_s": (layer_self("evaluation"), "s"),
        "evaluation.tasks": (counts["evaluation.tasks"], "count"),
        "evaluation.task_failures": (task_failures, "count"),
        "sandbox.calls": (counts["sandbox.sandbox_execute.calls"], "count"),
        "sandbox.busy_s": (busy["sandbox.sandbox_execute"], "s"),
        "sandbox.self_s": (layer_self("sandbox"), "s"),
        "sandbox.timeouts": (counts["sandbox.timeouts"], "count"),
        "sandbox.spawn_errors": (counts["sandbox.spawn_errors"], "count"),
        "archive.persist_calls": (counts["archive.persist.calls"], "count"),
        "archive.persist_busy_s": (busy["archive.persist"], "s"),
        "archive.persist_bytes": (counts["archive.persist.bytes"], "bytes"),
        "archive.load_calls": (counts["archive.load.calls"], "count"),
        "archive.load_busy_s": (busy["archive.load"], "s"),
        "archive.self_s": (layer_self("archive"), "s"),
        "engine.append_events_calls": (counts["engine.append_events.calls"], "count"),
        "engine.append_events_busy_s": (busy["engine.append_events"], "s"),
        "engine.append_events_bytes": (counts["engine.append_events.bytes"], "bytes"),
        "engine.self_s": (selfs["engine.run"], "s"),
        "metrics.transfer_select_s": (selfs["metrics.transfer_select"]
                                      + selfs["metrics.growth_score"], "s"),
        "metrics.progress_series_s": (selfs["metrics.progress_series"], "s"),
        "metrics.bootstrap_ci_s": (selfs["metrics.bootstrap_ci"], "s"),
        "metrics.export_s": (selfs["metrics.export"], "s"),
        "metrics.self_s": (layer_self("metrics"), "s"),
        "cli.self_s": (selfs["cli.main"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.spans": (len(spans), "count"),
    }
    out = {name: (value / jobs, unit) for name, (value, unit) in figures.items()}
    out.update({
        "generation.compiled_ratio": (ratio(counts["generation.compiled"], gen_calls), "ratio"),
        "evaluation.gated_out_ratio": (ratio(counts["evaluation.gated_out"],
                                             counts["evaluation.reports"]), "ratio"),
        "sandbox.call_ms_p50": (_percentile(sandbox_ms, 0.50), "ms"),
        "sandbox.call_ms_p95": (_percentile(sandbox_ms, 0.95), "ms"),
        "archive.nodes": (nodes, "count"),
        "engine.iteration_ms_p50": (_percentile(iteration_ms, 0.50), "ms"),
        "engine.iteration_ms_p95": (_percentile(iteration_ms, 0.95), "ms"),
        "trace.accounted_ratio": (ratio(self_sum, wall), "ratio"),
    })
    return out
