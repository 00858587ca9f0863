"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criterion 6 runs 90 seeded engine runs and dominates the
suite's runtime (several minutes); everything is deterministic, so these
results are stable across reruns.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from evoarchive.archive import fingerprint
from evoarchive.engine import RunConfig, resume, run, step
from evoarchive.evaluation import (
    DomainSpec,
    Gate,
    StagedEvalPolicy,
    multi_domain_evaluate,
    node_selection_score,
)
from evoarchive.metrics import (
    GrowthScoreParams,
    bootstrap_ci,
    growth_score,
    transfer_select,
)
from evoarchive.rng import substream
from evoarchive.sandbox import SandboxLimits, TRUNCATION_MARKER, sandbox_execute
from evoarchive.selection import (
    SelectionPolicy,
    dynamic_midpoint,
    selection_distribution,
    weights_to_distribution,
)

import oracles
from conftest import staged_evaluate
from test_engine import LIMITS, landscape_domain


def criterion(number: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {label}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {label}")
            return result

        return inner

    return wrap


# --- 1. selection closed form ---------------------------------------------------


@criterion(1, "selection closed form matches independent recomputation to 1e-12")
def test_criterion_1_selection_closed_form():
    start = time.monotonic()
    view = [(0.1, 2), (0.2, 0), (0.8, 1), (0.9, 0)]
    policy = SelectionPolicy(variant="score-child-prop", sharpness=10.0, midpoint_pool_size=3)
    probabilities = selection_distribution(view, policy)

    # independent high-precision recomputation of the closed forms
    scores = [0.1, 0.2, 0.8, 0.9]
    children = [2, 0, 1, 0]
    midpoint = (0.9 + 0.8 + 0.2) / 3.0
    sig = [1.0 / (1.0 + math.exp(-10.0 * (a - midpoint))) for a in scores]
    nov = [1.0 / (1.0 + n) for n in children]
    weights = [s * h for s, h in zip(sig, nov)]
    total = sum(weights)
    expected = [w / total for w in weights]

    for got, want in zip(probabilities, expected):
        assert abs(got - want) <= 1e-12
    assert abs(dynamic_midpoint(scores, policy.midpoint_pool_size) - midpoint) <= 1e-12

    # injected all-zero weight vector exercises the uniform fallback exactly
    probs = weights_to_distribution([0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(probs, np.full(4, 1.0 / 4.0))

    assert time.monotonic() - start < 1.0


# --- 2. mode semantics ----------------------------------------------------------


def _mode_config(tmp_path: Path, mode: str, seed: int, iterations: int = 20) -> RunConfig:
    initial = {
        "task_skill": [0.0, 0.0, 0.0],
        "meta_capability": 0.05,
        "compile_probability": 0.95,
    }
    if mode == "modifiable-selection":
        initial["selection_policy"] = {"variant": "uniform-random"}
    return RunConfig(
        mode=mode,
        iterations=iterations,
        seed=seed,
        state_dir=tmp_path / f"{mode}-{seed}",
        policy=SelectionPolicy(variant="score-child-prop"),
        domains=[landscape_domain()],
        initial=initial,
        limits=LIMITS,
    )


@criterion(2, "mode semantics hold on seeded 20-iteration runs")
def test_criterion_2_mode_semantics(tmp_path):
    from evoarchive.engine import read_events

    start = time.monotonic()

    # (a) no-open-ended keeps archive size 1 at every step
    for seed in (0, 1, 2):
        config = _mode_config(tmp_path, "no-open-ended", seed)
        state = run(config, stop_after=0)
        assert len(state.archive) == 1
        while state.iteration < config.iterations:
            state = step(state, config)
            assert len(state.archive) == 1

    # (b) no-self-improve names node 0 as modifier in 100% of generation events
    for seed in (0, 1, 2):
        config = _mode_config(tmp_path, "no-self-improve", seed)
        state = run(config)
        generations = [e for e in read_events(state.event_log) if e["event"] == "generation"]
        assert generations
        assert all(e["modifier_id"] == 0 for e in generations)

    # (c) modifiable-selection names the latest node id as selector in 100%
    #     of selection events
    for seed in (0, 1, 2):
        config = _mode_config(tmp_path, "modifiable-selection", seed)
        state = run(config)
        latest = 0
        checked = 0
        for event in read_events(state.event_log):
            if event["event"] == "selection":
                assert event["selector_id"] == latest
                checked += 1
            elif event["event"] == "archive_add":
                latest = event["node_id"]
        assert checked == config.iterations

    assert time.monotonic() - start < 60.0


# --- 3. metric oracles ----------------------------------------------------------


@criterion(3, "metric implementations match brute-force oracles exactly")
def test_criterion_3_metric_oracles():
    start = time.monotonic()

    rng = np.random.default_rng(1001)
    for _ in range(1000):
        k = int(rng.integers(1, 60))
        n = int(rng.integers(0, k + 1))
        initial = float(rng.random())
        generated = tuple(float(v) for v in rng.random(n))
        oracles.assert_impk_matches(initial, generated)

    params = GrowthScoreParams(gamma=0.6, min_descendants=3)
    mismatches = 0
    for _ in range(500):
        size = int(rng.integers(2, 13))
        arch = oracles.seeded_tree(rng, size)
        for node in arch.nodes:
            if oracles.descendants(arch, node.id):
                got = growth_score(arch, node.id, params)
                want = oracles.growth_score(arch, node.id, params)
                if abs(got - want) > 1e-12:
                    mismatches += 1
        want_id = oracles.transfer_select(arch, params)
        if want_id is None:
            with pytest.raises(ValueError):
                transfer_select(arch, params)
        elif transfer_select(arch, params) != want_id:
            mismatches += 1
    assert mismatches == 0

    assert time.monotonic() - start < 30.0


# --- 4. staged gating -----------------------------------------------------------


@criterion(4, "staged gates: strict 40% boundary and cross-domain zero-fill")
def test_criterion_4_staged_gating():
    start = time.monotonic()

    def scripted(successes: int):
        def evaluator(task_id, payload_ref, limits):
            index = int(task_id.rsplit("-", 1)[1])
            return 1.0 if index < successes else 0.0

        return evaluator

    domain = DomainSpec(
        name="coding",
        task_ids=tuple(f"task-{i}" for i in range(60)),
        staged=StagedEvalPolicy(
            subset_size=10, full_size=60,
            gate=Gate(kind="min-fraction", fraction=0.4, strict=True),
        ),
    )

    # exactly 4/10 subset successes: 40% is not "more than 40%" -> gated out
    report = staged_evaluate("p", domain, scripted(4), LIMITS)
    assert report.gated_out
    assert len(report.per_task) == 10
    assert report.aggregate == pytest.approx(4 / 60)

    # 5/10 proceeds to the full evaluation
    report = staged_evaluate("p", domain, scripted(5), LIMITS)
    assert not report.gated_out
    assert len(report.per_task) == 60

    # two domains: a failed gate in one forces gated_out in both
    good = DomainSpec(
        name="good",
        task_ids=tuple(f"task-{i}" for i in range(6)),
        staged=StagedEvalPolicy(
            subset_size=2, full_size=6, gate=Gate(kind="min-successes", count=1)
        ),
    )
    bad = DomainSpec(
        name="bad",
        task_ids=tuple(f"task-{i}" for i in range(6)),
        staged=StagedEvalPolicy(
            subset_size=2, full_size=6, gate=Gate(kind="min-successes", count=1)
        ),
    )
    evaluators = {"good": lambda t, p, l: 1.0, "bad": lambda t, p, l: 0.0}
    reports, _ = multi_domain_evaluate("p", [good, bad], evaluators, LIMITS)
    assert reports["good"].gated_out and reports["bad"].gated_out
    assert reports["good"].aggregate == pytest.approx(2 / 6)

    assert time.monotonic() - start < 5.0


# --- 5. bootstrap ---------------------------------------------------------------


@criterion(5, "bootstrap CIs replay exactly and bracket the median")
def test_criterion_5_bootstrap():
    rng = np.random.default_rng(77)
    samples = np.round(rng.random(25), 6).tolist()

    first = bootstrap_ci(samples, substream(1234, "acceptance/ci"))
    second = bootstrap_ci(samples, substream(1234, "acceptance/ci"))
    assert first == second
    assert first[1] <= first[0] <= first[2]

    checker = np.random.default_rng(5005)
    for _ in range(1000):
        n = int(checker.integers(2, 50))
        values = checker.random(n).tolist()
        median, lower, upper = bootstrap_ci(
            values, substream(int(checker.integers(1 << 30)), "acceptance/ci"),
        )
        assert lower <= median <= upper


# --- 6. surrogate ablation ordering ----------------------------------------------


ABLATION_SEEDS = range(30)
ABLATION_ITERATIONS = 100
GLOBAL_PEAK_THRESHOLD = 0.75  # above anything the local basin can produce


# tmpfs where there is one: on a disk file system the 90 ablation runs spend
# most of their time in the system calls that create and remove their files
ABLATION_TMP = ("/dev/shm" if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK)
                else None)


def _ablation_final_best(mode: str, seed: int) -> float:
    """Best selection score available in the archive at the end of the run."""
    with tempfile.TemporaryDirectory(dir=ABLATION_TMP) as tmp:
        config = RunConfig(
            mode=mode,
            iterations=ABLATION_ITERATIONS,
            seed=seed,
            state_dir=Path(tmp) / "state",
            policy=SelectionPolicy(variant="score-child-prop"),
            domains=[landscape_domain()],
            initial={"task_skill": [0.0, 0.0, 0.0], "meta_capability": 0.05,
                     "compile_probability": 0.95},
            parents_per_iteration=3,
            limits=LIMITS,
        )
        state = run(config)
        return max(node_selection_score(n) for n in state.archive)


@criterion(6, "full mode beats both ablations with non-overlapping CIs")
def test_criterion_6_surrogate_ablation_ordering():
    start = time.monotonic()
    finals = {}
    for mode in ("full", "no-self-improve", "no-open-ended"):
        finals[mode] = np.array([_ablation_final_best(mode, s) for s in ABLATION_SEEDS])

    stats = {
        mode: bootstrap_ci(values.tolist(), substream(0, "acceptance/ablation"))
        for mode, values in finals.items()
    }
    for mode, (median, lower, upper) in stats.items():
        peaks = int((finals[mode] > GLOBAL_PEAK_THRESHOLD).sum())
        print(f"  {mode}: median {median:.3f} CI ({lower:.3f}, {upper:.3f}) "
              f"peak runs {peaks}/{len(ABLATION_SEEDS)}")

    # median ordering, each gap confirmed by non-overlapping 95% CIs
    assert stats["full"][0] > stats["no-self-improve"][0]
    assert stats["full"][1] > stats["no-self-improve"][2]
    assert stats["full"][0] > stats["no-open-ended"][0]
    assert stats["full"][1] > stats["no-open-ended"][2]

    # the full mode reaches the global peak at least twice as often as the
    # keep-only-the-latest ablation
    full_peaks = int((finals["full"] > GLOBAL_PEAK_THRESHOLD).sum())
    walker_peaks = int((finals["no-open-ended"] > GLOBAL_PEAK_THRESHOLD).sum())
    assert full_peaks >= 2 * max(walker_peaks, 1)

    assert time.monotonic() - start < 600.0


# --- 7. determinism & resume ------------------------------------------------------


@criterion(7, "split-run resume reproduces the uninterrupted archive for 10 seeds")
def test_criterion_7_determinism_and_resume(tmp_path):
    seed_source = np.random.default_rng(909)
    for trial in range(10):
        seed = int(seed_source.integers(0, 2**31))
        full_cfg = _mode_config(tmp_path / f"full{trial}", "full", seed, iterations=8)
        run(full_cfg)

        split_cfg = _mode_config(tmp_path / f"split{trial}", "full", seed, iterations=8)
        interrupt_at = int(seed_source.integers(1, 8))
        run(split_cfg, stop_after=interrupt_at)
        resumed = resume(split_cfg)
        assert resumed.completed

        assert fingerprint(full_cfg.state_dir / "archive") == fingerprint(
            split_cfg.state_dir / "archive"
        ), f"seed {seed} interrupt {interrupt_at}"


# --- 8. sandbox -------------------------------------------------------------------


@criterion(8, "sandbox kills sleepers, truncates floods, leaves no orphans")
def test_criterion_8_sandbox():
    marker = f"evoarchive-acceptance-{os.getpid()}"

    limits = SandboxLimits(wall_clock_seconds=1.0, cpu_seconds=30, max_output_bytes=100_000)
    begin = time.monotonic()
    outcome = sandbox_execute(
        [sys.executable, "-c", f"import time  # {marker}\ntime.sleep(60)"], limits
    )
    elapsed = time.monotonic() - begin
    assert outcome.timed_out
    assert elapsed < limits.wall_clock_seconds + 1.0

    flood = sandbox_execute(
        [sys.executable, "-c", "import sys; sys.stdout.write('y' * 10_000_000)"],
        SandboxLimits(wall_clock_seconds=30, cpu_seconds=30, max_output_bytes=65_536),
    )
    assert flood.output_truncated
    assert flood.stdout.endswith(TRUNCATION_MARKER)
    assert len(flood.stdout) == 65_536 + len(TRUNCATION_MARKER)

    # no process carrying our marker survives the calls
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        survivors = _processes_matching(marker)
        if not survivors:
            break
        time.sleep(0.1)
    assert not _processes_matching(marker)


def _processes_matching(marker: str) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry))
    return pids
