from __future__ import annotations

import logging
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoarchive.archive import AgentNode, DomainScores, load, persist
from evoarchive.engine import append_events, replay_log
from evoarchive.evaluation import (
    CommandEvaluator,
    DomainSpec,
    EvaluatorError,
    EvaluatorTimeout,
    Gate,
    StagedEvalPolicy,
    evaluate_full,
    multi_domain_evaluate,
    node_selection_score,
    score_task,
)
from evoarchive.generation import (
    SMOKE_TASK, SimulatedAgentGenome, SyntheticEvaluator, validate_child)
from evoarchive.sandbox import SandboxLimits

import oracles
from conftest import staged_evaluate

LIMITS = SandboxLimits(wall_clock_seconds=10.0, cpu_seconds=10, max_output_bytes=100_000)


def make_domain(
    name: str = "d",
    n_tasks: int = 10,
    subset: int = 3,
    gate: Gate | None = None,
    has_validation: bool = False,
    n_validation: int = 0,
) -> DomainSpec:
    return DomainSpec(
        name=name,
        task_ids=tuple(f"{name}-task-{i}" for i in range(n_tasks)),
        staged=StagedEvalPolicy(
            subset_size=subset,
            full_size=n_tasks,
            gate=gate or Gate(kind="min-successes", count=1),
        ),
        has_validation=has_validation,
        validation_task_ids=tuple(f"{name}-val-{i}" for i in range(n_validation)),
    )


def scripted(scores: dict[str, float]):
    def evaluator(task_id: str, payload_ref: str, limits: SandboxLimits) -> float:
        return scores[task_id]

    return evaluator


# --- gates ---------------------------------------------------------------------


def test_min_successes_gate_all_zero_subset_gates_out():
    domain = make_domain(n_tasks=5, subset=2)
    report = staged_evaluate("p", domain, lambda t, p, l: 0.0, LIMITS)
    assert report.gated_out
    assert report.aggregate == 0.0


def test_min_fraction_strict_four_of_ten_fails():
    domain = make_domain(
        n_tasks=60, subset=10, gate=Gate(kind="min-fraction", fraction=0.4, strict=True)
    )
    scores = {t: 1.0 if i < 4 else 0.0 for i, t in enumerate(domain.task_ids)}
    report = staged_evaluate("p", domain, scripted(scores), LIMITS)
    assert report.gated_out  # 40% is not "more than 40%"
    assert report.aggregate == pytest.approx(4 / 60)


def test_min_fraction_strict_five_of_ten_passes():
    domain = make_domain(
        n_tasks=60, subset=10, gate=Gate(kind="min-fraction", fraction=0.4, strict=True)
    )
    scores = {t: 1.0 if i < 5 else 0.0 for i, t in enumerate(domain.task_ids)}
    report = staged_evaluate("p", domain, scripted(scores), LIMITS)
    assert not report.gated_out
    assert len(report.per_task) == 60


def test_non_strict_fraction_accepts_equality():
    gate = Gate(kind="min-fraction", fraction=0.4, strict=False)
    assert gate.passes(4, 10)
    assert not gate.passes(3, 10)


def test_subset_passes_then_remaining_all_ones():
    domain = make_domain(n_tasks=6, subset=2)
    scores = {t: 1.0 if i != 1 else 0.0 for i, t in enumerate(domain.task_ids)}
    report = staged_evaluate("p", domain, scripted(scores), LIMITS)
    assert not report.gated_out
    assert report.aggregate == pytest.approx(5 / 6)


def test_evaluator_crash_scores_zero_for_that_task(caplog):
    domain = make_domain(n_tasks=4, subset=2)

    def flaky(task_id, payload_ref, limits):
        if task_id.endswith("0"):
            raise EvaluatorError("boom")
        return 1.0

    report = staged_evaluate("p", domain, flaky, LIMITS)
    assert not report.gated_out
    assert report.per_task[domain.task_ids[0]] == 0.0
    assert report.aggregate == pytest.approx(3 / 4)


def test_systemic_evaluator_failure_fails_gate_naturally():
    domain = make_domain(n_tasks=4, subset=2)

    def broken(task_id, payload_ref, limits):
        raise EvaluatorError("dead")

    report = staged_evaluate("p", domain, broken, LIMITS)
    assert report.gated_out
    assert report.aggregate == 0.0


def test_out_of_range_score_treated_as_zero():
    domain = make_domain(n_tasks=2, subset=1)
    report = staged_evaluate("p", domain, lambda t, p, l: 1.7, LIMITS)
    assert report.gated_out


@pytest.mark.parametrize("answer, score, cause", [
    (0.0, 0.0, None),
    (0.5, 0.5, None),
    (1, 1.0, None),
    (True, 1.0, None),
    (np.float32(0.5), 0.5, None),
    (1.7, 0.0, "malformed answer 1.7"),
    (-0.1, 0.0, "malformed answer -0.1"),
    (float("nan"), 0.0, "malformed answer nan"),
    (float("inf"), 0.0, "malformed answer inf"),
    ("0.5", 0.0, "malformed answer '0.5'"),
    (None, 0.0, "malformed answer None"),
    (EvaluatorError("boom"), 0.0, "EvaluatorError: boom"),
    (EvaluatorTimeout("evaluator timed out on task smoke"), 0.0, "timeout"),
    (TimeoutError(), 0.0, "timeout"),
    (RuntimeError("upstream connection timed out"), 0.0,
     "RuntimeError: upstream connection timed out"),
])
def test_the_probe_and_a_scored_task_judge_an_answer_alike(tmp_path, answer, score, cause):
    def evaluator(task_id, payload_ref, limits):
        if isinstance(answer, Exception):
            raise answer
        return answer

    judged = score_task(evaluator, "t", str(tmp_path), LIMITS)
    assert judged == (score, cause) and type(judged[0]) is float
    assert validate_child(tmp_path, SMOKE_TASK, LIMITS, evaluator) == (cause is None, cause or "ok")


def test_a_failed_task_warns_once_and_a_failed_probe_does_not_warn(tmp_path, caplog):
    def half_broken(task_id, payload_ref, limits):
        if task_id.endswith("0"):
            raise EvaluatorError("dead")
        return "0.5" if task_id.endswith("1") else 1.0

    with caplog.at_level(logging.INFO), ThreadPoolExecutor(2) as pool:
        report = evaluate_full("p", ["t0", "t1", "t2", "t3"], half_broken, LIMITS, pool)
        assert validate_child(tmp_path, "smoke-0", LIMITS, half_broken) == (
            False, "EvaluatorError: dead")
    assert report.per_task == {"t0": 0.0, "t1": 0.0, "t2": 1.0, "t3": 1.0}
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("evoarchive.evaluation", logging.WARNING, "task t0 failed for p: EvaluatorError: dead"),
        ("evoarchive.evaluation", logging.WARNING, "task t1 failed for p: malformed answer '0.5'"),
        ("evoarchive.generation", logging.INFO,
         f"validity check failed for {tmp_path}: EvaluatorError: dead"),
    ]


# --- multi-domain -----------------------------------------------------------------


def test_one_failed_gate_forces_both_domains_gated_out():
    good = make_domain("good", n_tasks=4, subset=2)
    bad = make_domain("bad", n_tasks=4, subset=2)
    evaluators = {"good": lambda t, p, l: 1.0, "bad": lambda t, p, l: 0.0}
    reports, combined = multi_domain_evaluate("p", [good, bad], evaluators, LIMITS)
    assert reports["good"].gated_out and reports["bad"].gated_out
    # the passing domain keeps its subset scores but is zero-filled beyond them
    assert reports["good"].aggregate == pytest.approx(2 / 4)
    assert combined == pytest.approx((2 / 4 + 0.0) / 2)


def test_single_domain_combined_equals_aggregate():
    domain = make_domain(n_tasks=4, subset=2)
    reports, combined = multi_domain_evaluate(
        "p", [domain], {"d": lambda t, p, l: 0.5}, LIMITS
    )
    assert combined == pytest.approx(reports["d"].aggregate)


def test_two_domain_mean():
    d1 = make_domain("a", n_tasks=5, subset=1)
    d2 = make_domain("b", n_tasks=5, subset=1)
    evaluators = {"a": lambda t, p, l: 0.2, "b": lambda t, p, l: 0.6}
    _, combined = multi_domain_evaluate("p", [d1, d2], evaluators, LIMITS)
    assert combined == pytest.approx(0.4)


def test_empty_domain_list_rejected():
    with pytest.raises(ValueError):
        multi_domain_evaluate("p", [], {}, LIMITS)


# --- selection score ----------------------------------------------------------------


def _node(scores: dict[str, DomainScores]) -> AgentNode:
    return AgentNode(id=0, parent_id=None, payload_ref="p", compiled=True, scores=scores)


def test_validation_preferred_over_train():
    node = _node({"d": DomainScores(train=0.2, validation=0.7)})
    assert node_selection_score(node) == pytest.approx(0.7)


def test_train_used_without_validation():
    node = _node({"d": DomainScores(train=0.35)})
    assert node_selection_score(node) == pytest.approx(0.35)


def test_mixed_pair_mean():
    node = _node({
        "v": DomainScores(train=0.1, validation=0.6),
        "t": DomainScores(train=0.2),
    })
    assert node_selection_score(node) == pytest.approx(0.4)
    # the sum runs in domain-name order, whatever order the node holds them in
    reordered = _node(dict(reversed(list(node.scores.items()))))
    assert node_selection_score(reordered) == node_selection_score(node)


def test_no_evaluation_record_errors():
    node = _node({})
    with pytest.raises(ValueError):
        node_selection_score(node)


@given(oracles.NODE_SCORES)
def test_selection_score_has_the_bits_of_the_oracle(scores):
    oracles.assert_selection_score_bits(scores)


def _score_records() -> list[dict[str, dict]]:
    """Evaluation-event score records: domains held out of name order,
    validation present and absent, -0.0, and the JSON ints 0 and 1."""
    def rec(train, validation=None):
        return {"train": train, "validation": validation, "test": None}

    records = [
        {"c": rec(0.1), "a": rec(0.7, 0.3), "b": rec(0.2)},
        {"d": rec(-0.0)},
        {"b": rec(-0.0), "a": rec(0.5, -0.0)},
        {"y": rec(1), "x": rec(0, 1), "w": rec(0)},
        {"one": rec(1)},
    ]
    rng = np.random.default_rng(2301)
    for _ in range(60):
        names = rng.permutation(list("edcba"))[: rng.integers(3, 6)]
        records.append({str(name): rec(float(rng.random()),
                                       float(rng.random()) if rng.random() < 0.5 else None)
                        for name in names})
    return records


def test_stored_score_has_the_bits_of_the_formula(tmp_path):
    records = _score_records()
    events = [{"event": "run_start", "time": "t", "run_id": "r", "mode": "full",
               "seed": 0, "iterations": 1}]
    for node_id, scores in enumerate(records):
        events += [
            {"event": "evaluation", "time": "t", "iteration": 0, "node_id": node_id,
             "scores": scores},
            {"event": "archive_add", "time": "t", "iteration": 0, "node_id": node_id,
             "parent_id": None if node_id == 0 else 0, "payload_ref": f"p{node_id}"},
        ]
    events.append({"event": "iteration_complete", "time": "t", "iteration": 0})
    append_events(tmp_path / "events.jsonl", events)
    folded = replay_log(tmp_path / "events.jsonl").archive
    persist(folded, tmp_path / "archive")
    loaded = load(tmp_path / "archive")
    direct = [_node({name: DomainScores(**r) for name, r in scores.items()})
              for scores in records]
    for nodes in (folded.nodes, loaded.nodes, direct):
        assert len(nodes) == len(records)
        for node in nodes:
            expected = float.hex(oracles.selection_score(node.scores))
            assert float.hex(node_selection_score(node)) == expected
    assert float.hex(node_selection_score(direct[1])) == "0x0.0p+0"  # sum([-0.0]) is +0.0


def test_a_node_without_scores_has_no_selection_score():
    # the fold refuses an `evaluation` without a domain, so only a node built
    # directly can lack scores
    root = AgentNode(0, None, "p0", compiled=True)
    assert root.selection_score is None
    with pytest.raises(ValueError, match="node 0 has no evaluation record"):
        node_selection_score(root)


# --- invariants -------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=4, max_size=10),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_aggregate_monotone_in_every_task_score(base_scores, index, bump):
    n = len(base_scores)
    domain = make_domain(n_tasks=n, subset=1)
    target = domain.task_ids[min(index, n - 1)]
    low = dict(zip(domain.task_ids, base_scores))
    high = dict(low)
    high[target] = min(1.0, high[target] + bump)
    r_low = staged_evaluate("p", domain, scripted(low), LIMITS)
    r_high = staged_evaluate("p", domain, scripted(high), LIMITS)
    if r_low.gated_out == r_high.gated_out:
        assert r_high.aggregate >= r_low.aggregate - 1e-12


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_gated_out_bounds_aggregate(n_tasks, subset, seed):
    import numpy as np

    subset = min(subset, n_tasks)
    rng = np.random.default_rng(seed)
    domain = make_domain(
        n_tasks=n_tasks, subset=subset, gate=Gate(kind="min-fraction", fraction=0.99, strict=True)
    )
    scores = {t: float(rng.random() < 0.5) for t in domain.task_ids}
    report = staged_evaluate("p", domain, scripted(scores), LIMITS)
    if report.gated_out:
        assert report.aggregate <= subset / n_tasks + 1e-12


# --- evaluator implementations -------------------------------------------------------


def test_synthetic_evaluator_scores_genome(tmp_path):
    genome = SimulatedAgentGenome(
        task_skill=[0.8, 0.0], meta_capability=0.5, compile_probability=1.0
    )
    genome.write_payload(tmp_path / "agent")
    evaluator = SyntheticEvaluator()
    score = evaluator("any-task", str(tmp_path / "agent"), LIMITS)
    assert score == pytest.approx(0.6, abs=0.01)  # sits on the near peak


def test_synthetic_evaluator_raises_on_broken_payload(tmp_path):
    payload = tmp_path / "agent"
    payload.mkdir()
    (payload / "genome.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(EvaluatorError):
        SyntheticEvaluator()("t", str(payload), LIMITS)


ECHO_EVALUATOR = (
    "import json,sys;"
    "req=json.load(sys.stdin);"
    "print(json.dumps({'score': 0.25 if req['task_id'].endswith('1') else 1.0,"
    " 'logs': None}))"
)


def test_command_evaluator_round_trip(tmp_path):
    evaluator = CommandEvaluator([sys.executable, "-c", ECHO_EVALUATOR])
    assert evaluator("task-1", str(tmp_path), LIMITS) == pytest.approx(0.25)
    assert evaluator("task-2", str(tmp_path), LIMITS) == pytest.approx(1.0)


def test_command_evaluator_request_schema(tmp_path):
    capture = tmp_path / "request.json"
    code = (
        "import json,sys,pathlib;"
        f"pathlib.Path({str(capture)!r}).write_bytes(sys.stdin.buffer.read());"
        "print(json.dumps({'score': 0.5, 'logs': 'log.txt'}))"
    )
    evaluator = CommandEvaluator([sys.executable, "-c", code])
    evaluator("t-9", "/payload/ref", LIMITS)
    # the request's exact bytes, limits in field order
    assert capture.read_bytes() == (
        b'{"task_id": "t-9", "payload_ref": "/payload/ref", "limits": '
        b'{"wall_clock_seconds": 10.0, "cpu_seconds": 10, "max_output_bytes": 100000, '
        b'"network": "disabled"}}'
    )


@pytest.mark.parametrize("response, judged", [
    ('{"score": 0.25, "logs": null}', (0.25, None)),
    ('{"score": true, "logs": null}', (1.0, None)),
    ('{"score": "0.5", "logs": null}', (0.0, "malformed answer '0.5'")),
    ('{"score": null, "logs": null}', (0.0, "malformed answer None")),
    ('{"logs": null}', (0.0, "EvaluatorError: malformed evaluator response: 'score'")),
])
def test_command_evaluator_score_is_judged_by_score_task(tmp_path, response, judged):
    evaluator = CommandEvaluator(
        ["/bin/sh", "-c", 'cat >/dev/null; printf "%s\\n" "$1"', "sh", response]
    )
    assert score_task(evaluator, "t", str(tmp_path), LIMITS) == judged


def test_command_evaluator_nonzero_exit_raises():
    evaluator = CommandEvaluator([sys.executable, "-c", "import sys; sys.exit(3)"])
    with pytest.raises(EvaluatorError, match="exited 3"):
        evaluator("t", "p", LIMITS)


def test_command_evaluator_spawn_failure_is_a_task_failure(tmp_path):
    script = tmp_path / "evaluate.sh"
    script.write_text("#!/bin/sh\necho '{\"score\": 1.0}'\n")
    script.chmod(0o644)  # not executable: nothing can be spawned
    score, cause = score_task(CommandEvaluator([str(script)]), "t", str(tmp_path), LIMITS)
    assert score == 0.0
    assert cause.startswith("EvaluatorError: failed to spawn"), cause


def test_command_evaluator_timeout_raises():
    limits = SandboxLimits(wall_clock_seconds=0.5, cpu_seconds=5, max_output_bytes=1000)
    evaluator = CommandEvaluator([sys.executable, "-c", "import time; time.sleep(30)"])
    with pytest.raises(EvaluatorTimeout, match="timed out"):
        evaluator("t", "p", limits)


def test_command_evaluator_through_staged_evaluate(tmp_path):
    # non-zero exits map to per-task zeros inside the staged protocol
    code = (
        "import json,sys;"
        "req=json.load(sys.stdin);"
        "sys.exit(1) if req['task_id'].endswith('0') else"
        " print(json.dumps({'score': 1.0, 'logs': None}))"
    )
    domain = make_domain(n_tasks=4, subset=2)
    evaluator = CommandEvaluator([sys.executable, "-c", code])
    report = staged_evaluate(str(tmp_path), domain, evaluator, LIMITS)
    assert report.per_task[domain.task_ids[0]] == 0.0
    assert report.aggregate == pytest.approx(3 / 4)


def test_evaluate_full_is_gate_free():
    report = evaluate_full("p", ("a", "b"), lambda t, p, l: 0.0, LIMITS)
    assert not report.gated_out
    assert report.aggregate == 0.0


def test_concurrent_task_evaluation_matches_serial():
    domain = make_domain(n_tasks=8, subset=4)
    scores = {t: (i % 3) / 3 for i, t in enumerate(domain.task_ids)}
    serial = staged_evaluate("p", domain, scripted(scores), LIMITS, concurrency=1)
    parallel = staged_evaluate("p", domain, scripted(scores), LIMITS, concurrency=4)
    assert serial.per_task == parallel.per_task
    assert serial.aggregate == parallel.aggregate
