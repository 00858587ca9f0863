from __future__ import annotations

import csv
from typing import Optional

import numpy as np
import pytest

import evoarchive.metrics as metrics_mod
from evoarchive.archive import Archive, add_node, lineage
from evoarchive.engine import run
from evoarchive.evaluation import node_selection_score
from evoarchive.metrics import (
    GrowthScoreParams,
    ImpAtKRequest,
    bootstrap_ci,
    export_progress_csv,
    export_scalars_csv,
    export_tree_dot,
    growth_score,
    improvement_at_k,
    progress_series,
    progress_series_from_archive,
    transfer_select,
)
from evoarchive.rng import substream

from conftest import make_node, random_tree_archive
from test_engine import make_config


# --- brute-force oracles ------------------------------------------------------


def brute_improvement(initial: float, generated: list[float]) -> float:
    if not generated:
        return 0.0
    best = generated[0]
    for value in generated[1:]:
        if value > best:
            best = value
    return best - initial


def brute_descendants(arch: Archive, i: int) -> list[int]:
    out = []
    for node in arch.nodes:
        j = node.id
        if j == i:
            continue
        current = node.parent_id
        while current is not None:
            if current == i:
                out.append(j)
                break
            current = arch.node(current).parent_id
    return out


def brute_growth(arch: Archive, i: int, gamma: float) -> float:
    def score(node_id):
        return arch.node(node_id).scores["main"].train

    def depth(node_id):
        d, current = 0, arch.node(node_id).parent_id
        while current is not None:
            d, current = d + 1, arch.node(current).parent_id
        return d

    offspring = brute_descendants(arch, i)
    total = sum((score(j) - score(i)) * gamma ** (depth(j) - depth(i)) for j in offspring)
    return total / len(offspring)


def brute_transfer(arch: Archive, gamma: float, min_descendants: int) -> int | None:
    best_id, best = None, -float("inf")
    for node in arch.nodes:
        offspring = brute_descendants(arch, node.id)
        if len(offspring) < min_descendants:
            continue
        g = brute_growth(arch, node.id, gamma)
        if g > best:
            best_id, best = node.id, g
    return best_id


# --- improvement@k -------------------------------------------------------------


def test_impk_all_equal_is_zero():
    request = ImpAtKRequest(initial_score=0.4, generated_scores=(0.4, 0.4), k=5)
    assert improvement_at_k(request) == 0.0


def test_impk_headline_value():
    request = ImpAtKRequest(initial_score=0.0, generated_scores=(0.1, 0.63, 0.2), k=50)
    assert improvement_at_k(request) == pytest.approx(0.63)


def test_impk_empty_generated_is_zero_by_convention():
    assert improvement_at_k(ImpAtKRequest(0.3, (), k=10)) == 0.0


def test_impk_can_be_negative():
    assert improvement_at_k(ImpAtKRequest(0.9, (0.1, 0.2), k=2)) == pytest.approx(-0.7)


def test_impk_matches_brute_force_on_1000_random_inputs():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        k = int(rng.integers(1, 60))
        n = int(rng.integers(0, k + 1))
        initial = float(rng.random())
        generated = tuple(float(v) for v in rng.random(n))
        request = ImpAtKRequest(initial, generated, k)
        assert improvement_at_k(request) == brute_improvement(initial, list(generated))


def test_impk_request_validation():
    with pytest.raises(ValueError):
        ImpAtKRequest(0.1, (0.2, 0.3), k=1)
    with pytest.raises(ValueError):
        ImpAtKRequest(float("nan"), (), k=1)


# --- growth score ----------------------------------------------------------------


def chain_archive(scores: list[float]) -> Archive:
    arch = Archive()
    add_node(arch, make_node(0, None, score=scores[0]))
    for i, s in enumerate(scores[1:], start=1):
        add_node(arch, make_node(i, i - 1, score=s))
    return arch


def test_growth_single_child_equal_score_is_zero():
    arch = chain_archive([0.5, 0.5])
    assert growth_score(arch, 0, GrowthScoreParams(gamma=0.6)) == 0.0


def test_growth_chain_hand_value():
    arch = chain_archive([0.0, 0.5, 1.0])
    params = GrowthScoreParams(gamma=0.5)
    # (0.5 * 0.5 + 1.0 * 0.25) / 2
    assert growth_score(arch, 0, params) == pytest.approx(0.25)
    assert brute_growth(arch, 0, 0.5) == pytest.approx(0.25)


def test_growth_gamma_one_is_plain_mean():
    arch = chain_archive([0.2, 0.4, 0.9])
    expected = ((0.4 - 0.2) + (0.9 - 0.2)) / 2
    assert growth_score(arch, 0, GrowthScoreParams(gamma=1.0)) == pytest.approx(expected)


def test_growth_requires_descendants():
    arch = chain_archive([0.1, 0.2])
    with pytest.raises(ValueError):
        growth_score(arch, 1, GrowthScoreParams())


def test_growth_params_validation():
    with pytest.raises(ValueError):
        GrowthScoreParams(gamma=0.0)
    with pytest.raises(ValueError):
        GrowthScoreParams(gamma=1.2)
    with pytest.raises(ValueError):
        GrowthScoreParams(min_descendants=0)


# --- transfer selection -------------------------------------------------------------


def test_transfer_root_only_eligible():
    arch = Archive()
    add_node(arch, make_node(0, None, score=0.1))
    for i in (1, 2, 3):
        add_node(arch, make_node(i, 0, score=0.5))
    assert transfer_select(arch, GrowthScoreParams()) == 0


def test_transfer_tie_breaks_low_id():
    # two subtrees with identical improvement patterns
    arch = Archive()
    add_node(arch, make_node(0, None, score=0.0))
    add_node(arch, make_node(1, 0, score=0.0))
    add_node(arch, make_node(2, 0, score=0.0))
    for parent, start in ((1, 3), (2, 6)):
        for offset in range(3):
            add_node(arch, make_node(start + offset, parent, score=0.5))
    params = GrowthScoreParams(gamma=0.6, min_descendants=3)
    assert growth_score(arch, 1, params) == pytest.approx(growth_score(arch, 2, params))
    assert transfer_select(arch, params) == 1


def test_transfer_no_eligible_node_errors():
    arch = chain_archive([0.1, 0.2])
    with pytest.raises(ValueError):
        transfer_select(arch, GrowthScoreParams(min_descendants=3))


def test_growth_and_transfer_match_brute_force_on_500_trees():
    rng = np.random.default_rng(202)
    params = GrowthScoreParams(gamma=0.6, min_descendants=3)
    for _ in range(500):
        size = int(rng.integers(2, 13))
        arch = random_tree_archive(rng, size)
        for node in arch.nodes:
            if brute_descendants(arch, node.id):
                assert growth_score(arch, node.id, params) == pytest.approx(
                    brute_growth(arch, node.id, 0.6), abs=1e-12
                )
        expected = brute_transfer(arch, 0.6, 3)
        if expected is None:
            with pytest.raises(ValueError):
                transfer_select(arch, params)
        else:
            assert transfer_select(arch, params) == expected


# --- bit-exactness against the original quadratic implementation --------------


def _scan_children(arch: Archive, node_id: int) -> list[int]:
    return [n.id for n in arch.nodes if n.parent_id == node_id]


def _scan_descendants(arch: Archive, node_id: int) -> set[int]:
    out: set[int] = set()
    frontier = [node_id]
    while frontier:
        for child in _scan_children(arch, frontier.pop()):
            if child not in out:
                out.add(child)
                frontier.append(child)
    return out


def _walk_distance(arch: Archive, ancestor: int, descendant: int) -> int:
    steps, current = 0, descendant
    while current != ancestor:
        current, steps = arch.node(current).parent_id, steps + 1
    return steps


def frozen_growth_score(arch: Archive, node_id: int, params: GrowthScoreParams) -> float:
    """growth_score as first released: every float operation in its order."""
    offspring = _scan_descendants(arch, node_id)
    if not offspring:
        raise ValueError(f"node {node_id} has no descendants")
    base = node_selection_score(arch.node(node_id))
    total = 0.0
    for j in sorted(offspring):
        delta = node_selection_score(arch.node(j)) - base
        total += delta * params.gamma ** _walk_distance(arch, node_id, j)
    return total / len(offspring)


def frozen_transfer_select(arch: Archive, params: GrowthScoreParams) -> Optional[int]:
    """transfer_select as first released; None where it raised ValueError."""
    best_id: Optional[int] = None
    best_score = -np.inf
    for node in arch:
        if len(_scan_descendants(arch, node.id)) < params.min_descendants:
            continue
        score = frozen_growth_score(arch, node.id, params)
        if score > best_score:
            best_id, best_score = node.id, score
    return best_id


def deep_tree_archive(rng: np.random.Generator, size: int) -> Archive:
    """Random tree whose parents are drawn from the last few nodes: deep lineages."""
    arch = Archive(mode_tag="full")
    add_node(arch, make_node(0, None, score=float(rng.random())))
    for node_id in range(1, size):
        parent = int(rng.integers(max(0, node_id - 4), node_id))
        add_node(arch, make_node(node_id, parent, score=float(rng.random())))
    return arch


@pytest.mark.parametrize("gamma", [0.6, 0.37, 1.0])
def test_growth_and_transfer_bit_identical_to_frozen_implementation(gamma):
    rng = np.random.default_rng(404)
    for shape in (random_tree_archive, deep_tree_archive):
        for _ in range(25):
            arch = shape(rng, int(rng.integers(2, 201)))
            min_descendants = int(rng.integers(1, 6))
            params = GrowthScoreParams(gamma=gamma, min_descendants=min_descendants)
            for node in arch.nodes:
                if _scan_children(arch, node.id):
                    assert growth_score(arch, node.id, params) == frozen_growth_score(
                        arch, node.id, params
                    )
            expected = frozen_transfer_select(arch, params)
            if expected is None:
                with pytest.raises(ValueError):
                    transfer_select(arch, params)
            else:
                assert transfer_select(arch, params) == expected


def test_transfer_exact_tie_picks_lowest_id():
    # nodes 1 and 2 root identical subtrees; 2's children get the lower ids
    arch = Archive()
    add_node(arch, make_node(0, None, score=0.5))
    add_node(arch, make_node(1, 0, score=0.25))
    add_node(arch, make_node(2, 0, score=0.25))
    for node_id, parent in ((3, 2), (4, 2), (5, 1), (6, 2), (7, 1), (8, 1)):
        add_node(arch, make_node(node_id, parent, score=0.75))
    params = GrowthScoreParams(gamma=0.6, min_descendants=3)
    assert growth_score(arch, 1, params) == growth_score(arch, 2, params)
    assert growth_score(arch, 1, params) > growth_score(arch, 0, params)
    assert transfer_select(arch, params) == frozen_transfer_select(arch, params) == 1


def test_transfer_scores_each_node_once(monkeypatch):
    calls = 0

    def counting(node):
        nonlocal calls
        calls += 1
        return node_selection_score(node)

    arch = random_tree_archive(np.random.default_rng(505), 2000)
    monkeypatch.setattr(metrics_mod, "node_selection_score", counting)
    transfer_select(arch, GrowthScoreParams())
    assert calls == len(arch) == 2000


# --- bootstrap -----------------------------------------------------------------------


def test_bootstrap_constant_samples_degenerate():
    median, lower, upper = bootstrap_ci([0.3] * 5, substream(1, "ci"))
    assert (median, lower, upper) == (0.3, 0.3, 0.3)


def test_bootstrap_fixed_seed_replays():
    samples = [0.1, 0.2, 0.3, 0.4, 0.5]
    first = bootstrap_ci(samples, substream(9, "ci"))
    second = bootstrap_ci(samples, substream(9, "ci"))
    assert first == second
    assert first[1] <= first[0] <= first[2]
    # frozen from a seeded run; any change here is an algorithm change
    assert first == (0.3, 0.1, 0.5)


def test_bootstrap_fixed_seed_frozen_interior_bounds():
    # larger sample so the seeded bounds land strictly inside the range
    samples = [0.05 * i for i in range(1, 26)]
    got = bootstrap_ci(samples, substream(9, "ci"))
    assert got == (0.65, 0.4, 0.9)


def test_bootstrap_bounds_bracket_median():
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        samples = rng.random(n).tolist()
        median, lower, upper = bootstrap_ci(samples, substream(int(rng.integers(1 << 30)), "b"))
        assert lower <= median <= upper


def test_bootstrap_rejects_empty():
    with pytest.raises(ValueError):
        bootstrap_ci([], substream(1, "x"))


def test_bootstrap_level_shrinks_interval():
    samples = np.random.default_rng(5).random(30).tolist()
    _, low95, high95 = bootstrap_ci(samples, substream(4, "a"), level=95.0)
    _, low50, high50 = bootstrap_ci(samples, substream(4, "a"), level=50.0)
    assert high50 - low50 <= high95 - low95


# --- progress series -------------------------------------------------------------------


def test_single_node_run_flat_series(tmp_path):
    config = make_config(tmp_path, iterations=2, initial={
        "task_skill": [0.0, 0.0], "meta_capability": 0.3, "compile_probability": 0.0,
    })
    state = run(config)
    series = progress_series(state.event_log)
    root_score = state.archive.node(0).scores["landscape"].train
    assert series.best_so_far == [root_score] * 3
    assert series.avg_compiled == [root_score] * 3
    assert series.best_lineage == [0]


def test_best_so_far_non_decreasing_and_avg_in_range(tmp_path):
    state = run(make_config(tmp_path, iterations=10, seed=5))
    series = progress_series(state.event_log)
    assert len(series.best_so_far) == 11
    for earlier, later in zip(series.best_so_far, series.best_so_far[1:]):
        assert later >= earlier
    assert all(0.0 <= v <= 1.0 for v in series.avg_compiled)


def test_series_from_log_equals_series_from_archive(tmp_path):
    config = make_config(tmp_path, iterations=10, seed=6)
    state = run(config)
    from_log = progress_series(state.event_log)
    from_archive = progress_series_from_archive(state.archive, config.iterations)
    assert from_log.best_so_far == from_archive.best_so_far
    assert from_log.avg_compiled == from_archive.avg_compiled
    assert from_log.best_lineage == from_archive.best_lineage
    assert from_archive.best_lineage == lineage(
        state.archive, from_archive.best_lineage[-1]
    )


# --- exports ------------------------------------------------------------------------


def test_progress_csv_row_count(tmp_path):
    state = run(make_config(tmp_path, iterations=7))
    series = progress_series(state.event_log)
    out = tmp_path / "progress.csv"
    export_progress_csv(series, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "best_so_far", "avg_compiled"]
    assert len(rows) - 1 == 7 + 1


def test_tree_dot_counts(tmp_path):
    arch = Archive()
    add_node(arch, make_node(0, None))
    for i in range(1, 5):
        add_node(arch, make_node(i, i - 1))
    out = tmp_path / "tree.dot"
    export_tree_dot(arch, out)
    text = out.read_text()
    assert text.count("[label=") == 5
    assert text.count("->") == 4


def test_scalars_csv(tmp_path):
    out = tmp_path / "s.csv"
    export_scalars_csv([{"a": 1, "b": "x"}], out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"a": "1", "b": "x"}]
    with pytest.raises(ValueError):
        export_scalars_csv([], out)
