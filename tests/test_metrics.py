from __future__ import annotations

import csv
from typing import Optional

import numpy as np
import pytest

import evoarchive.metrics as metrics_mod
from evoarchive.archive import AgentNode, Archive, add_node, replace_sole_node
from evoarchive.engine import replay_log, run
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
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="scores must be finite"):
            ImpAtKRequest(0.1, (0.2, bad), k=2)
    # numpy scalars are checked as the floats they hold
    ImpAtKRequest(np.float64(0.1), (np.float32(0.2), 1), k=2)


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


def test_transfer_and_growth_on_empty_archive_error():
    with pytest.raises(ValueError):
        transfer_select(Archive(), GrowthScoreParams())
    with pytest.raises(KeyError):
        growth_score(Archive(), 0, GrowthScoreParams())


def test_growth_unknown_node_is_key_error():
    arch = chain_archive([0.1, 0.2, 0.3])
    with pytest.raises(KeyError):
        growth_score(arch, 3, GrowthScoreParams())


def test_growth_scores_only_the_subtree():
    # a node outside the subtree without an evaluation record is not read
    arch = Archive()
    add_node(arch, AgentNode(0, None, "payload/0", compiled=True))
    add_node(arch, make_node(1, 0, score=0.2))
    add_node(arch, make_node(2, 1, score=0.4))
    assert arch.nodes[0].selection_score is None
    params = GrowthScoreParams(gamma=0.5)
    assert growth_score(arch, 1, params) == (0.4 - 0.2) * 0.5


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


def deep_tree_archive(rng: np.random.Generator, size: int, window: int = 4) -> Archive:
    """Random tree whose parents are drawn from the last `window` nodes: deep lineages."""
    arch = Archive(mode_tag="full")
    add_node(arch, make_node(0, None, score=float(rng.random())))
    for node_id in range(1, size):
        parent = int(rng.integers(max(0, node_id - window), node_id))
        add_node(arch, make_node(node_id, parent, score=float(rng.random())))
    return arch


def analytics_shaped_archive(rng: np.random.Generator) -> Archive:
    """1,000 nodes, depth about 35 and mean depth about 17: near the archive
    of the benchmark's analytics workload (depth 30, mean depth 17.3)."""
    return deep_tree_archive(rng, 1000, window=70)


def assert_growth_and_transfer_match_frozen(arch: Archive, params: GrowthScoreParams) -> None:
    for node in arch.nodes:
        if _scan_children(arch, node.id):
            assert repr(growth_score(arch, node.id, params)) == repr(
                frozen_growth_score(arch, node.id, params)
            )
    expected = frozen_transfer_select(arch, params)
    if expected is None:
        with pytest.raises(ValueError):
            transfer_select(arch, params)
    else:
        assert transfer_select(arch, params) == expected


@pytest.mark.parametrize("gamma", [0.6, 0.37, 1.0])
def test_growth_and_transfer_bit_identical_to_frozen_implementation(gamma):
    rng = np.random.default_rng(404)
    for shape in (random_tree_archive, deep_tree_archive):
        for _ in range(25):
            arch = shape(rng, int(rng.integers(2, 201)))
            min_descendants = int(rng.integers(1, 6))
            params = GrowthScoreParams(gamma=gamma, min_descendants=min_descendants)
            assert_growth_and_transfer_match_frozen(arch, params)
    arch = analytics_shaped_archive(rng)
    assert_growth_and_transfer_match_frozen(arch, GrowthScoreParams(gamma=gamma))


def test_growth_terms_underflowing_to_signed_zero_match_frozen():
    # 0.37**dist underflows to 0.0 from dist 750 on, so the deepest terms
    # of a falling chain are -0.0: the sum must keep its order and its
    # zeros' signs.
    arch = chain_archive([0.5] + [0.25] * 800)
    params = GrowthScoreParams(gamma=0.37, min_descendants=1)
    for node_id in (0, 1, 100, 799):
        assert repr(growth_score(arch, node_id, params)) == repr(
            frozen_growth_score(arch, node_id, params)
        )


@pytest.mark.parametrize("gamma", [0.6, 0.37])
def test_growth_and_transfer_on_a_300_deep_chain_match_frozen(gamma):
    scores = np.random.default_rng(300).random(301).tolist()
    assert_growth_and_transfer_match_frozen(chain_archive(scores), GrowthScoreParams(gamma=gamma))


def test_growth_and_transfer_on_a_sole_node_with_a_nonzero_id_raise_like_frozen():
    # a no-open-ended archive keeps only its latest agent, under that agent's id
    arch = Archive(mode_tag="no-open-ended")
    add_node(arch, make_node(0, None, score=0.25))
    replace_sole_node(arch, make_node(7, 0, score=0.75))
    params = GrowthScoreParams(min_descendants=1)
    for growth in (frozen_growth_score, growth_score):
        with pytest.raises(ValueError, match="node 7 has no descendants"):
            growth(arch, 7, params)
    assert frozen_transfer_select(arch, params) is None
    with pytest.raises(ValueError, match="at least 1 descendants"):
        transfer_select(arch, params)


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


def test_transfer_ranks_totals_summed_in_ascending_id_order():
    # nodes 1 and 2 have the same terms, 0.1, 0.2 and 0.3, in opposite id
    # orders: (0.1 + 0.2) + 0.3 rounds one ulp above (0.3 + 0.2) + 0.1
    arch = Archive()
    add_node(arch, make_node(0, None, score=0.0))
    add_node(arch, make_node(1, 0, score=0.0))
    add_node(arch, make_node(2, 0, score=0.0))
    for node_id, parent, score in ((3, 1, 0.1), (4, 1, 0.2), (5, 1, 0.3),
                                   (6, 2, 0.3), (7, 2, 0.2), (8, 2, 0.1)):
        add_node(arch, make_node(node_id, parent, score=score))
    params = GrowthScoreParams(gamma=1.0, min_descendants=3)
    assert growth_score(arch, 1, params) > growth_score(arch, 2, params)
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


@pytest.mark.parametrize("resamples", [0, -3])
def test_bootstrap_rejects_no_resamples(resamples):
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_ci([0.1, 0.2], substream(1, "x"), resamples=resamples)


def test_bootstrap_level_shrinks_interval():
    samples = np.random.default_rng(5).random(30).tolist()
    _, low95, high95 = bootstrap_ci(samples, substream(4, "a"), level=95.0)
    _, low50, high50 = bootstrap_ci(samples, substream(4, "a"), level=50.0)
    assert high50 - low50 <= high95 - low95


def one_shot_bootstrap(samples, rng, resamples, statistic=np.median, level=95.0):
    """Oracle: the bootstrap with every resampled row drawn in one int64 call
    and each row's median taken by `np.median`."""
    data = np.asarray(samples, dtype=float)
    indices = rng.integers(0, data.size, size=(resamples, data.size))
    if statistic is np.median:
        stats = np.median(data[indices], axis=1)
    else:
        stats = np.apply_along_axis(statistic, 1, data[indices])
    tail = (100.0 - level) / 2.0
    lower, upper = np.percentile(stats, [tail, 100.0 - tail])
    return float(statistic(data)), float(lower), float(upper)


# the oracle takes the medians of all rows at once, or row by row on samples
# holding a NaN
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("statistic", [np.median, lambda row: float(np.median(row))])
@pytest.mark.parametrize("extra", [-1, 1, 7, 45])
@pytest.mark.parametrize("size", [1, 2, 37, 38, 1000])
def test_bootstrap_chunks_equal_one_shot_draws(statistic, extra, size):
    resamples = 2 * metrics_mod._BOOTSTRAP_CHUNK_ROWS + extra
    samples = np.random.default_rng(size).random(size)
    if statistic is not np.median:
        samples[size // 2] = np.nan
    chunked = bootstrap_ci(samples.tolist(), substream(3, "chunks"), resamples)
    expected = one_shot_bootstrap(samples.tolist(), substream(3, "chunks"), resamples,
                                  statistic)
    assert repr(chunked) == repr(expected)


SAMPLE_SHAPES = {
    "odd": lambda rng: rng.random(25),
    "even": lambda rng: rng.random(24),
    "one": lambda rng: rng.random(1),
    "heavy-ties": lambda rng: rng.integers(0, 3, 40) / 2.0,
    "all-equal": lambda rng: np.full(9, 0.3),
    "infinities": lambda rng: rng.choice([-np.inf, np.inf, 0.0, 0.5, 1.0], 30),
    "signed-zeros": lambda rng: rng.choice([-0.0, 0.0], 12),
    "negative-zeros": lambda rng: np.full(7, -0.0),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("level", [50.0, 95.0, 99.9])
@pytest.mark.parametrize("resamples", [1, 31, 33, 100])
@pytest.mark.parametrize("shape", sorted(SAMPLE_SHAPES))
def test_bootstrap_medians_bit_equal_to_np_median_rows(shape, resamples, level):
    samples = SAMPLE_SHAPES[shape](np.random.default_rng(len(shape))).tolist()
    got = bootstrap_ci(samples, substream(5, shape), resamples, level=level)
    expected = one_shot_bootstrap(samples, substream(5, shape), resamples, level=level)
    assert repr(got) == repr(expected)


def test_bootstrap_medians_bit_equal_on_random_inputs():
    rng = np.random.default_rng(606)
    for case in range(200):
        size = int(rng.integers(1, 80))
        samples = rng.choice(rng.random(int(rng.integers(1, size + 1))), size).tolist()
        resamples = int(rng.integers(1, 150))
        level = float(rng.choice([50.0, 90.0, 95.0, 99.9]))
        got = bootstrap_ci(samples, substream(case, "random"), resamples, level=level)
        expected = one_shot_bootstrap(samples, substream(case, "random"), resamples,
                                      level=level)
        assert repr(got) == repr(expected)


@pytest.mark.parametrize("size, resamples", [(1000, 1000), (1001, 1000), (4290, 1000),
                                             (70000, 3)])
def test_bootstrap_medians_bit_equal_at_real_sizes(size, resamples):
    # 70,000 samples take ranks above 2**16; ties come from drawing the
    # samples from half as many values
    rng = np.random.default_rng(size)
    samples = rng.choice(rng.random(size // 2), size).tolist()
    got = bootstrap_ci(samples, substream(7, "sizes"), resamples)
    expected = one_shot_bootstrap(samples, substream(7, "sizes"), resamples)
    assert repr(got) == repr(expected)
    # every resampled median, not only the two the bounds interpolate
    data = np.asarray(samples)
    medians = metrics_mod._bootstrap_medians(data, substream(7, "sizes"), resamples)
    rows = data[substream(7, "sizes").integers(0, size, size=(resamples, size))]
    assert medians.tobytes() == np.median(rows, axis=1).tobytes()


def test_bootstrap_sample_with_nan_keeps_np_median_nan():
    # np.median of a row that draws the NaN is NaN, so the bounds are NaN;
    # an order statistic read off sorted ranks would be finite.
    samples = np.random.default_rng(11).random(50)
    samples[17] = np.nan
    got = bootstrap_ci(samples.tolist(), substream(2, "nan"), 20)
    expected = one_shot_bootstrap(samples.tolist(), substream(2, "nan"), 20)
    assert np.isnan(got[1]) and np.isnan(got[2])
    assert repr(got) == repr(expected)


# size, NaN positions, resamples, stream seed, and whether a resampled row draws a NaN
NAN_SETS = {
    "one NaN, drawn": (40, [17], 50, 1, True),
    "one NaN, never drawn": (40, [17], 3, 19, False),
    "two NaNs, drawn": (40, [3, 29], 50, 1, True),
    "two NaNs, never drawn": (40, [3, 29], 2, 116, False),
    "only NaNs": (5, [0, 1, 2, 3, 4], 10, 1, True),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("name", sorted(NAN_SETS))
def test_bootstrap_nan_sets_equal_one_shot_draws(name):
    # the point is NaN; the bounds are NaN exactly when some row draws a NaN
    size, nans, resamples, seed, drawn = NAN_SETS[name]
    samples = np.random.default_rng(size).random(size)
    samples[nans] = np.nan
    got = bootstrap_ci(samples.tolist(), substream(seed, "nan"), resamples)
    expected = one_shot_bootstrap(samples.tolist(), substream(seed, "nan"), resamples)
    assert repr(got) == repr(expected)
    assert np.isnan(got[0]) and np.isnan(got[1]) == np.isnan(got[2]) == drawn
    # every resampled median, not only the two the bounds interpolate
    medians = metrics_mod._bootstrap_medians(samples, substream(seed, "nan"), resamples)
    rows = samples[substream(seed, "nan").integers(0, size, size=(resamples, size))]
    np.testing.assert_array_equal(medians, np.median(rows, axis=1))


@pytest.mark.parametrize("high", [1, 2, 7, 1000, 123457])
def test_int32_draws_equal_int64_draws(high):
    # `bootstrap_ci` draws its median rows as int32; they must be the values
    # (and leave the generator in the state) of the int64 draws it replaced.
    wide, narrow = substream(8, "draws"), substream(8, "draws")
    for shape in ((3, 5), (32, 1000), (7,)):
        expected = wide.integers(0, high, size=shape)
        got = narrow.integers(0, high, size=shape, dtype=np.int32)
        assert np.array_equal(got, expected)
    assert wide.bit_generator.state == narrow.bit_generator.state


# --- progress series -------------------------------------------------------------------


def test_single_node_run_flat_series(tmp_path):
    config = make_config(tmp_path, iterations=2, initial={
        "task_skill": [0.0, 0.0], "meta_capability": 0.3, "compile_probability": 0.0,
    })
    state = run(config)
    series = progress_series(state.archived, state.iteration)
    root_score = state.archive.node(0).scores["landscape"].train
    assert series.best_so_far == [root_score] * 3
    assert series.avg_compiled == [root_score] * 3


def test_best_so_far_non_decreasing_and_avg_in_range(tmp_path):
    state = run(make_config(tmp_path, iterations=10, seed=5))
    series = progress_series(state.archived, state.iteration)
    assert len(series.best_so_far) == 11
    for earlier, later in zip(series.best_so_far, series.best_so_far[1:]):
        assert later >= earlier
    assert all(0.0 <= v <= 1.0 for v in series.avg_compiled)


def series_from_archive(arch: Archive, iterations: int) -> metrics_mod.ProgressSeries:
    """Oracle: the series recomputed from an archive, one iteration at a time.
    Scores add in id order, which is add order and iteration order."""
    best_so_far, avg = [], []
    for t in range(iterations + 1):
        present = [node_selection_score(n) for n in arch if n.created_at_iteration <= t]
        total = 0
        for score in present:
            total += score
        best_so_far.append(max(present))
        avg.append(total / len(present))
    return metrics_mod.ProgressSeries(best_so_far, avg)


def test_series_from_log_equals_series_from_archive(tmp_path):
    config = make_config(tmp_path, iterations=10, seed=6)
    state = run(config)
    replayed = replay_log(state.event_log)[0]
    from_log = progress_series(replayed.archived, replayed.iteration)
    from_archive = series_from_archive(state.archive, config.iterations)
    assert from_log == from_archive


# --- exports ------------------------------------------------------------------------


def test_progress_csv_row_count(tmp_path):
    state = run(make_config(tmp_path, iterations=7))
    series = progress_series(state.archived, state.iteration)
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
