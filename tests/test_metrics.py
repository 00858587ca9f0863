from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evoarchive.metrics as metrics_mod
import oracles
from evoarchive.archive import AgentNode, Archive, add_node, replace_sole_node
from evoarchive.engine import replay_log, run
from evoarchive.evaluation import node_selection_score
from evoarchive.metrics import (
    GrowthScoreParams,
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

from conftest import make_node
from test_engine import make_config


# --- improvement@k -------------------------------------------------------------


def test_impk_all_equal_is_zero():
    assert improvement_at_k(0.4, (0.4, 0.4)) == 0.0


def test_impk_headline_value():
    assert improvement_at_k(0.0, (0.1, 0.63, 0.2)) == pytest.approx(0.63)


def test_impk_empty_generated_is_zero_by_convention():
    assert improvement_at_k(0.3, ()) == 0.0


def test_impk_can_be_negative():
    assert improvement_at_k(0.9, (0.1, 0.2)) == pytest.approx(-0.7)


def test_impk_matches_brute_force_on_1000_random_inputs():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        k = int(rng.integers(1, 60))
        n = int(rng.integers(0, k + 1))
        initial = float(rng.random())
        generated = tuple(float(v) for v in rng.random(n))
        oracles.assert_impk_matches(initial, generated)


def test_impk_input_validation():
    with pytest.raises(ValueError):
        improvement_at_k(float("nan"), ())
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="scores must be finite"):
            improvement_at_k(0.1, (0.2, bad))
    # numpy scalars are checked as the floats they hold
    improvement_at_k(np.float64(0.1), (np.float32(0.2), 1))


# --- growth score ----------------------------------------------------------------


def test_growth_single_child_equal_score_is_zero():
    arch = oracles.tree_archive([None, 0], [0.5, 0.5])
    assert growth_score(arch, 0, GrowthScoreParams(gamma=0.6)) == 0.0


def test_growth_chain_hand_value():
    arch = oracles.tree_archive([None, 0, 1], [0.0, 0.5, 1.0])
    params = GrowthScoreParams(gamma=0.5)
    # (0.5 * 0.5 + 1.0 * 0.25) / 2
    assert growth_score(arch, 0, params) == pytest.approx(0.25)
    assert oracles.growth_score(arch, 0, params) == pytest.approx(0.25)


def test_growth_gamma_one_is_plain_mean():
    arch = oracles.tree_archive([None, 0, 1], [0.2, 0.4, 0.9])
    expected = ((0.4 - 0.2) + (0.9 - 0.2)) / 2
    assert growth_score(arch, 0, GrowthScoreParams(gamma=1.0)) == pytest.approx(expected)


def test_growth_requires_descendants():
    arch = oracles.tree_archive([None, 0], [0.1, 0.2])
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
    arch = oracles.tree_archive([None, 0], [0.1, 0.2])
    with pytest.raises(ValueError):
        transfer_select(arch, GrowthScoreParams(min_descendants=3))


def test_transfer_and_growth_on_empty_archive_error():
    with pytest.raises(ValueError):
        transfer_select(Archive(), GrowthScoreParams())
    with pytest.raises(KeyError):
        growth_score(Archive(), 0, GrowthScoreParams())


def test_growth_unknown_node_is_key_error():
    arch = oracles.tree_archive([None, 0, 1], [0.1, 0.2, 0.3])
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
        arch = oracles.seeded_tree(rng, int(rng.integers(2, 13)))
        oracles.assert_growth_and_transfer_bits(arch, params)


@given(oracles.archives(), st.sampled_from([0.6, 0.37, 1.0]), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_growth_and_transfer_bits_on_drawn_archives(arch, gamma, min_descendants):
    oracles.assert_growth_and_transfer_bits(arch, GrowthScoreParams(gamma, min_descendants))


# --- bit-exactness against the original quadratic implementation --------------


@pytest.mark.parametrize("gamma", [0.6, 0.37, 1.0])
def test_growth_and_transfer_bit_identical_to_frozen_implementation(gamma):
    rng = np.random.default_rng(404)
    for window in (None, 4):  # bushy trees, then deep lineages
        for _ in range(25):
            arch = oracles.seeded_tree(rng, int(rng.integers(2, 201)), window)
            min_descendants = int(rng.integers(1, 6))
            params = GrowthScoreParams(gamma=gamma, min_descendants=min_descendants)
            oracles.assert_growth_and_transfer_bits(arch, params)
    # 1,000 nodes, depth about 35 and mean depth about 17: near the archive of
    # the benchmark's analytics workload (depth 30, mean depth 17.3)
    arch = oracles.seeded_tree(rng, 1000, window=70)
    oracles.assert_growth_and_transfer_bits(arch, GrowthScoreParams(gamma=gamma))


def test_growth_terms_underflowing_to_signed_zero_match_frozen():
    # 0.37**dist underflows to 0.0 from dist 750 on, so the deepest terms
    # of a falling chain are -0.0: the sum must keep its order and its
    # zeros' signs.
    arch = oracles.tree_archive([None, *range(800)], [0.5] + [0.25] * 800)
    params = GrowthScoreParams(gamma=0.37, min_descendants=1)
    for node_id in (0, 1, 100, 799):
        assert repr(growth_score(arch, node_id, params)) == repr(
            oracles.growth_score(arch, node_id, params)
        )


@pytest.mark.parametrize("gamma", [0.6, 0.37])
def test_growth_and_transfer_on_a_300_deep_chain_match_frozen(gamma):
    scores = np.random.default_rng(300).random(301).tolist()
    arch = oracles.tree_archive([None, *range(300)], scores)
    oracles.assert_growth_and_transfer_bits(arch, GrowthScoreParams(gamma=gamma))


def test_growth_and_transfer_on_a_sole_node_with_a_nonzero_id_raise_like_frozen():
    # a no-open-ended archive keeps only its latest agent, under that agent's id
    arch = Archive(mode_tag="no-open-ended")
    add_node(arch, make_node(0, None, score=0.25))
    replace_sole_node(arch, make_node(7, 0, score=0.75))
    params = GrowthScoreParams(min_descendants=1)
    for growth in (oracles.growth_score, growth_score):
        with pytest.raises(ValueError, match="node 7 has no descendants"):
            growth(arch, 7, params)
    assert oracles.transfer_select(arch, params) is None
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
    assert transfer_select(arch, params) == oracles.transfer_select(arch, params) == 1


def test_transfer_ranks_totals_summed_in_ascending_id_order():
    arch, params = oracles.one_ulp_tie()
    assert growth_score(arch, 1, params) > growth_score(arch, 2, params)
    assert transfer_select(arch, params) == oracles.transfer_select(arch, params) == 1


def test_transfer_scores_each_node_once(monkeypatch):
    calls = 0

    def counting(node):
        nonlocal calls
        calls += 1
        return node_selection_score(node)

    arch = oracles.seeded_tree(np.random.default_rng(505), 2000)
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
    oracles.assert_bootstrap_bits(samples.tolist(), 3, "chunks", resamples, statistic=statistic)


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
    oracles.assert_bootstrap_bits(samples, 5, shape, resamples, level)


def test_bootstrap_medians_bit_equal_on_random_inputs():
    rng = np.random.default_rng(606)
    for case in range(200):
        size = int(rng.integers(1, 80))
        samples = rng.choice(rng.random(int(rng.integers(1, size + 1))), size).tolist()
        resamples = int(rng.integers(1, 150))
        level = float(rng.choice([50.0, 90.0, 95.0, 99.9]))
        oracles.assert_bootstrap_bits(samples, case, "random", resamples, level)


@pytest.mark.parametrize("size, resamples", [(1000, 1000), (1001, 1000), (4290, 1000),
                                             (70000, 3)])
def test_bootstrap_medians_bit_equal_at_real_sizes(size, resamples):
    # 70,000 samples take ranks above 2**16; ties come from drawing the
    # samples from half as many values
    rng = np.random.default_rng(size)
    samples = rng.choice(rng.random(size // 2), size).tolist()
    oracles.assert_bootstrap_bits(samples, 7, "sizes", resamples)
    # every resampled median, not only the two the bounds interpolate
    data = np.asarray(samples)
    medians = metrics_mod._bootstrap_medians(data, substream(7, "sizes"), resamples)
    expected = oracles.bootstrap_medians(data, substream(7, "sizes"), resamples)
    assert medians.tobytes() == expected.tobytes()


def test_bootstrap_sample_with_nan_keeps_np_median_nan():
    # np.median of a row that draws the NaN is NaN, so the bounds are NaN;
    # an order statistic read off sorted ranks would be finite.
    samples = np.random.default_rng(11).random(50)
    samples[17] = np.nan
    got = oracles.assert_bootstrap_bits(samples.tolist(), 2, "nan", 20)
    assert np.isnan(got[1]) and np.isnan(got[2])


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
    got = oracles.assert_bootstrap_bits(samples.tolist(), seed, "nan", resamples)
    assert np.isnan(got[0]) and np.isnan(got[1]) == np.isnan(got[2]) == drawn
    # every resampled median, not only the two the bounds interpolate
    medians = metrics_mod._bootstrap_medians(samples, substream(seed, "nan"), resamples)
    np.testing.assert_array_equal(
        medians, oracles.bootstrap_medians(samples, substream(seed, "nan"), resamples))


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
    replayed = replay_log(state.event_log)
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
