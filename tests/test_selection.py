from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evoarchive.archive import Archive
from evoarchive.evaluation import node_selection_score
from evoarchive.rng import substream
from evoarchive.selection import (
    POLICY_KEYS,
    VARIANTS,
    SelectionPolicy,
    dynamic_midpoint,
    sample_parents,
    selection_distribution,
    weights_to_distribution,
)

from oracles import (
    archives,
    assert_policy_document,
    assert_score_child_prop_bits,
    assert_softmax_bits,
    assert_ucb_bits,
    assert_uniform_random_bits,
    novelty_bonus,
    sigmoid_transform,
)

SCP = SelectionPolicy(variant="score-child-prop")


# --- dynamic_midpoint -----------------------------------------------------------


def test_midpoint_with_fewer_nodes_than_pool():
    assert dynamic_midpoint([0.5], 3) == 0.5


def test_midpoint_top_three_oracle():
    scores = [0.1, 0.2, 0.9, 0.8, 0.7]
    expected = sum(sorted(scores, reverse=True)[:3]) / 3  # sort-and-average oracle
    assert dynamic_midpoint(scores, 3) == pytest.approx(expected)
    assert expected == pytest.approx(0.8)


def test_midpoint_all_equal():
    assert dynamic_midpoint([0.4, 0.4, 0.4, 0.4], 3) == pytest.approx(0.4)


def test_midpoint_empty_errors():
    with pytest.raises(ValueError):
        dynamic_midpoint([], 3)


# --- sigmoid_transform (the reference in oracles.py) ----------------------------


def test_sigmoid_at_midpoint_is_half():
    assert sigmoid_transform(0.7, 0.7, 10.0) == 0.5


def test_sigmoid_matches_closed_form():
    # alpha - midpoint = 0.1 with sharpness 10 -> 1 / (1 + e^-1)
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert sigmoid_transform(0.6, 0.5, 10.0) == pytest.approx(expected, abs=1e-15)


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.1, max_value=50),
)
@settings(max_examples=100)
def test_sigmoid_monotone(a: float, b: float, lam: float):
    low, high = min(a, b), max(a, b)
    assert sigmoid_transform(low, 0.0, lam) <= sigmoid_transform(high, 0.0, lam)
    # strict ordering is observable only above float resolution and off saturation
    if high - low > 1e-9 and max(abs(low), abs(high)) * lam < 30:
        assert sigmoid_transform(low, 0.0, lam) < sigmoid_transform(high, 0.0, lam)


def test_sigmoid_saturates_without_error():
    assert sigmoid_transform(1e6, 0.0, 50.0) == pytest.approx(1.0)
    assert sigmoid_transform(-1e6, 0.0, 50.0) == pytest.approx(0.0)


# --- novelty_bonus (the reference in oracles.py) ---------------------------------


@pytest.mark.parametrize("n,expected", [(0, 1.0), (1, 0.5), (9, 0.1)])
def test_novelty_bonus(n, expected):
    assert novelty_bonus(n) == pytest.approx(expected)


# --- distribution ----------------------------------------------------------------


def test_injected_all_zero_weights_fall_back_to_uniform():
    probs = weights_to_distribution([0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(probs, np.full(4, 0.25))


def test_equal_scores_children_zero_and_one():
    # equal sigmoid terms, novelty 1 vs 1/2 -> weights 2:1 -> (2/3, 1/3)
    probabilities = selection_distribution([(0.5, 0), (0.5, 1)], SCP)
    assert probabilities == pytest.approx([2 / 3, 1 / 3], abs=1e-15)


def test_score_child_prop_four_node_closed_form():
    view = [(0.1, 2), (0.2, 0), (0.8, 1), (0.9, 0)]
    policy = SelectionPolicy(sharpness=10.0, midpoint_pool_size=3)
    probabilities = selection_distribution([*view], policy)
    mid = (0.9 + 0.8 + 0.2) / 3
    sig = [1 / (1 + math.exp(-10.0 * (a - mid))) for a, _ in view]
    nov = [1 / (1 + n) for _, n in view]
    weights = [s * h for s, h in zip(sig, nov)]
    total = sum(weights)
    expected = [w / total for w in weights]
    assert dynamic_midpoint([a for a, _ in view], 3) == pytest.approx(mid, abs=1e-15)
    np.testing.assert_allclose(probabilities, expected, rtol=0, atol=1e-12)


def _bit_views():
    """(view, score-child-prop policy) pairs: random views of several sizes, tied
    scores, a sharpness at which every weight underflows, a pool larger than the
    view, scores given as Python floats, ints and numpy floats, and a negative
    child count."""
    rng = np.random.default_rng(2323)
    default = SCP
    for n in (1, 2, 3, 1000, 4290):
        scores = rng.random(n).tolist()
        children = rng.integers(0, 6, n).tolist()
        yield list(zip(scores, children)), default
        yield list(zip(scores, children)), SelectionPolicy(sharpness=250.0,
                                                           midpoint_pool_size=7)
    tied = [(0.1, int(c)) for c in rng.integers(0, 4, 50)]
    yield tied, default
    # three tied 0.1s average to just above 0.1, so at this sharpness no weight is
    # left and the distribution falls back to uniform
    yield tied, SelectionPolicy(sharpness=1e300)
    yield [(float(s), 0) for s in rng.random(5)], SelectionPolicy(midpoint_pool_size=40)
    yield [(int(s), int(c)) for s, c in zip(rng.integers(0, 2, 30), rng.integers(0, 3, 30))], \
        default
    yield [(np.float64(s), int(c)) for s, c in zip(rng.random(30), rng.integers(0, 3, 30))], \
        default
    yield [(0.3, 1), (0.6, -1), (0.9, 0)], default


def test_score_child_prop_keeps_the_bits_of_the_numpy_scalar_loop():
    fallbacks = refused = 0
    for view, policy in _bit_views():
        weights = assert_score_child_prop_bits(view, policy)
        if weights is None:
            refused += 1
        else:
            fallbacks += not weights.any()
    assert (fallbacks, refused) == (1, 1)


def test_every_variant_returns_a_float64_array():
    view = [(0.9, 0), (0.1, 3), (0.4, 1)]
    for variant in ("score-child-prop", "uniform-random", "softmax", "ucb"):
        probabilities = selection_distribution(view, SelectionPolicy(variant=variant))
        assert type(probabilities) is np.ndarray and probabilities.dtype == np.float64
        assert probabilities.shape == (3,)


def test_uniform_variant_is_exactly_uniform():
    policy = SelectionPolicy(variant="uniform-random")
    probabilities = selection_distribution([(0.9, 0), (0.1, 3), (0.4, 1)], policy)
    assert np.array_equal(probabilities, np.full(3, 1 / 3))


def test_softmax_equal_scores_any_temperature_uniform():
    for temperature in (0.05, 1.0, 7.3):
        policy = SelectionPolicy(variant="softmax", temperature=temperature)
        probabilities = selection_distribution([(0.4, 0), (0.4, 5), (0.4, 1)], policy)
        np.testing.assert_allclose(probabilities, np.full(3, 1 / 3), atol=1e-15)


def test_softmax_matches_direct_formula():
    scores = [0.1, 0.5, 0.9]
    policy = SelectionPolicy(variant="softmax", temperature=0.5)
    probabilities = selection_distribution([(s, 0) for s in scores], policy)
    raw = np.exp(np.array(scores) / 0.5)
    np.testing.assert_allclose(probabilities, raw / raw.sum(), atol=1e-12)


def test_ucb_strict_max_gets_probability_one():
    policy = SelectionPolicy(variant="ucb", exploration_weight=0.5)
    probabilities = selection_distribution([(0.9, 0), (0.2, 0), (0.3, 5)], policy)
    assert probabilities[0] == 1.0
    assert probabilities[1] == 0.0


def test_ucb_matches_snippet_formula():
    view = [(0.2, 4), (0.9, 1), (0.5, 0)]
    weight = 0.7
    policy = SelectionPolicy(variant="ucb", exploration_weight=weight)
    probabilities = selection_distribution(view, policy)
    scores = np.array([s for s, _ in view])
    children = np.array([c for _, c in view], dtype=float)
    normalized = (scores - scores.min()) / (scores.max() - scores.min())
    total_children = children.sum()
    bonus = weight * np.sqrt(np.log(total_children + 1) / (children + 1))
    winner = int(np.argmax(normalized + bonus))
    assert probabilities[winner] == 1.0


def test_ucb_ties_split_uniformly():
    policy = SelectionPolicy(variant="ucb", exploration_weight=0.0)
    probabilities = selection_distribution([(0.5, 0), (0.5, 0), (0.1, 0)], policy)
    # min-max sends both 0.5 scores to 1.0; no exploration term
    assert probabilities == pytest.approx([0.5, 0.5, 0.0])


def test_ucb_all_equal_scores_normalize_to_half():
    policy = SelectionPolicy(variant="ucb", exploration_weight=1.0)
    probabilities = selection_distribution([(0.3, 0), (0.3, 2), (0.3, 5)], policy)
    # equal normalized scores: the fresh node wins on the exploration bonus
    assert probabilities[0] == 1.0


def test_ucb_stagnation_boost_changes_pick():
    # variance below 0.01 multiplies exploration by 1.4 for this computation:
    # crafted so the boost flips the argmax from the high scorer to the fresh node
    view = [(0.50, 0), (0.56, 3)]
    base = SelectionPolicy(variant="ucb", exploration_weight=1.45)
    boosted = SelectionPolicy(variant="ucb", exploration_weight=1.45, stagnation_boost=True)
    pick_base = int(np.argmax(selection_distribution(view, base)))
    pick_boosted = int(np.argmax(selection_distribution(view, boosted)))
    assert pick_base == 1
    assert pick_boosted == 0


def test_empty_view_errors():
    with pytest.raises(ValueError):
        selection_distribution([], SCP)


# --- invariants & properties -------------------------------------------------------


def selection_view(arch: Archive) -> list[tuple[float, int]]:
    return [(node_selection_score(n), n.compiled_children) for n in arch]


@given(archives())
@settings(max_examples=150, deadline=None)
def test_distribution_sums_to_one_and_non_negative(arch):
    view = selection_view(arch)
    assert_score_child_prop_bits(view, SCP)
    for policy in (
        SCP,
        SelectionPolicy(variant="uniform-random"),
        SelectionPolicy(variant="softmax", temperature=0.3),
        SelectionPolicy(variant="ucb", exploration_weight=1.0),
    ):
        probabilities = selection_distribution(view, policy)
        assert abs(float(np.sum(probabilities)) - 1.0) <= 1e-12
        assert np.all(probabilities >= 0)


TEMPERATURES = st.sampled_from([1.0, 0.3, 1e-3]) | st.floats(1e-3, 10.0)
EXPLORATION_WEIGHTS = st.sampled_from([0.0, 1.0, 1.45]) | st.floats(0.0, 10.0)


@given(archives(), TEMPERATURES, EXPLORATION_WEIGHTS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_other_variant_has_its_reference_bits(arch, temperature, exploration, boost):
    view = selection_view(arch)
    assert_uniform_random_bits(view)
    assert_softmax_bits(view, temperature)
    assert_ucb_bits(view, exploration, boost)


@given(archives(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_permutation_equivariance(arch, seed):
    view = selection_view(arch)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(view))
    permuted = [view[i] for i in perm]
    p_original = selection_distribution(view, SCP)
    p_permuted = selection_distribution(permuted, SCP)
    np.testing.assert_allclose(p_permuted, p_original[perm], atol=1e-12)


def test_score_increase_never_decreases_probability():
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.integers(2, 10))
        scores = rng.random(size)
        children = rng.integers(0, 6, size)
        view = list(zip(scores.tolist(), children.tolist()))
        # bump the current maximum so the top-m membership cannot change
        target = int(np.argmax(scores))
        boosted = list(view)
        boosted[target] = (min(1.0, scores[target] + 0.05), int(children[target]))
        before = selection_distribution(view, SCP)[target]
        after = selection_distribution(boosted, SCP)[target]
        assert after >= before - 1e-12


def test_more_children_never_increases_probability():
    rng = np.random.default_rng(8)
    for _ in range(200):
        size = int(rng.integers(2, 10))
        scores = rng.random(size)
        children = rng.integers(0, 6, size)
        target = int(rng.integers(0, size))
        view = list(zip(scores.tolist(), children.tolist()))
        bumped = list(view)
        bumped[target] = (float(scores[target]), int(children[target]) + 1)
        before = selection_distribution(view, SCP)[target]
        after = selection_distribution(bumped, SCP)[target]
        assert after <= before + 1e-12


def test_ucb_pick_invariant_under_constant_shift():
    rng = np.random.default_rng(9)
    policy = SelectionPolicy(variant="ucb", exploration_weight=0.8)
    for _ in range(100):
        size = int(rng.integers(2, 10))
        children = rng.integers(0, 6, size)
        scores = np.round(rng.random(size), 3)
        view = list(zip(scores.tolist(), children.tolist()))
        base = selection_distribution(view, policy)
        # shifting every score leaves min-max normalization untouched
        shifted_scores = np.round(scores + 0.125, 6)
        shifted = list(zip(shifted_scores.tolist(), children.tolist()))
        again = selection_distribution(shifted, policy)
        assert int(np.argmax(base)) == int(np.argmax(again))


# --- sampling ---------------------------------------------------------------------


def test_sample_from_degenerate_distribution():
    probabilities = selection_distribution([(0.9, 0)], SCP)
    rng = substream(1, "test")
    assert sample_parents(probabilities, 5, rng) == [0, 0, 0, 0, 0]


def test_sample_from_one_hot():
    policy = SelectionPolicy(variant="ucb", exploration_weight=0.0)
    probabilities = selection_distribution([(0.1, 0), (0.9, 0), (0.2, 0)], policy)
    rng = substream(2, "test")
    assert sample_parents(probabilities, 10, rng) == [1] * 10


def test_sample_frequencies_match_two_thirds_one_third():
    probabilities = selection_distribution([(0.5, 0), (0.5, 1)], SCP)
    rng = substream(3, "lln")
    draws = sample_parents(probabilities, 100_000, rng)
    freq0 = draws.count(0) / len(draws)
    assert abs(freq0 - 2 / 3) < 0.01
    assert abs((1 - freq0) - 1 / 3) < 0.01


def test_sample_count_must_be_positive():
    probabilities = selection_distribution([(0.5, 0)], SCP)
    with pytest.raises(ValueError):
        sample_parents(probabilities, 0, substream(1, "x"))


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(variant="nope")
    with pytest.raises(ValueError):
        SelectionPolicy(variant="softmax", temperature=0.0)
    with pytest.raises(ValueError):
        SelectionPolicy(variant="ucb", exploration_weight=-1.0)
    with pytest.raises(ValueError):
        SelectionPolicy(variant="softmax", stagnation_boost=True)
    with pytest.raises(ValueError):
        SelectionPolicy(sharpness=0.0)
    with pytest.raises(ValueError):
        SelectionPolicy(midpoint_pool_size=0)


@pytest.mark.parametrize(
    "spec, expected",
    [
        ({"variant": "score-child-prop"}, SCP),
        ({"variant": "score-child-prop", "sharpness": 4, "midpoint_pool_size": 2},
         SelectionPolicy(sharpness=4.0, midpoint_pool_size=2)),
        # keys the variant does not read are accepted and left unchecked
        ({"variant": "softmax", "temperature": 0.5, "sharpness": "steep"},
         SelectionPolicy(variant="softmax", temperature=0.5)),
        ({"variant": "score-child-prop", "stagnation_boost": "yes"}, SCP),
        ({"variant": "ucb", "exploration_weight": 0, "stagnation_boost": True},
         SelectionPolicy(variant="ucb", exploration_weight=0.0, stagnation_boost=True)),
    ],
)
def test_policy_from_dict_accepts(spec, expected):
    policy = SelectionPolicy.from_dict(spec)
    assert policy == expected
    assert type(policy.temperature) is float and type(policy.sharpness) is float


def test_policy_fields_are_the_document_keys():
    assert [f.name for f in dataclasses.fields(SelectionPolicy)] == list(POLICY_KEYS)


JSON_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.text(max_size=4), st.none(),
    st.lists(st.integers() | st.floats(), max_size=2),
)


@st.composite
def policy_documents(draw) -> dict:
    """A subset of the policy keys, each set to a value of any JSON type or, more
    often, to one in range, and now and then an unknown key."""
    in_range = {"variant": st.sampled_from(VARIANTS), "midpoint_pool_size": st.integers(1, 9),
                "stagnation_boost": st.booleans()}
    keys = draw(st.lists(st.sampled_from(list(POLICY_KEYS)[1:]), unique=True))
    if draw(st.integers(0, 7)):
        keys.append("variant")
    doc = {key: draw(in_range.get(key, st.floats(min_value=0)) if draw(st.integers(0, 3))
                     else JSON_VALUES) for key in keys}
    if not draw(st.integers(0, 7)):
        unknown = st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
            lambda key: key not in POLICY_KEYS)
        doc[draw(unknown)] = draw(JSON_VALUES)
    return doc


@given(policy_documents())
@example({"variant": "softmax", "temperature": math.nan})
@example({"variant": "softmax", "temperature": math.inf})
@example({"variant": "ucb", "exploration_weight": 10 ** 400})
@example({"variant": "ucb", "exploration_weight": math.inf})
@settings(max_examples=400, deadline=None)
def test_policy_from_dict_reads_the_documented_table(doc):
    assert_policy_document(doc)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({}, "variant"),
        ({"variant": 3}, "variant"),
        ({"variant": "nope"}, "variant"),
        ({"variant": "ucb", "wat": 1}, "wat"),
        ({"variant": "ucb", "stagnation_boost": "false"}, "stagnation_boost"),
        ({"variant": "ucb", "stagnation_boost": 1}, "stagnation_boost"),
        ({"variant": "softmax", "temperature": True}, "temperature"),
        ({"variant": "softmax", "temperature": "0.5"}, "temperature"),
        ({"variant": "score-child-prop", "midpoint_pool_size": 2.0}, "midpoint_pool_size"),
        ({"variant": "score-child-prop", "sharpness": 0}, "sharpness"),
        ({"variant": "softmax", "stagnation_boost": True}, "stagnation_boost"),
    ],
)
def test_policy_from_dict_rejects_naming_the_key(spec, key):
    with pytest.raises(ValueError, match=key):
        SelectionPolicy.from_dict(spec)
