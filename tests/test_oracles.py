"""Each comparison helper in `oracles.py` refuses a kernel known to be wrong, so
that no oracle test passes vacuously. Every check first runs the helper on the
package's own kernel with the same input, which it must accept."""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np
import pytest

import oracles
from evoarchive.archive import DomainScores
from evoarchive.evaluation import node_selection_score
from evoarchive.metrics import GrowthScoreParams, transfer_select
from evoarchive.selection import (
    SelectionPolicy,
    checked_type,
    dynamic_midpoint,
    left_sum,
    selection_distribution,
    weights_to_distribution,
)

from conftest import make_node


def signed_zero_selection_score(scores) -> float:
    """The selection score summed from -0.0, which keeps a lone -0.0 where `sum`'s
    0 start gives 0.0, and changes no other sum."""
    values = [scores[name].selection_component() for name in sorted(scores)]
    return sum(values, -0.0) / len(values)


def config_order_selection_score(scores) -> float:
    """The selection score summed in the order the node holds its domains."""
    values = [record.selection_component() for record in scores.values()]
    return sum(values) / len(values)


def test_selection_score_oracle_refuses_a_kept_negative_zero():
    scores = {"d": DomainScores(-0.0)}
    oracles.assert_selection_score_bits(scores)
    oracles.assert_selection_score_bits({"d": DomainScores(0.25)},
                                        kernel=signed_zero_selection_score)
    with pytest.raises(AssertionError):
        oracles.assert_selection_score_bits(scores, kernel=signed_zero_selection_score)


def test_selection_score_oracle_refuses_config_order():
    # (0.1 + 0.2) + 0.3 rounds one ulp above (0.3 + 0.2) + 0.1
    scores = {"c": DomainScores(0.1), "b": DomainScores(0.2), "a": DomainScores(0.3)}
    assert config_order_selection_score(scores) != oracles.selection_score(scores)
    oracles.assert_selection_score_bits(scores)
    with pytest.raises(AssertionError):
        oracles.assert_selection_score_bits(scores, kernel=config_order_selection_score)


def np_exp_score_child_prop(view, policy: SelectionPolicy) -> np.ndarray:
    """score-child-prop with `np.exp`, which rounds some results otherwise than
    `math.exp` does."""
    scores = np.array([score for score, _ in view], dtype=float)
    children = np.array([count for _, count in view], dtype=int)
    midpoint = dynamic_midpoint(scores.tolist(), policy.midpoint_pool_size)
    z = policy.sharpness * (scores - midpoint)
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return weights_to_distribution(sig * (1.0 / (1.0 + children)))


def test_selection_oracle_refuses_np_exp():
    rng = np.random.default_rng(14)
    view = list(zip(rng.random(1000).tolist(), rng.integers(0, 6, 1000).tolist()))
    policy = SelectionPolicy()
    scores = [score for score, _ in view]
    z = -np.abs(policy.sharpness
                * (np.array(scores) - dynamic_midpoint(scores, policy.midpoint_pool_size)))
    assert (np.exp(z) != np.fromiter(map(math.exp, z.tolist()), float)).any(), \
        "np.exp rounds as math.exp does on every input: it is no wrong kernel here"
    oracles.assert_score_child_prop_bits(view, policy)
    with pytest.raises(AssertionError):
        oracles.assert_score_child_prop_bits(view, policy, kernel=np_exp_score_child_prop)


def sharpness_checked_for_every_variant(doc: dict) -> SelectionPolicy:
    """`SelectionPolicy.from_dict` that also checks `sharpness` where the variant
    does not read it."""
    policy = SelectionPolicy.from_dict(doc)
    if "sharpness" in doc:
        SelectionPolicy(sharpness=checked_type(doc["sharpness"], float, "sharpness"))
    return policy


def test_policy_oracle_refuses_a_reader_that_checks_sharpness_for_every_variant():
    doc = {"variant": "softmax", "temperature": 0.5, "sharpness": "steep"}
    oracles.assert_policy_document(doc)
    with pytest.raises(AssertionError):
        oracles.assert_policy_document(doc, reader=sharpness_checked_for_every_variant)


def exact_sum_uniform(view, policy: SelectionPolicy) -> np.ndarray:
    """uniform-random whose last probability takes up the rounding, so that the
    distribution sums to exactly 1."""
    probs = np.full(len(view), 1.0 / len(view))
    probs[-1] = 1.0 - probs[:-1].sum()
    return probs


def test_uniform_random_oracle_refuses_an_exact_sum():
    view = [(0.5, 0)] * 3
    oracles.assert_uniform_random_bits(view)
    oracles.assert_uniform_random_bits(view[:2], kernel=exact_sum_uniform)
    with pytest.raises(AssertionError):
        oracles.assert_uniform_random_bits(view, kernel=exact_sum_uniform)


def math_exp_softmax(view, policy: SelectionPolicy) -> np.ndarray:
    """softmax with `math.exp`, which rounds some results otherwise than `np.exp`."""
    scores = np.array([score for score, _ in view], dtype=float)
    shifted = ((scores - scores.max()) / policy.temperature).tolist()
    weights = np.fromiter(map(math.exp, shifted), float, len(view))
    return weights / weights.sum()


def test_softmax_oracle_refuses_math_exp():
    rng = np.random.default_rng(30)
    view = list(zip(rng.random(1000).tolist(), rng.integers(0, 6, 1000).tolist()))
    policy = SelectionPolicy(variant="softmax", temperature=0.3)
    assert (math_exp_softmax(view, policy) != selection_distribution(view, policy)).any(), \
        "math.exp rounds as np.exp does on every input: it is no wrong kernel here"
    oracles.assert_softmax_bits(view, 0.3)
    oracles.assert_softmax_bits([(0.5, 0)], 0.3, kernel=math_exp_softmax)
    with pytest.raises(AssertionError):
        oracles.assert_softmax_bits(view, 0.3, kernel=math_exp_softmax)


def argmax_ucb(view, policy: SelectionPolicy) -> np.ndarray:
    """ucb that gives a tie at the maximum to its first candidate alone."""
    shared = oracles.ucb(view, policy.exploration_weight, policy.stagnation_boost)
    probs = np.zeros(len(view))
    probs[int(np.argmax(shared))] = 1.0
    return probs


def test_ucb_oracle_refuses_a_tie_given_to_the_first_candidate():
    tie = [(0.5, 1), (0.25, 0), (0.5, 1)]
    oracles.assert_ucb_bits(tie, 0.0, False)
    oracles.assert_ucb_bits([(0.5, 1), (0.25, 0)], 0.0, False, kernel=argmax_ucb)
    with pytest.raises(AssertionError):
        oracles.assert_ucb_bits(tie, 0.0, False, kernel=argmax_ucb)


def descending_transfer_select(arch, params: GrowthScoreParams) -> Optional[int]:
    """Transfer selection whose growth scores sum their terms in descending id order."""
    best_id, best_score = None, -np.inf
    for node in arch:
        offspring = sorted(oracles.descendants(arch, node.id), reverse=True)
        if len(offspring) < params.min_descendants:
            continue
        base = node_selection_score(node)
        total = 0.0
        for j in offspring:
            total += ((node_selection_score(arch.node(j)) - base)
                      * params.gamma ** oracles.distance(arch, node.id, j))
        if total / len(offspring) > best_score:
            best_id, best_score = node.id, total / len(offspring)
    return best_id


def test_growth_and_transfer_oracle_refuses_a_descending_sum():
    # nodes 1 and 2 have the terms 0.1, 0.2 and 0.3 in opposite id orders:
    # (0.1 + 0.2) + 0.3 rounds one ulp above (0.3 + 0.2) + 0.1
    arch = oracles.tree_archive([None, 0, 0, 1, 1, 1, 2, 2, 2],
                                [0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1])
    params = GrowthScoreParams(gamma=1.0, min_descendants=3)
    oracles.assert_growth_and_transfer_bits(arch, params)
    assert transfer_select(arch, params) == 1 and descending_transfer_select(arch, params) == 2
    with pytest.raises(AssertionError):
        oracles.assert_growth_and_transfer_bits(arch, params,
                                                transfer=descending_transfer_select)


def test_growth_and_transfer_oracle_refuses_a_descending_sum_on_any_archive():
    # on this archive both sums pick the same node: the helper's own tie catches it
    arch = oracles.seeded_tree(np.random.default_rng(61), 60, window=8)
    params = GrowthScoreParams()
    assert descending_transfer_select(arch, params) == transfer_select(arch, params)
    oracles.assert_growth_and_transfer_bits(arch, params)
    with pytest.raises(AssertionError):
        oracles.assert_growth_and_transfer_bits(arch, params,
                                                transfer=descending_transfer_select)


def compact_record(node) -> bytes:
    """The node record with `json.dumps`'s compact separators, no indent."""
    record = json.loads(oracles.json_dumps_record(node))
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_record_oracle_refuses_compact_separators():
    node = make_node(3, 1, score=0.25)
    oracles.assert_record_bytes(node)
    with pytest.raises(AssertionError):
        oracles.assert_record_bytes(node, record=compact_record)


def upper_middle_bootstrap(samples, rng, resamples=1000, level=95.0):
    """The bootstrap with each row's median read as its upper middle value, which
    is the median of an odd row but not of an even one."""
    data = np.asarray(samples, dtype=float)
    rows = np.sort(data[rng.integers(0, data.size, size=(resamples, data.size))], axis=1)
    tail = (100.0 - level) / 2.0
    lower, upper = np.percentile(rows[:, data.size // 2], [tail, 100.0 - tail])
    return float(np.median(data)), float(lower), float(upper)


def test_bootstrap_oracle_refuses_the_upper_middle_of_an_even_row():
    rng = np.random.default_rng(26)
    odd, even = rng.random(25).tolist(), rng.random(24).tolist()
    oracles.assert_bootstrap_bits(even, 4, "oracle", 50)
    oracles.assert_bootstrap_bits(odd, 4, "oracle", 50, kernel=upper_middle_bootstrap)
    with pytest.raises(AssertionError):
        oracles.assert_bootstrap_bits(even, 4, "oracle", 50, kernel=upper_middle_bootstrap)


def test_impk_oracle_refuses_the_last_score():
    generated = (0.5, 0.75, 0.625)
    oracles.assert_impk_matches(0.25, generated)
    with pytest.raises(AssertionError):
        oracles.assert_impk_matches(0.25, generated, kernel=lambda i, g: g[-1] - i)


class _Float(float):
    """A float that Python 3.12's `sum()` adds outside its compensated loop."""


# (values, the hex of `sum(values)` on CPython 3.12.1, that of a left-to-right
# sum as CPython 3.11 gives it), recorded once from each interpreter
SUMS = [
    ([0.1, 0.2, 0.3], "0x1.3333333333333p-1", "0x1.3333333333334p-1"),
    ([0.1] * 10, "0x1.0000000000000p+0", "0x1.fffffffffffffp-1"),
    ([0.333, 0.251, 0.87], "0x1.74395810624ddp+0", "0x1.74395810624dep+0"),
    ([0.7, 0.1, 0.2, 0.3, 0.9], "0x1.199999999999ap+1", "0x1.199999999999ap+1"),
    ([1e100, 1.0, -1e100], "0x1.0000000000000p+0", "0x0.0p+0"),
    ([1e16, 1.0, 1.0], "0x1.1c37937e08001p+53", "0x1.1c37937e08000p+53"),
    ([1e16, 1.0, 1.0, _Float(0.0)], "0x1.1c37937e08001p+53", "0x1.1c37937e08000p+53"),
    ([1, 0.1, 0.2], "0x1.4cccccccccccdp+0", "0x1.4cccccccccccdp+0"),
    ([0.1, 2**70, 0.2], "0x1.0000000000000p+70", "0x1.0000000000000p+70"),
    ([-0.0], "0x0.0p+0", "0x0.0p+0"),
    ([1e308, 1e308, -1e308], "inf", "inf"),
]


@pytest.mark.parametrize("values, python_312, left_to_right", SUMS)
def test_sum_312_oracle_gives_the_recorded_bits_of_python_3_12(values, python_312,
                                                               left_to_right):
    assert oracles.sum_312(values).hex() == python_312
    assert left_sum(values).hex() == left_to_right


def test_sum_312_oracle_refuses_a_left_to_right_sum():
    # bound in place of `sum`, the emulation changes what a left-to-right sum gives
    assert sum(python_312 != left for _, python_312, left in SUMS) == 6
