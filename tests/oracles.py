"""Slow, obvious references for the package's optimized kernels, and the archive
builders the tests share.

Each kernel that must keep its bits (the node selection score, each
selection variant's distribution, the growth score and transfer selection,
the bootstrap medians, node record bytes, improvement@k) and the
selection-policy reader has one reference here and one `assert_*` helper that
compares the kernel with it. A helper takes the kernel under test as an
argument, the package's own by default, so `test_oracles.py` can show that it
refuses a kernel known to be wrong. `sum_312` emulates the builtin `sum()` of
Python 3.12, so that a run on an older interpreter can be checked under it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from evoarchive import metrics
from evoarchive.archive import (
    AgentNode,
    Archive,
    DomainScores,
    add_node,
    persist,
    replace_sole_node,
)
from evoarchive.evaluation import node_selection_score
from evoarchive.metrics import GrowthScoreParams
from evoarchive.rng import substream
from evoarchive.selection import (
    STAGNATION_FACTOR,
    STAGNATION_VARIANCE,
    SelectionPolicy,
    dynamic_midpoint,
    selection_distribution,
    weights_to_distribution,
)

from conftest import make_node


# --- archives ------------------------------------------------------------------


def tree_archive(parents: Sequence[Optional[int]], scores: Sequence[float]) -> Archive:
    """The archive whose node i has parent `parents[i]` and score `scores[i]`."""
    arch = Archive(mode_tag="full")
    for node_id, (parent, score) in enumerate(zip(parents, scores)):
        add_node(arch, make_node(node_id, parent, score=score))
    return arch


def seeded_tree(rng: np.random.Generator, size: int, window: Optional[int] = None) -> Archive:
    """`size` nodes with random scores, each parent drawn uniformly from the
    `window` nodes before it, or from all of them without a window. A small
    window makes deep lineages, such as those of a long run."""
    parents, scores = [None], [float(rng.random())]
    for node_id in range(1, size):
        parents.append(int(rng.integers(0 if window is None else max(0, node_id - window),
                                        node_id)))
        scores.append(float(rng.random()))
    return tree_archive(parents, scores)


SCORES = st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
EDGE_SCORES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-7]) | st.floats(0.0, 1.0)


@st.composite
def archives(draw, max_size: int = 30) -> Archive:
    """An archive a run could build: a tree with random parents, a chain, or the
    no-open-ended sole node with id 7 that replaced the root; scores with ties,
    -0.0, 0 and 1."""
    shape = draw(st.sampled_from(["tree", "chain", "sole"]))
    if shape == "sole":
        arch = Archive(mode_tag="no-open-ended")
        add_node(arch, make_node(0, None, score=draw(SCORES)))
        replace_sole_node(arch, make_node(7, 0, score=draw(SCORES)))
        return arch
    size = draw(st.integers(1, max_size))
    parents = [None] + [node_id - 1 if shape == "chain" else draw(st.integers(0, node_id - 1))
                        for node_id in range(1, size)]
    return tree_archive(parents, draw(st.lists(SCORES, min_size=size, max_size=size)))


def descendants(arch: Archive, node_id: int) -> set[int]:
    """Every node below `node_id`, found by scanning all parent links per node."""
    out: set[int] = set()
    frontier = [node_id]
    while frontier:
        parent = frontier.pop()
        for node in arch:
            if node.parent_id == parent and node.id not in out:
                out.add(node.id)
                frontier.append(node.id)
    return out


def distance(arch: Archive, ancestor: int, descendant: int) -> int:
    """The number of parent links from `descendant` up to `ancestor`."""
    steps, current = 0, descendant
    while current != ancestor:
        current, steps = arch.node(current).parent_id, steps + 1
    return steps


# --- node selection score ----------------------------------------------------------


# a node's scores: one to three domains, in any order, with or without validation
NODE_SCORES = st.dictionaries(
    st.text(max_size=2), st.builds(DomainScores, EDGE_SCORES, st.none() | EDGE_SCORES),
    min_size=1, max_size=3)


def selection_score(scores: dict[str, DomainScores]) -> float:
    """Each domain's validation score where it has one, else its train score,
    summed in domain-name order from 0, over the number of domains."""
    total = 0
    for name in sorted(scores):
        record = scores[name]
        total += record.train if record.validation is None else record.validation
    return total / len(scores)


def built_selection_score(scores: dict[str, DomainScores]) -> Optional[float]:
    """The `selection_score` of a node built with `scores`."""
    return AgentNode(0, None, "oracle", True, scores).selection_score


def assert_selection_score_bits(scores: dict[str, DomainScores],
                                kernel=built_selection_score) -> None:
    """`kernel(scores)` has the bits of `selection_score(scores)`, -0.0 apart from 0.0."""
    assert repr(kernel(scores)) == repr(selection_score(scores))


# --- selection-policy documents ----------------------------------------------------

SCP_ONLY = ("score-child-prop",)
OTHER_VARIANTS = ("uniform-random", "softmax", "ucb")


def _number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


# the "Selection policy" table of docs/formats.md: each key but `variant`, its
# default, the variants that read it, and whether a value of it is in type and
# range (a number is finite: JSON has no NaN or Infinity)
POLICY_TABLE = {
    "sharpness": (10.0, SCP_ONLY, lambda v: _number(v) and 0 < v < math.inf),
    "midpoint_pool_size": (3, SCP_ONLY, lambda v: type(v) is int and v >= 1),
    "temperature": (1.0, OTHER_VARIANTS, lambda v: _number(v) and 0 < v < math.inf),
    "exploration_weight": (1.0, OTHER_VARIANTS, lambda v: _number(v) and 0 <= v < math.inf),
    "stagnation_boost": (False, OTHER_VARIANTS, lambda v: type(v) is bool),
}


def policy_document(doc: dict) -> tuple:
    """The values of `variant` and of each POLICY_TABLE key (a number as a float),
    in table order, that `doc` sets, the defaults elsewhere. Keys its variant does
    not read are not checked. A ValueError's args name every key that breaks the
    table: an unknown one, `variant` if it is missing or not a variant, a value
    out of its type or range (a number must fit a float), and a true
    `stagnation_boost` outside `ucb`."""
    bad = sorted(key for key in doc if key != "variant" and key not in POLICY_TABLE)
    variant = doc.get("variant")
    if type(variant) is not str or variant not in SCP_ONLY + OTHER_VARIANTS:
        raise ValueError("variant", *bad)
    values = [variant]
    for key, (default, readers, valid) in POLICY_TABLE.items():
        value = doc.get(key, default) if variant in readers else default
        if type(default) is float and _number(value):
            try:
                value = float(value)
            except OverflowError:  # an int beyond any float
                value = None
        if not valid(value) or value is True and variant != "ucb":
            bad.append(key)
        values.append(value)
    if bad:
        raise ValueError(*bad)
    return tuple(values)


def assert_policy_document(doc: dict, reader=SelectionPolicy.from_dict) -> None:
    """`reader(doc)`'s fields have the values and types of `policy_document(doc)`,
    or, where that raises, `reader` raises a ValueError naming one of its keys."""
    try:
        expected = policy_document(doc)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            reader(doc)
        message = str(caught.value)
        named = re.search(r"key '(\w+)'", message) or re.match(r"\w+", message)
        assert named and named[named.lastindex or 0] in exc.args, (message, exc.args)
        return
    try:
        got = dataclasses.astuple(reader(doc))
    except ValueError as exc:
        raise AssertionError(f"the reader refuses {doc!r}: {exc}") from exc
    assert [(type(v), v) for v in got] == [(type(v), v) for v in expected]


# --- score-child-prop selection --------------------------------------------------


def sigmoid_transform(alpha: float, midpoint: float, sharpness: float) -> float:
    """Logistic of sharpness*(alpha - midpoint); saturates smoothly, never errors."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    z = sharpness * (alpha - midpoint)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def novelty_bonus(n_children: int) -> float:
    """1/(1+n): fresh nodes get 1, heavily-branched nodes fade toward 0."""
    if n_children < 0:
        raise ValueError("n_children must be non-negative")
    return 1.0 / (1.0 + n_children)


def score_child_prop(view: Sequence[tuple[float, int]],
                     policy: SelectionPolicy) -> tuple[np.ndarray, np.ndarray]:
    """The score-child-prop weights and distribution, one candidate at a time."""
    scores = [float(score) for score, _ in view]
    midpoint = dynamic_midpoint(scores, policy.midpoint_pool_size)
    weights = np.array([sigmoid_transform(alpha, midpoint, policy.sharpness)
                        * novelty_bonus(int(children))
                        for alpha, (_, children) in zip(scores, view)])
    return weights, weights_to_distribution(weights)


def assert_score_child_prop_bits(view: Sequence[tuple[float, int]],
                                 policy: SelectionPolicy,
                                 kernel=selection_distribution) -> Optional[np.ndarray]:
    """`kernel`'s score-child-prop distribution under `policy` has the bits of
    `score_child_prop`'s, or `kernel` raises the reference's ValueError. Returns
    the reference's weights, or None where it raised."""
    try:
        weights, expected = score_child_prop(view, policy)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            kernel(view, policy)
        return None
    assert kernel(view, policy).tobytes() == expected.tobytes()
    return weights


# --- uniform-random, softmax and ucb selection -------------------------------------


def uniform_random(view: Sequence[tuple[float, int]]) -> np.ndarray:
    """1/(t+1) for each of the t+1 candidates, whatever their scores."""
    return np.array([1.0 / len(view)] * len(view))


def softmax(view: Sequence[tuple[float, int]], temperature: float) -> np.ndarray:
    """exp((score - best) / temperature) per candidate, one `np.exp` call each,
    over the weights' float64 `np.sum`."""
    scores = [float(score) for score, _ in view]
    best = max(scores)
    weights = np.array([np.exp((score - best) / temperature) for score in scores])
    return weights / np.sum(weights)


def ucb(view: Sequence[tuple[float, int]], exploration_weight: float,
        stagnation_boost: bool) -> np.ndarray:
    """Each candidate's min-max normalized score plus exploration * sqrt(log(N + 1) /
    (children + 1)), N the children of all candidates; the exploration is raised by
    STAGNATION_FACTOR where boosted and the scores' `np.var` is below
    STAGNATION_VARIANCE. The candidates at the maximum share the probability."""
    scores = [float(score) for score, _ in view]
    exploration = exploration_weight
    if stagnation_boost and float(np.var(scores)) < STAGNATION_VARIANCE:
        exploration *= STAGNATION_FACTOR
    lo, hi = min(scores), max(scores)
    total = sum(int(children) for _, children in view)
    values = []
    for score, (_, children) in zip(scores, view):
        normalized = 0.5 if hi == lo else (score - lo) / (hi - lo)
        values.append(normalized + exploration * math.sqrt(
            math.log(total + 1) / (int(children) + 1.0)))
    best = [value == max(values) for value in values]
    return np.array([1.0 / sum(best) if at_best else 0.0 for at_best in best])


def assert_uniform_random_bits(view: Sequence[tuple[float, int]],
                               kernel=selection_distribution) -> None:
    """`kernel`'s uniform-random distribution has the bits of `uniform_random`'s."""
    got = kernel(view, SelectionPolicy(variant="uniform-random"))
    assert got.tobytes() == uniform_random(view).tobytes()


def assert_softmax_bits(view: Sequence[tuple[float, int]], temperature: float,
                        kernel=selection_distribution) -> None:
    """`kernel`'s softmax distribution has the bits of `softmax`'s."""
    got = kernel(view, SelectionPolicy(variant="softmax", temperature=temperature))
    assert got.tobytes() == softmax(view, temperature).tobytes()


def assert_ucb_bits(view: Sequence[tuple[float, int]], exploration_weight: float,
                    stagnation_boost: bool, kernel=selection_distribution) -> None:
    """`kernel`'s ucb distribution has the bits of `ucb`'s."""
    policy = SelectionPolicy(variant="ucb", exploration_weight=exploration_weight,
                             stagnation_boost=stagnation_boost)
    got = kernel(view, policy)
    assert got.tobytes() == ucb(view, exploration_weight, stagnation_boost).tobytes()


# --- growth score and transfer selection -------------------------------------------


def growth_score(arch: Archive, node_id: int, params: GrowthScoreParams) -> float:
    """`metrics.growth_score` as first released: every float operation in its order."""
    offspring = descendants(arch, node_id)
    if not offspring:
        raise ValueError(f"node {node_id} has no descendants")
    base = node_selection_score(arch.node(node_id))
    total = 0.0
    for j in sorted(offspring):
        delta = node_selection_score(arch.node(j)) - base
        total += delta * params.gamma ** distance(arch, node_id, j)
    return total / len(offspring)


def transfer_select(arch: Archive, params: GrowthScoreParams) -> Optional[int]:
    """`metrics.transfer_select` as first released; None where it raises ValueError."""
    best_id: Optional[int] = None
    best_score = -np.inf
    for node in arch:
        if len(descendants(arch, node.id)) < params.min_descendants:
            continue
        score = growth_score(arch, node.id, params)
        if score > best_score:
            best_id, best_score = node.id, score
    return best_id


def one_ulp_tie() -> tuple[Archive, GrowthScoreParams]:
    """Nodes 1 and 2 have the terms 0.1, 0.2 and 0.3 in opposite id orders, and
    (0.1 + 0.2) + 0.3 rounds one ulp above (0.3 + 0.2) + 0.1: only totals summed
    in ascending id order pick node 1. A random archive rarely holds such a tie."""
    arch = tree_archive([None, 0, 0, 1, 1, 1, 2, 2, 2],
                        [0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1])
    return arch, GrowthScoreParams(gamma=1.0, min_descendants=3)


def assert_growth_and_transfer_bits(arch: Archive, params: GrowthScoreParams,
                                    growth=metrics.growth_score,
                                    transfer=metrics.transfer_select) -> None:
    """`growth` has the reference's bits on every node, raising where it does, and
    `transfer` picks the reference's node or raises where it finds none, on `arch`
    and on `one_ulp_tie`, so that a total summed in another order is caught."""
    tie, tie_params = one_ulp_tie()
    assert transfer(tie, tie_params) == transfer_select(tie, tie_params)
    for node in arch:
        try:
            expected = growth_score(arch, node.id, params)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                growth(arch, node.id, params)
            continue
        assert repr(growth(arch, node.id, params)) == repr(expected)
    expected_id = transfer_select(arch, params)
    if expected_id is None:
        with pytest.raises(ValueError, match="descendants"):
            transfer(arch, params)
    else:
        assert transfer(arch, params) == expected_id


# --- bootstrap -----------------------------------------------------------------------


def bootstrap_medians(data: np.ndarray, rng: np.random.Generator, resamples: int,
                      statistic=np.median) -> np.ndarray:
    """`statistic` of each resampled row, every row drawn in one int64 call; the
    medians of all rows at once, any other statistic row by row."""
    rows = data[rng.integers(0, data.size, size=(resamples, data.size))]
    if statistic is np.median:
        return np.median(rows, axis=1)
    return np.apply_along_axis(statistic, 1, rows)


def one_shot_bootstrap(samples, rng, resamples, statistic=np.median, level=95.0):
    """The bootstrap over `bootstrap_medians`: the sample's statistic and the
    percentile bounds of the resampled ones."""
    data = np.asarray(samples, dtype=float)
    stats = bootstrap_medians(data, rng, resamples, statistic)
    tail = (100.0 - level) / 2.0
    lower, upper = np.percentile(stats, [tail, 100.0 - tail])
    return float(statistic(data)), float(lower), float(upper)


def assert_bootstrap_bits(samples: Sequence[float], seed: int, stream: str, resamples: int,
                          level: float = 95.0, statistic=np.median,
                          kernel=metrics.bootstrap_ci) -> tuple[float, float, float]:
    """`kernel` on the substream `(seed, stream)` has the reprs of
    `one_shot_bootstrap` on a fresh copy of it; returns the kernel's result."""
    got = kernel(samples, substream(seed, stream), resamples, level=level)
    expected = one_shot_bootstrap(samples, substream(seed, stream), resamples, statistic, level)
    assert repr(got) == repr(expected)
    return got


# --- node records ----------------------------------------------------------------------


def json_dumps_record(node: AgentNode) -> str:
    """A node record as `json.dumps` writes it: the bytes `persist` must write."""
    def text(value):
        return None if value is None else repr(float(value))

    record = {
        "id": node.id,
        "parent_id": node.parent_id,
        "payload_ref": node.payload_ref,
        "compiled": node.compiled,
        "compiled_children": node.compiled_children,
        "created_at_iteration": node.created_at_iteration,
        "scores": {name: {"train": text(s.train), "validation": text(s.validation),
                          "test": text(s.test)} for name, s in node.scores.items()},
    }
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


def persisted_record(node: AgentNode) -> bytes:
    """The record `persist` writes for `node` as an archive's one node."""
    with tempfile.TemporaryDirectory() as location:
        persist(Archive(nodes=[node]), location)
        return Path(location, "nodes", f"node_{node.id:06d}.json").read_bytes()


def assert_record_bytes(node: AgentNode, record=persisted_record) -> None:
    """`record(node)` is the UTF-8 of `json_dumps_record(node)`."""
    assert record(node) == json_dumps_record(node).encode()


# --- improvement@k -----------------------------------------------------------------------


def improvement_at_k(initial: float, generated: Sequence[float]) -> float:
    """The best generated score, found by a plain scan, minus the initial one;
    0 when nothing was generated."""
    if not generated:
        return 0.0
    best = generated[0]
    for value in generated[1:]:
        if value > best:
            best = value
    return best - initial


def assert_impk_matches(initial: float, generated: Sequence[float],
                        kernel=metrics.improvement_at_k) -> None:
    """`kernel(initial, generated)` equals the reference."""
    assert kernel(initial, generated) == improvement_at_k(initial, list(generated))


# --- the builtin sum() of Python 3.12 ----------------------------------------------


def sum_312(iterable):
    """The builtin `sum()` of CPython 3.12, in pure Python: ints add exactly until
    the first other item; from a float on, floats add with Neumaier's compensation,
    and the compensation is added once at the end (or before an item that is
    neither a float nor an int that fits a C long) unless it is 0 or not finite.
    Any other item adds with `+`, left to right."""
    items = iter(iterable)
    result = 0
    for item in items:
        if type(item) is not int and type(item) is not bool:
            result = result + item
            break
        result += item
    else:
        return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result
