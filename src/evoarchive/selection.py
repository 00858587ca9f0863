"""Parent-selection distributions over the archive, and sampling from them.

The default rule ("score-child-prop") turns each candidate's selection
score into a logistic weight centered on a dynamic midpoint (the mean of
the current top scores), multiplies in a novelty bonus that shrinks with
the number of compiled children, and normalizes. If the weight mass is
zero the distribution falls back to uniform 1/(t+1).

Alternative variants mirror routines that evolved runs tend to rediscover:
uniform-random, temperature softmax, and a UCB-style deterministic pick
with an optional stagnation boost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

VARIANTS = ("score-child-prop", "uniform-random", "softmax", "ucb")

STAGNATION_VARIANCE = 0.01
STAGNATION_FACTOR = 1.4

PROBABILITY_TOL = 1e-12

# The selection-policy document: every key it accepts and that key's JSON
# type, in the order of the SelectionPolicy fields. "variant" is required; the
# defaults of the others are the field defaults. score-child-prop reads the
# _SCORE_CHILD_PROP_KEYS, every other variant the remaining keys.
POLICY_KEYS: dict[str, Any] = {
    "variant": str,
    "sharpness": float,
    "midpoint_pool_size": int,
    "temperature": float,
    "exploration_weight": float,
    "stagnation_boost": bool,
}
_SCORE_CHILD_PROP_KEYS = ("sharpness", "midpoint_pool_size")


def checked_type(value: Any, kind: Any, key: str) -> Any:
    """`value` as a JSON `kind`: an int is also a float (if it fits one), a float is
    finite (JSON has no NaN or Infinity), a bool is only a bool, a str is UTF-8 (no
    unpaired surrogate, which no log line may hold), `list[T]` is a list whose items
    (named `key[i]`) are `T`, `Any` is anything."""
    if kind is Any:
        return value
    if getattr(kind, "__origin__", None) is list:
        if not isinstance(value, list):
            raise ValueError(f"key '{key}' must be list")
        return [checked_type(v, kind.__args__[0], f"{key}[{i}]") for i, v in enumerate(value)]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"key '{key}' is too large for a float") from None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ValueError(f"key '{key}' must be {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"key '{key}' must be a finite number")
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"key '{key}' holds an unpaired surrogate") from None
    return value


def read_keys(
    spec: Any, keys: dict[str, Any], context: str = "", required: Sequence[str] = ()
) -> dict[str, Any]:
    """The keys present in the document `spec`, each checked as its type in `keys`
    (see `checked_type`). ValueError rejects a non-object `spec`, and names an unknown
    key, a missing `required` key or a mistyped value, prefixed by `context`."""
    if not isinstance(spec, dict):
        raise ValueError(f"expected an object, got {spec!r:.80}")
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(f"unknown key '{context}{unknown[0]}'")
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"missing key '{context}{missing[0]}'")
    return {key: checked_type(spec[key], kind, context + key)
            for key, kind in keys.items() if key in spec}


@dataclass(frozen=True)
class SelectionPolicy:
    """One field per POLICY_KEYS key. sharpness: logistic steepness;
    midpoint_pool_size: how many top scores set the midpoint."""

    variant: str = "score-child-prop"
    sharpness: float = 10.0
    midpoint_pool_size: int = 3
    temperature: float = 1.0
    exploration_weight: float = 1.0
    stagnation_boost: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown selection variant {self.variant!r}")
        # `not x > 0`, not `x <= 0`: NaN is refused too
        if not self.sharpness > 0:
            raise ValueError("sharpness must be positive")
        if self.midpoint_pool_size < 1:
            raise ValueError("midpoint_pool_size must be >= 1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not 0 <= self.exploration_weight < math.inf:  # an infinite one makes NaN weights
            raise ValueError("exploration_weight must be non-negative and finite")
        if self.stagnation_boost and self.variant != "ucb":
            raise ValueError("stagnation_boost applies only to the ucb variant")

    @classmethod
    def from_dict(cls, spec: Any) -> "SelectionPolicy":
        """Policy from its document (see POLICY_KEYS); ValueError names the bad key.

        Keys the variant does not read are accepted and ignored unchecked.
        """
        variant = read_keys(spec, {**dict.fromkeys(POLICY_KEYS, Any), "variant": str},
                            required=("variant",))["variant"]
        if variant not in VARIANTS:
            raise ValueError(f"key 'variant' must be one of {VARIANTS}, got {variant!r}")
        scp = variant == "score-child-prop"
        read = {key: kind for key, kind in POLICY_KEYS.items()
                if key != "variant" and (key in _SCORE_CHILD_PROP_KEYS) == scp}
        values = read_keys({key: spec[key] for key in read if key in spec}, read)
        return cls(variant=variant, **values)


def left_sum(values: Iterable[float]) -> float:
    """`values` added left to right from 0, as `sum()` adds floats before Python 3.12."""
    total = 0
    for value in values:
        total += value
    return total


def dynamic_midpoint(scores: Sequence[float], pool_size: int) -> float:
    """Mean of the top min(pool_size, len) scores."""
    if len(scores) == 0:
        raise ValueError("empty score list")
    top = sorted(scores, reverse=True)[: min(pool_size, len(scores))]
    return left_sum(top) / len(top)


def weights_to_distribution(weights: Sequence[float]) -> np.ndarray:
    """Normalize weights; all-zero mass falls back to exact uniform 1/(t+1)."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if np.any(w < 0):
        raise ValueError("negative weight")
    total = float(np.sum(w))
    if total > 0:
        return w / total
    return np.full(w.size, 1.0 / w.size)


def selection_distribution(
    view: Sequence[tuple[float, int]], policy: SelectionPolicy
) -> np.ndarray:
    """Categorical parent distribution over an archive view: one float64
    probability per candidate, none negative, summing to 1 within
    PROBABILITY_TOL.

    `view` pairs each candidate's selection score with its compiled-children
    count, in archive order.
    """
    if len(view) == 0:
        raise ValueError("empty archive view")
    score_column, child_column = zip(*view)
    scores = np.array(score_column, dtype=float)
    children = np.array(child_column, dtype=int)
    size = len(view)

    if policy.variant == "score-child-prop":
        # the logistic of sharpness * (score - midpoint), in its overflow-free
        # form, times the novelty bonus 1 / (1 + children); math.exp, since np.exp
        # can differ in the last bit
        midpoint = dynamic_midpoint(scores.tolist(), policy.midpoint_pool_size)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: silent, as in Python
            z = policy.sharpness * (scores - midpoint)
        e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), float, size)
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        if (children < 0).any():
            raise ValueError("n_children must be non-negative")
        probs = weights_to_distribution(sig * (1.0 / (1.0 + children)))
    elif policy.variant == "uniform-random":
        probs = np.full(size, 1.0 / size)
    elif policy.variant == "softmax":
        # shift by the max for stability; ratios are unchanged
        weights = np.exp((scores - scores.max()) / policy.temperature)
        probs = weights / weights.sum()
    else:  # ucb, the one variant left
        ucb = _ucb_scores(scores, children, policy)
        mask = (ucb == ucb.max()).astype(float)
        probs = mask / mask.sum()

    total = float(np.sum(probs))
    if abs(total - 1.0) > PROBABILITY_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    if np.any(probs < 0):
        raise ValueError("negative probability")
    return probs


def _minmax_normalize(scores: np.ndarray) -> np.ndarray:
    lo, hi = float(scores.min()), float(scores.max())
    if hi == lo:
        return np.full(scores.size, 0.5)
    return (scores - lo) / (hi - lo)


def _ucb_scores(
    scores: np.ndarray, children: np.ndarray, policy: SelectionPolicy
) -> np.ndarray:
    exploration = policy.exploration_weight
    if policy.stagnation_boost and float(np.var(scores)) < STAGNATION_VARIANCE:
        exploration *= STAGNATION_FACTOR
    total_children = int(children.sum())
    bonus = exploration * np.sqrt(
        math.log(total_children + 1) / (children.astype(float) + 1.0)
    )
    return _minmax_normalize(scores) + bonus


def sample_parents(
    probabilities: np.ndarray, count: int, rng: np.random.Generator
) -> list[int]:
    """Draw `count` node indices i.i.d. with replacement from `probabilities`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    draws = rng.choice(probabilities.size, size=count, p=probabilities)
    return [int(d) for d in draws]
