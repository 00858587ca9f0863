"""Synthetic two-peak fitness surface for the simulated backend.

Deliberately deceptive: a modest peak sits close to the default start
point and a taller, narrower one lies across a low-fitness valley.
Greedy local search settles on the near peak; reaching the far one
requires keeping and re-expanding intermediate, lower-scoring points.
The base level sets the valley floor without touching the peak tops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .selection import left_sum


@dataclass(frozen=True)
class TwoPeakLandscape:
    base_level: float = 0.3
    local_center: tuple[float, ...] = (0.8, 0.0, 0.0)
    local_height: float = 0.3
    local_width: float = 0.5
    global_center: tuple[float, ...] = (2.6, 0.0, 0.0)
    global_height: float = 0.7
    global_width: float = 0.4

    def __post_init__(self) -> None:
        for name in ("local_width", "global_width"):  # `_bump` divides by 2 * width**2
            width = getattr(self, name)
            if not 2.0 * width * width > 0:  # 0, NaN, or a square that underflows
                raise ValueError(f"{name} {width!r} is too close to 0")

    def fitness(self, point: Sequence[float]) -> float:
        """Base level plus the two bumps, clipped to [0, 1]."""
        value = self.base_level
        value += self._bump(point, self.local_center, self.local_height, self.local_width)
        value += self._bump(point, self.global_center, self.global_height, self.global_width)
        return min(1.0, max(0.0, value))

    @staticmethod
    def _bump(
        point: Sequence[float], center: tuple[float, ...], height: float, width: float
    ) -> float:
        d2 = left_sum((p - c) ** 2 for p, c in zip(point, center))
        return height * math.exp(-d2 / (2.0 * width * width))


DEFAULT_LANDSCAPE = TwoPeakLandscape()
