"""Float-only evaluators that the package no longer exports, kept as test
oracles: the pair classification by its shell rule and the ramp angle at a
linear radius. The pipeline uses `pointset.classify_levels` on arrays of
level intervals and `schedule.ramp_angle_log` on log radii instead.
"""

import math
from dataclasses import dataclass
from typing import Union

from spiralglue.pointset import classify_levels, level_intervals
from spiralglue.schedule import log_radius, ramp_angle_log
from spiralglue.spaces import norm


@dataclass(frozen=True)
class SameLevel:
    """Both points share shell `level`."""

    level: int


@dataclass(frozen=True)
class Far:
    """The smaller norm sits in (R_{y_level-1}, R_{y_level}], the larger in
    (r_{x_level+1}, r_{x_level+2}]; at least one full level separates them."""

    y_level: int
    x_level: int


Classification = Union[SameLevel, Far]


def classify_lognorms(sched, log_nx: float, log_ny: float) -> Classification:
    """Classify an ordered pair by its log norms (log_nx >= log_ny)."""
    if log_ny > log_nx:
        raise ValueError("caller must order the pair so the first norm is the larger")
    (lo_x, lo_y), (hi_x, hi_y) = level_intervals(sched, [log_nx, log_ny])
    same, level, y_level, x_level = classify_levels(lo_x, hi_x, lo_y, hi_y)
    if same:
        return SameLevel(int(level))
    return Far(y_level=int(y_level), x_level=int(x_level))


def classify_pair(x, y, sched, space) -> Classification:
    """Classify a point pair with norm(x) >= norm(y)."""
    return classify_lognorms(sched, log_radius(norm(space, x)), log_radius(norm(space, y)))


def ramp_angle(sched, level: int, t: float) -> float:
    """Turning angle of the given level at radius t, clamped to [0, pi/2]."""
    if not (1 <= level <= sched.levels):
        raise ValueError(f"level must be in 1..{sched.levels}, got {level}")
    if t < 0.0 or not (t < math.inf):
        raise ValueError(f"radius must be a finite non-negative real, got {t!r}")
    return ramp_angle_log(sched, level, log_radius(t))
