"""Radii schedules and the spiral weight system.

A schedule is a strictly interleaved sequence r_1 < R_1 < r_2 < R_2 < ... held
in log-domain, because r_i grows like (e^(pi/(2 eps)) / delta)^i and overflows
64-bit floats already for moderate eps. All range tests compare logs.

On each ramp (r_i, R_i) the turning angle is the clamped logarithmic ramp

    angle_i(t) = clamp(eps * ln(t / r_i), 0, pi/2),

which meets the slope cap eps/t with equality and minimizes R_i/r_i. The two
active gluing weights at radius t are cos/sin of this angle; at the clamp
endpoints they are snapped to exact 0.0/1.0 so supports and plateaus hold
exactly in floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import OutOfScheduleRange

HALF_PI = math.pi / 2.0
_MAX_LOG = math.log(sys.float_info.max)  # ~709.78; beyond this, no linear-domain export
_REL_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """Construction parameters, each strictly inside (0, 1).

    eps: spiral speed (slope cap of the ramp angle is eps/t)
    delta: gap between consecutive levels (r_{i+1} > R_i / delta)
    gamma: total near-isometry budget of the map bank
    zeta: slack accepted in the subsequence selection threshold
    """

    eps: float
    delta: float
    gamma: float
    zeta: float

    def __post_init__(self):
        for name in ("eps", "delta", "gamma", "zeta"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v!r}")

    def scaled(self, factor: float) -> "Params":
        return Params(
            self.eps * factor, self.delta * factor, self.gamma * factor, self.zeta * factor
        )


@dataclass(frozen=True, eq=False)
class RadiiSchedule:
    """Log-domain radii r_i, R_i plus the covered range.

    Points with norm up to exp(log_coverage) = r_{m+1} are covered; evaluating
    the weight system beyond that is an error, never a silent truncation.
    """

    levels: int
    log_r: np.ndarray
    log_R: np.ndarray
    log_coverage: float
    params: Params

    def __post_init__(self):
        lr = np.asarray(self.log_r, dtype=float)
        lR = np.asarray(self.log_R, dtype=float)
        lr.flags.writeable = False
        lR.flags.writeable = False
        object.__setattr__(self, "log_r", lr)
        object.__setattr__(self, "log_R", lR)
        m = self.levels
        if m < 1 or lr.shape != (m,) or lR.shape != (m,):
            raise ValueError("log_r and log_R must both have length levels >= 1")
        finite = np.isfinite(lr).all() and np.isfinite(lR).all()
        if not (finite and math.isfinite(self.log_coverage)):
            raise ValueError("log_r, log_R and log_coverage must be finite")
        eps, delta = self.params.eps, self.params.delta
        gap = -math.log(delta)
        for i in range(m):
            if not lr[i] < lR[i]:
                raise ValueError(f"level {i + 1}: log_r must be < log_R")
            width = lR[i] - lr[i]
            if eps * width < HALF_PI * (1.0 - _REL_TOL):
                raise ValueError(f"level {i + 1}: ramp too short for a feasible angle")
            if i > 0 and lr[i] - lR[i - 1] < gap - _REL_TOL:
                raise ValueError(f"level {i + 1}: radius gap below 1/delta")
        if self.log_coverage - lR[m - 1] < gap - _REL_TOL:
            raise ValueError("coverage must extend at least R_m/delta past the last ramp")


def build_schedule(params: Params, r1: float, levels: int, margin: float = 0.01) -> RadiiSchedule:
    """Minimal-feasible schedule: R_i = r_i e^(pi/(2 eps)), r_{i+1} = (R_i/delta)(1+margin)."""
    if r1 <= 0.0 or not math.isfinite(r1):
        raise ValueError(f"r1 must be a positive real, got {r1!r}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not (margin >= 0.0 and math.isfinite(margin)):
        raise ValueError(f"margin must be a finite real >= 0, got {margin!r}")
    ramp = HALF_PI / params.eps
    step = math.log((1.0 + margin) / params.delta)
    if not math.isfinite(step):
        raise ValueError(f"margin {margin!r} makes the level step infinite")
    log_r = np.empty(levels)
    log_R = np.empty(levels)
    log_r[0] = math.log(r1)
    for i in range(levels):
        log_R[i] = log_r[i] + ramp
        if i + 1 < levels:
            log_r[i + 1] = log_R[i] + step
    return RadiiSchedule(levels, log_r, log_R, float(log_R[-1] + step), params)


def radii(sched: RadiiSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Linear-domain (r_i, R_i); raises OverflowError when outside float range."""
    if sched.log_R[-1] > _MAX_LOG:
        raise OverflowError("schedule radii exceed the floating range; use the log-domain fields")
    return np.exp(sched.log_r), np.exp(sched.log_R)


def log_radius(t):
    """ln t, or -inf at the origin. A float gives a float; an array gives an
    array of math.log per value (numpy's vectorized log may differ in the
    last ulp), so every caller shares one log-radius rule."""
    values = np.asarray(t, dtype=float)
    logs = [math.log(v) if v > 0.0 else -math.inf for v in values.ravel().tolist()]
    return logs[0] if values.ndim == 0 else np.array(logs).reshape(values.shape)


def check_log_radius(sched: RadiiSchedule, log_t) -> None:
    """Raise OutOfScheduleRange when log_t, a float or an array, lies beyond
    the schedule's coverage; the message names the first offending value."""
    limit = sched.log_coverage + 1e-12 * max(1.0, abs(sched.log_coverage))
    if np.ndim(log_t) == 0:
        bad = [float(log_t)] if log_t > limit else []
    else:
        log_t = np.asarray(log_t, dtype=float).ravel()
        bad = log_t[np.flatnonzero(log_t > limit)[:1]].tolist()
    if bad:
        raise OutOfScheduleRange(
            f"log norm {bad[0]!r} exceeds schedule coverage {sched.log_coverage!r}"
        )


def ramp_angle_log(sched: RadiiSchedule, level: int, log_t):
    """The level's clamped ramp angle at log radius log_t: exactly 0 up to
    r_level and exactly pi/2 from R_level on, where the ramp ends even when
    eps * (log R_level - log r_level) rounds below pi/2.

    A float log_t gives a float; an array gives the angles as an array, each
    bit-equal to the float call (never -0.0; the origin, -inf, gives 0.0).
    The float call runs the same IEEE operations on Python floats.
    """
    if np.ndim(log_t) == 0 and np.ndim(level) == 0:
        log_t = float(log_t)
        if log_t >= float(sched.log_R[level - 1]):
            return HALF_PI
        a = sched.params.eps * (log_t - float(sched.log_r[level - 1]))
        return min(a, HALF_PI) if a > 0.0 else 0.0
    log_t = np.asarray(log_t, dtype=float)
    a = sched.params.eps * (log_t - sched.log_r[level - 1])
    return np.where(
        log_t >= sched.log_R[level - 1], HALF_PI, np.where(a > 0.0, np.minimum(a, HALF_PI), 0.0)
    )


def level_weights_log(sched: RadiiSchedule, level, log_t):
    """(cos, sin) of the level's ramp angle at log radius log_t.

    At the clamp endpoints the pair is exactly (1.0, 0.0) or (0.0, 1.0), so
    supports and plateaus hold exactly in floating point. A float log_t gives
    floats; an array (with one level, or a level per entry) gives arrays,
    each entry bit-equal to the float call: cos and sin come from math per
    angle (numpy's vectorized cos may differ in the last ulp).
    """
    angle = ramp_angle_log(sched, level, log_t)
    one = isinstance(angle, float)
    angles = [angle] if one else angle.tolist()
    c = [1.0 if a <= 0.0 else 0.0 if a >= HALF_PI else math.cos(a) for a in angles]
    s = [0.0 if a <= 0.0 else 1.0 if a >= HALF_PI else math.sin(a) for a in angles]
    if one:
        return c[0], s[0]
    return np.array(c), np.array(s)


def sandwich_theta(sigma, alpha):
    """The per-pair sandwich's theta = pi/2 + (sigma + alpha)/2 from the ramp
    angles sigma at x and alpha at y. Floats give a float; arrays give an
    array, each entry bit-equal to the float call."""
    return 0.5 * math.pi + 0.5 * (sigma + alpha)


def sandwich_angles_log(sched: RadiiSchedule, level: int, log_x, log_y):
    """Ramp angles (sigma, alpha) of the level at log radii log_x >= log_y,
    and sandwich_theta(sigma, alpha): the angles of the per-pair sandwich.
    Floats give floats; arrays of pairs give arrays, each bit-equal to the
    float call."""
    sigma = ramp_angle_log(sched, level, log_x)
    alpha = ramp_angle_log(sched, level, log_y)
    return sigma, alpha, sandwich_theta(sigma, alpha)


def active_weights_log(sched: RadiiSchedule, log_t):
    """Level i and the weight pair (mu_i, mu_{i+1}) at log radius log_t.

    This is the one weight evaluator: level i is the ramp whose range
    (r_i, r_{i+1}] holds the radius (clamped to 1..levels) and the pair is
    level_weights_log there. All other weights vanish. A float log_t gives
    an int and two floats; an array gives three arrays, each entry bit-equal
    to the float call.
    """
    check_log_radius(sched, log_t)
    level = np.searchsorted(sched.log_r, log_t, side="left")
    if np.ndim(level) == 0:
        level = min(max(int(level), 1), sched.levels)
    else:
        level = np.clip(level, 1, sched.levels)
    return (level, *level_weights_log(sched, level, log_t))


def _weight_table(sched: RadiiSchedule, log_t: np.ndarray) -> np.ndarray:
    """All levels + 1 weights at each entry of the 1-d log_t, one row per
    entry, from one active_weights_log call."""
    level, c, s = active_weights_log(sched, log_t)
    table = np.zeros((len(log_t), sched.levels + 1))
    rows = np.arange(len(log_t))
    table[rows, level - 1] = c
    table[rows, level] = s
    return table


def weight(sched: RadiiSchedule, index: int, t: float) -> float:
    """Gluing weight mu_index at radius t; index runs in 1..levels+1."""
    if not (1 <= index <= sched.levels + 1):
        raise ValueError(f"weight index must be in 1..{sched.levels + 1}, got {index}")
    if t < 0.0 or not (t < math.inf):
        raise ValueError(f"radius must be a finite non-negative real, got {t!r}")
    level, c, s = active_weights_log(sched, log_radius(t))
    return c if index == level else s if index == level + 1 else 0.0


@dataclass(frozen=True)
class WeightConditionReport:
    """Worst finite-difference slacks of the slope conditions over a sampled grid.

    Slopes are measured against the log radius, which turns the cap eps/t into
    the scale-free cap eps and keeps the check overflow-safe on wide schedules.
    """

    angle_slope_min: float
    angle_slope_max_violation: float
    weight_slope_max_violation: float
    partition_max_defect: float
    samples: int


def check_weight_conditions(
    sched: RadiiSchedule, samples_per_interval: int
) -> WeightConditionReport:
    """Finite-difference check of the angle slope cap and the paired-weight slope cap."""
    if samples_per_interval < 2:
        raise ValueError("samples_per_interval must be >= 2")
    eps = sched.params.eps
    h = 1e-6  # step in log radius
    slopes, gains = [], []
    for i in range(1, sched.levels + 1):
        pad = 10.0 * h
        grid = np.linspace(
            sched.log_r[i - 1] + pad, sched.log_R[i - 1] - pad, samples_per_interval
        )
        da = ramp_angle_log(sched, i, grid + h) - ramp_angle_log(sched, i, grid - h)
        slopes.append(da / (2.0 * h))
        dw = (_weight_table(sched, grid + h) - _weight_table(sched, grid - h)) / (2.0 * h)
        gains.append(np.hypot(dw[:, i - 1], dw[:, i]))
    slope, gain = np.concatenate(slopes), np.concatenate(gains)
    span = np.linspace(sched.log_r[0] - 2.0, sched.log_coverage, samples_per_interval)
    defect = np.abs((_weight_table(sched, span) ** 2).sum(axis=1) - 1.0)
    return WeightConditionReport(
        float(slope.min()),
        float(slope.max() - eps),
        float(gain.max() - eps),
        float(defect.max()),
        len(slope),
    )


def schedule_to_dict(sched: RadiiSchedule) -> dict:
    return {
        "levels": sched.levels,
        "eps": sched.params.eps,
        "delta": sched.params.delta,
        "gamma": sched.params.gamma,
        "zeta": sched.params.zeta,
        "log_r": sched.log_r.tolist(),
        "log_R": sched.log_R.tolist(),
        "log_coverage": sched.log_coverage,
    }


def schedule_from_dict(d: dict) -> RadiiSchedule:
    params = Params(float(d["eps"]), float(d["delta"]), float(d["gamma"]), float(d["zeta"]))
    return RadiiSchedule(
        int(d["levels"]),
        np.asarray(d["log_r"], dtype=float),
        np.asarray(d["log_R"], dtype=float),
        float(d["log_coverage"]),
        params,
    )


def weight_grid(
    sched: RadiiSchedule,
    grid_size: int,
    log_lo: float | None = None,
    log_hi: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced grid of radii and the full weight table, for plotting/export."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    lo = sched.log_r[0] - math.log(100.0) if log_lo is None else float(log_lo)
    hi = sched.log_coverage if log_hi is None else float(log_hi)
    check_log_radius(sched, hi)
    if hi > _MAX_LOG:
        raise OverflowError("grid radii exceed the floating range")
    logs = np.linspace(lo, hi, grid_size)
    return np.exp(logs), _weight_table(sched, logs)
