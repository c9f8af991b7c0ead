"""Float-only evaluators that the package no longer exports, kept as test
oracles: the pair classification by its shell rule, the ramp angle and the
sandwich angles at linear radii, the one-vector norm, map image, two-map
blend, level map and decomposition residual, and the decompose that scans every direction found so far for each
distinct unit difference. The pipeline uses `pointset.classify_levels` on
arrays of level intervals, `schedule.ramp_angle_log` and
`schedule.sandwich_angles_log` on log radii, the row kernels `spaces.norms`,
`spaces.apply` and `spaces.blend_apply`, and a decompose that groups the
directions by sort-and-sweep instead.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from spiralglue.pointset import (
    _DIR_TOL,
    AnnulusDecomposition,
    DirectionAngles,
    classify_levels,
    level_intervals,
    log_norms,
)
from spiralglue.schedule import (
    check_log_radius,
    level_weights_log,
    log_radius,
    ramp_angle_log,
    sandwich_angles_log,
)
from spiralglue.spaces import Lp, WeightedLp, norm, norms, row_blocks


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


def sandwich_angles(sched, level: int, nx: float, ny: float) -> tuple[float, float, float]:
    """sandwich_angles_log at the norms nx >= ny > 0."""
    return sandwich_angles_log(sched, level, math.log(nx), math.log(ny))


def _lp_value(a: np.ndarray, p: float) -> float:
    # a is already elementwise non-negative
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    if p == 1.0:
        return float(a.sum())
    m = float(a.max(initial=0.0))
    if m == 0.0:
        return 0.0
    a = a / m
    if p == 2.0:
        return m * float(math.sqrt(np.dot(a, a)))
    return m * float(np.sum(a**p) ** (1.0 / p))


def norm_scalar(space, x) -> float:
    """The norm of one vector, by a branch per norm kind."""
    x = np.asarray(x, dtype=float)
    assert x.shape == (space.dim,)
    spec = space.norm
    if isinstance(spec, Lp):
        return _lp_value(np.abs(x), spec.p)
    if isinstance(spec, WeightedLp):
        a = np.abs(x)
        if spec.p == math.inf:
            return float((spec.weights * a).max())
        m = float(a.max(initial=0.0))
        if m == 0.0:
            return 0.0
        return m * float(np.sum(spec.weights * (a / m) ** spec.p) ** (1.0 / spec.p))
    return float(np.max(np.abs(spec.functionals @ x)))


def apply_scalar(m, x) -> np.ndarray:
    """The image of one vector, by a matrix-vector product."""
    x = np.asarray(x, dtype=float)
    assert x.shape == (m.source.dim,)
    return m.matrix @ x


def blend_apply_scalar(c: float, s: float, first, second, x) -> np.ndarray:
    """c*(first x) + s*(second x) for one vector."""
    return c * apply_scalar(first, x) + s * apply_scalar(second, x)


def level_map_scalar(g, level: int, x) -> np.ndarray:
    """The level's blend of maps `level` and `level+1` at the ramp angle of
    norm(x), for one vector."""
    log_t = log_radius(norm(g.source, x))
    check_log_radius(g.schedule, log_t)
    c, s = level_weights_log(g.schedule, level, log_t)
    return blend_apply_scalar(c, s, g.map_at(level), g.map_at(level + 1), x)


def blend_decomposition_residual_scalar(g, level: int, x, y) -> float:
    """The defect of T(x) - T(y) = G_sigma(x - y) + 2 sin((ax - ay)/2) G_theta(y)
    for one pair, scaled by norm(x) + norm(y)."""
    nx, ny = norm(g.source, x), norm(g.source, y)
    ax, ay, theta = sandwich_angles(g.schedule, level, nx, ny)
    first, second = g.map_at(level), g.map_at(level + 1)
    lhs = level_map_scalar(g, level, x) - level_map_scalar(g, level, y)
    rhs = blend_apply_scalar(math.cos(ax), math.sin(ax), first, second, x - y)
    rhs = rhs + 2.0 * math.sin(0.5 * (ax - ay)) * blend_apply_scalar(
        math.cos(theta), math.sin(theta), first, second, y
    )
    return norm(g.target, lhs - rhs) / (nx + ny)


def decompose_first_match(pts, sched) -> AnnulusDecomposition:
    """The decompose with a per-difference loop: a bitwise repeat joins the
    direction of its first occurrence (the `seen` dict), and every other
    difference scans the directions found so far for the first within
    _DIR_TOL."""
    m = sched.levels
    logs = log_norms(pts)
    check_log_radius(sched, logs)
    order = np.argsort(np.asarray(pts.ids))
    dim = pts.space.dim
    members = []
    dirs = []
    for level in range(1, m + 1):
        shell_lo = sched.log_R[level - 2] if level >= 2 else -math.inf
        shell_hi = sched.log_r[level] if level < m else sched.log_coverage
        in_shell = (logs == -math.inf) | ((shell_lo < logs) & (logs <= shell_hi))
        here = order[in_shell[order]]
        rows = pts.coords[here]
        logs_here = logs[here]
        if not pts.includes_origin:
            rows = np.vstack([rows, np.zeros(dim)])
            logs_here = np.append(logs_here, -math.inf)
        log_ri = sched.log_r[level - 1]
        log_Ri = sched.log_R[level - 1]
        ramp = ramp_angle_log(sched, level, logs_here).tolist()
        found = np.empty((16, dim))  # directions in order of discovery; grows by doubling
        angles = []
        seen = {}
        for a in np.flatnonzero(logs_here > log_ri).tolist():
            ys = np.flatnonzero(logs_here <= min(log_Ri, logs_here[a]))
            ys = ys[ys != a]
            for block in row_blocks(len(ys), dim):
                diff = rows[a] - rows[ys[block]]
                for u in diff / norms(pts.space, diff)[:, None]:
                    key = u.tobytes()
                    k = seen.get(key)
                    if k is None:
                        k = _first_match(found[: len(angles)], u)
                        if k < 0:
                            k = len(angles)
                            if k == len(found):
                                found = np.concatenate([found, np.empty_like(found)])
                            found[k] = u
                            angles.append([])
                        seen[key] = k
                    angles[k].append(ramp[a])
        found = found[: len(angles)].copy()
        found.flags.writeable = False
        members.append(tuple(int(pts.ids[k]) for k in here.tolist()))
        dirs.append(
            tuple(
                DirectionAngles(u, tuple(sorted(set(ang))))
                for u, ang in zip(found, angles)
            )
        )
    return AnnulusDecomposition(m, tuple(members), tuple(dirs))


def _first_match(found: np.ndarray, u: np.ndarray) -> int:
    """Index of the first row of found within _DIR_TOL of u (max-abs), else -1."""
    for block in row_blocks(len(found), u.size):
        hit = np.flatnonzero(np.abs(found[block] - u).max(axis=1) <= _DIR_TOL)
        if hit.size:
            return block.start + int(hit[0])
    return -1


def leaders_scan(rows) -> list[int]:
    """Per row, in order, the first earlier leader within _DIR_TOL, found by
    scanning the leaders so far; a row without one leads itself."""
    rows = np.asarray(rows, dtype=float)
    leaders: list[int] = []
    lead = []
    for j, u in enumerate(rows):
        k = _first_match(rows[leaders], u)
        if k < 0:
            leaders.append(j)
            lead.append(j)
        else:
            lead.append(leaders[k])
    return lead
