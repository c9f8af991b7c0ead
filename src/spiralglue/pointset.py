"""Finite point sets, their shell decomposition, and pair classification.

The shell at level i collects the points whose norm lies in (R_{i-1}, r_{i+1}]
(with R_0 = 0), plus the origin. Consecutive shells overlap, so any pair of
points either shares a shell, or is separated by at least a full level, in
which case the smaller norm is at most delta times the larger one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .schedule import RadiiSchedule, check_log_radius, log_radius, ramp_angle_log
from .spaces import (
    Lp,
    NormSpec,
    Space,
    Vector,
    norm,
    norm_from_dict,
    norm_to_dict,
    norms,
    row_blocks,
)

_DIR_TOL = 1e-12  # unit directions matching coordinatewise within this are identified
PLACEMENTS = ("plateau", "ramp", "mixed")  # the norm sub-regions generate_annular draws from


@dataclass(frozen=True, eq=False)
class LocallyFiniteSet:
    """A finite batch of distinct points in a source space."""

    space: Space
    ids: tuple[int, ...]
    coords: np.ndarray  # (n, dim)
    includes_origin: bool

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)
        n = len(self.ids)
        if c.shape != (n, self.space.dim):
            raise ValueError(f"coords shape {c.shape} != ({n}, {self.space.dim})")
        if len(set(self.ids)) != n:
            raise ValueError("point ids must be distinct")
        seen = {tuple(row) for row in c}
        if len(seen) != n:
            raise ValueError("points must be distinct")

    def __len__(self) -> int:
        return len(self.ids)


def make_point_set(space: Space, coords, ids=None) -> LocallyFiniteSet:
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"coords must be 2-d, got shape {c.shape}")
    if ids is None:
        ids = tuple(range(c.shape[0]))
    has_origin = bool(np.any(np.all(c == 0.0, axis=1)))
    return LocallyFiniteSet(space, tuple(int(i) for i in ids), c, has_origin)


def point_norms(pts: LocallyFiniteSet) -> np.ndarray:
    return norms(pts.space, pts.coords)


def log_norms(pts: LocallyFiniteSet) -> np.ndarray:
    """Log radii of the points' norms, -inf at the origin."""
    return log_radius(point_norms(pts))


def level_intervals(sched: RadiiSchedule, log_t) -> tuple[np.ndarray, np.ndarray]:
    """Per point of log norm log_t, the contiguous 1-based range [lo, hi] of
    shells containing it (the origin lies in every shell)."""
    log_t = np.asarray(log_t, dtype=float)
    check_log_radius(sched, log_t)
    m = sched.levels
    lo = 1 + np.searchsorted(sched.log_r[1:], log_t, side="left")
    hi = 1 + np.searchsorted(sched.log_R[: m - 1], log_t, side="left")
    return lo, np.where(log_t == -math.inf, m, hi)


def classify_levels(lo_x, hi_x, lo_y, hi_y):
    """Classify ordered pairs (norm(x) >= norm(y)) from their level intervals.

    Returns (same, level, y_level, x_level) arrays: a pair with same set
    shares shell `level`; the smaller norm of any other pair sits in
    (R_{y_level-1}, R_{y_level}] and the larger in (r_{x_level+1},
    r_{x_level+2}], so at least one full level separates them.
    """
    level = np.maximum(lo_x, lo_y)
    return level <= np.minimum(hi_x, hi_y), level, hi_y, lo_x - 1


@dataclass(frozen=True, eq=False)
class DirectionAngles:
    """A unit difference direction with the ramp angles recorded against it."""

    u: Vector
    angles: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class AnnulusDecomposition:
    """Per-level shell membership and the direction/angle bookkeeping.

    member_ids lists input points only; the origin is adjoined to every shell
    implicitly (and explicitly when the input contains it).
    """

    levels: int
    member_ids: tuple[tuple[int, ...], ...]
    directions: tuple[tuple[DirectionAngles, ...], ...]


def decompose(pts: LocallyFiniteSet, sched: RadiiSchedule) -> AnnulusDecomposition:
    """Build the shells, unit difference directions, and recorded ramp angles.

    A direction enters level i for every ordered pair (x, y) of shell members
    with norm(x) > r_i, norm(y) <= R_i, norm(x) >= norm(y), x != y; the origin
    participates as y at every level whether or not the input contains it.
    Pairs are taken in row-major (x, y) order over the shell sorted by id, and
    a direction within _DIR_TOL (max-abs) of an earlier one joins the first
    such direction instead of starting its own.
    """
    m = sched.levels
    logs = log_norms(pts)
    check_log_radius(sched, logs)
    order = np.argsort(np.asarray(pts.ids))
    dim = pts.space.dim
    members: list[tuple[int, ...]] = []
    dirs: list[tuple[DirectionAngles, ...]] = []
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
        angles: list[list[float]] = []
        # a bitwise repeat of a difference always joins the same direction as
        # its first occurrence, so only distinct differences are scanned
        seen: dict[bytes, int] = {}
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


def generate_annular(
    seed: int,
    sched: RadiiSchedule,
    per_level: int,
    dim: int,
    placement: str,
    norm_spec: NormSpec = Lp(2.0),
) -> LocallyFiniteSet:
    """Deterministic pseudo-random points with norms in chosen schedule regions.

    placement selects the norm sub-region per level: "plateau" lands in
    [R_{i-1}, r_i], "ramp" in (r_i, R_i), "mixed" alternates. The origin is
    always included, as point id 0.
    """
    if per_level < 1:
        raise ValueError("per_level must be >= 1")
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}")
    space = Space(dim, norm_spec)
    rng = np.random.default_rng(seed)
    rows = [np.zeros(dim)]
    for level in range(1, sched.levels + 1):
        plateau_lo = sched.log_R[level - 2] if level >= 2 else sched.log_r[0] - math.log(4.0)
        plateau_hi = sched.log_r[level - 1]
        ramp_lo = sched.log_r[level - 1]
        ramp_hi = sched.log_R[level - 1]
        for k in range(per_level):
            if placement == "plateau" or (placement == "mixed" and k % 2 == 0):
                lo, hi = plateau_lo, plateau_hi
            else:
                lo, hi = ramp_lo, ramp_hi
            pad = 0.05 * (hi - lo)
            log_target = rng.uniform(lo + pad, hi - pad)
            if log_target > math.log(np.finfo(float).max) - 1.0:
                raise OverflowError("requested norms exceed the floating range")
            d = rng.standard_normal(dim)
            nd = norm(space, d)
            while nd == 0.0:  # pragma: no cover - probability zero
                d = rng.standard_normal(dim)
                nd = norm(space, d)
            rows.append(d * math.exp(log_target - math.log(nd)))
    return make_point_set(space, np.asarray(rows))


def points_to_dict(pts: LocallyFiniteSet) -> dict:
    return {
        "dim": pts.space.dim,
        "norm": norm_to_dict(pts.space.norm),
        "points": pts.coords.tolist(),
    }


def points_from_dict(d: dict) -> LocallyFiniteSet:
    space = Space(int(d["dim"]), norm_from_dict(d["norm"]))
    return make_point_set(space, np.asarray(d["points"], dtype=float))


def save_points(pts: LocallyFiniteSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(points_to_dict(pts), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_points(path: str) -> LocallyFiniteSet:
    with open(path, encoding="utf-8") as fh:
        return points_from_dict(json.load(fh))
