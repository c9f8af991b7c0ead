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

from .errors import FloatRangeExceeded
from .schedule import MAX_LOG, RadiiSchedule, check_log_radius, log_radius, ramp_angle_log
# norm is not called here, but bench/spans.py wraps pointset.norm
from .spaces import (  # noqa: F401
    Lp,
    NormSpec,
    Space,
    distinct_rows,
    norm,
    norm_from_dict,
    norm_to_dict,
    norms,
    row_blocks,
)

PLACEMENTS = ("plateau", "ramp", "mixed")  # the norm sub-regions generate_annular draws from


@dataclass(frozen=True, eq=False)
class LocallyFiniteSet:
    """A finite batch of distinct points with finite coordinates in a source space."""

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
        bad = np.flatnonzero(~np.isfinite(c).all(axis=1))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"point {k} has a non-finite coordinate: {c[k].tolist()}")
        if len(set(self.ids)) != n:
            raise ValueError("point ids must be distinct")
        seen = {tuple(row) for row in c}
        if len(seen) != n:
            raise ValueError("points must be distinct")

    def __len__(self) -> int:
        return len(self.ids)


def make_point_set(space: Space, coords, ids=None) -> LocallyFiniteSet:
    c = np.asarray(coords, dtype=float)
    if c.shape == (0,):  # an empty list of rows: no points
        c = c.reshape(0, space.dim)
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


def pairs_at(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b > a) of n points at the indices start, ..., stop - 1
    of their row-major order: row a holds the n - 1 - a pairs of a, and pair
    (a, b) has index starts[a] + (b - a - 1), starts[a] the sum of the
    lengths of the rows before a. The first points are runs, one per row
    that the range meets."""
    if stop <= start:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    lengths = np.arange(n - 1, 0, -1)
    ends = np.cumsum(lengths)
    first, last = np.searchsorted(ends, [start, stop - 1], side="right").tolist()
    rows = np.arange(first, last + 1)
    starts = ends[first : last + 1] - lengths[first : last + 1]
    counts = np.minimum(ends[first : last + 1], stop) - np.maximum(starts, start)
    a = np.repeat(rows, counts)
    # b - index is constant along a row: a + 1 - the row's first index
    return a, np.arange(start, stop) + np.repeat(rows + 1 - starts, counts)


def pair_blocks(n: int, width: int):
    """The pairs (a, b > a) of n points in row-major order, in the blocks of
    row_blocks(n (n - 1) / 2, width): yields (block, a, b), the block's
    slice of the pair indices and its pairs' two index arrays."""
    for block in row_blocks(n * (n - 1) // 2, width):
        yield (block, *pairs_at(n, block.start, block.stop))


@dataclass(frozen=True, eq=False)
class AnnulusDecomposition:
    """Per-level shell membership and the direction/angle bookkeeping.

    member_ids lists input points only; the origin is adjoined to every shell
    implicitly (and explicitly when the input contains it). directions[i] is
    level i's (k_i, dim) array of distinct unit rows, and checks[i] =
    (direction, angle) its distinct recorded pairs of a row index and a ramp
    angle as two 1-d arrays, sorted by both; every array is read-only.
    """

    levels: int
    member_ids: tuple[tuple[int, ...], ...]
    directions: tuple[np.ndarray, ...]
    checks: tuple[tuple[np.ndarray, np.ndarray], ...]


def decompose(pts: LocallyFiniteSet, sched: RadiiSchedule) -> AnnulusDecomposition:
    """Build the shells, unit difference directions, and recorded ramp angles.

    Shell i holds the points whose level interval (level_intervals, the
    sweep's rule, which also checks the schedule's coverage) contains i. A
    direction enters level i for every ordered pair (x, y) of shell members
    with norm(x) > r_i, norm(y) <= R_i, norm(x) >= norm(y), x != y; the origin
    participates as y at every level whether or not the input contains it.
    Pairs are taken in row-major (x, y) order over the shell sorted by id.
    The level's directions are its bit-distinct unit differences in order of
    first occurrence, and each check pairs a direction with the ramp angle
    of x for a pair whose unit difference has that direction's bits.

    Each level is formed a block at a time: the mask of x rows against the
    shell for a chunk of x rows (row_blocks of the shell's width), and the
    unit differences of the chunk's pairs in row blocks of at most
    BATCH_ELEMENTS elements, each grouped alone by `distinct_rows`, which
    takes one array. A block leaves only its bitwise distinct rows and its
    distinct (row, angle) keys, of the row's index among all kept rows and
    the angle's rank; no array of one entry per pair outlives its block. At
    the level's end, one `np.unique` on the kept rows' bytes joins the rows
    of equal bits that several blocks kept, or that a hash collision split
    (distinct_rows' missed merge: a collided row is a group of its own),
    numbered by first row, which is their order of first occurrence among
    the pairs. The checks are one sort of the keys with their rows so
    numbered.
    """
    m = sched.levels
    logs = log_norms(pts)
    lo, hi = level_intervals(sched, logs)
    order = np.argsort(np.asarray(pts.ids))
    dim = pts.space.dim
    members, dirs, checks = [], [], []
    for level in range(1, m + 1):
        in_shell = (lo <= level) & (level <= hi)
        here = order[in_shell[order]]
        rows = pts.coords[here]
        logs_here = logs[here]
        if not pts.includes_origin:
            rows = np.vstack([rows, np.zeros(dim)])
            logs_here = np.append(logs_here, -math.inf)
        xs = np.flatnonzero(logs_here > sched.log_r[level - 1])
        is_y = logs_here <= sched.log_R[level - 1]
        values, rank = np.unique(ramp_angle_log(sched, level, logs_here), return_inverse=True)
        # each block's distinct rows, and its distinct (row, angle) pairs as
        # one integer key of the row's index among all kept rows and the
        # angle's rank (ramp angles are never NaN or -0.0)
        kept, keys, done = [np.empty((0, dim))], [np.empty(0, dtype=np.intp)], 0
        for chunk in row_blocks(len(xs), len(rows)):
            x = xs[chunk]
            pair_ok = is_y & (logs_here <= logs_here[x, None])
            pair_ok[np.arange(len(x)), x] = False
            xi, ys = np.nonzero(pair_ok)
            src = x[xi]
            for block in row_blocks(len(src), dim):
                units = rows[src[block]]
                units -= rows[ys[block]]
                units /= norms(pts.space, units)[:, None]
                distinct, key = distinct_rows(units)
                key += done
                keys.append(np.unique(key * len(values) + rank[src[block]]))
                kept.append(distinct)
                done += len(distinct)
        distinct = np.concatenate(kept)
        del kept
        # only the indices: np.unique's values, a copy of the distinct rows'
        # bytes, would otherwise live on through the next level's blocks
        first, pattern = np.unique(
            distinct.view(f"V{8 * dim}").ravel(), return_index=True, return_inverse=True
        )[1:]
        number = np.empty(len(first), dtype=np.intp)
        number[np.argsort(first)] = np.arange(len(first))
        row, angle = np.divmod(np.concatenate(keys), len(values))
        del keys
        direction, angle = np.divmod(
            np.unique(number[pattern][row] * len(values) + angle), len(values)
        )
        angle = values[angle]
        found = distinct[np.sort(first)]
        for array in (found, direction, angle):
            array.flags.writeable = False
        members.append(tuple(int(pts.ids[k]) for k in here.tolist()))
        dirs.append(found)
        checks.append((direction, angle))
    return AnnulusDecomposition(m, tuple(members), tuple(dirs), tuple(checks))


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
    always included, as point id 0. Each point draws its log norm, then its
    direction (drawn again while zero); the directions are scaled to their
    norms in one at_log_norms call.
    """
    if per_level < 1:
        raise ValueError("per_level must be >= 1")
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}")
    space = Space(dim, norm_spec)
    rng = np.random.default_rng(seed)
    rows = np.zeros((1 + sched.levels * per_level, dim))
    log_targets = []
    # the largest log norm requested, kept one below the float range
    log_ceiling = MAX_LOG - 1.0
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
            if log_target > log_ceiling:
                raise FloatRangeExceeded("requested norms", level)
            d = rng.standard_normal(dim)
            # a norm is zero exactly on the zero vector
            while not d.any():  # pragma: no cover - probability zero
                d = rng.standard_normal(dim)
            log_targets.append(log_target)
            rows[len(log_targets)] = d
    rows[1:] = at_log_norms(space, log_targets, rows[1:])
    return make_point_set(space, rows)


def at_log_norms(space: Space, logs, rows: np.ndarray) -> np.ndarray:
    """Each nonzero row rescaled to the norm exp(log) of its entry in logs,
    by the scalar factor math.exp(log - math.log(norm(row))): the one
    rescaling rule of generated points and of sampled pairs."""
    scale = [math.exp(t - math.log(n)) for t, n in zip(logs, norms(space, rows).tolist())]
    return rows * np.array(scale)[:, None]


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
