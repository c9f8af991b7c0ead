"""Inequality verification: per-pair sandwiches, closed-form bounds, distortion.

The two-sided bounds read their parameters from the artifacts that own them:
the spiral speed and level gap from the schedule, the isometry budget from the
bank, and the selection slack from the chosen subsequence. A report therefore
reflects what was actually built, not what was requested.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bank import BlockShift, SelectionResult, UserMatrices, blend_threshold, build_bank
from .errors import BoundViolated, NonPositiveLowerBound
from .glue import GlueEmbedding, blend_decomposition_residual, embed, level_map
from .pointset import LocallyFiniteSet, at_log_norms, classify_levels, level_intervals, pair_blocks
from .schedule import (
    HALF_PI,
    Params,
    build_schedule,
    log_radius,
    ramp_angle_log,
    sandwich_theta,
)
from .spaces import Lp, Space, direction_gain, norm, norms, row_blocks

SQRT2 = math.sqrt(2.0)
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class TheoreticalBounds:
    """Closed-form two-sided bounds and their ratio.

    l_same/u_same bracket same-shell pair ratios, l_far/u_far bracket pairs
    separated by at least a full level; ratio = max(u)/min(l) bounds the
    distortion of the assembled embedding.
    """

    l_same: float
    u_same: float
    l_far: float
    u_far: float
    ratio: float


def bounds_from_values(eps: float, delta: float, gamma: float, zeta: float) -> TheoreticalBounds:
    """Evaluate the four closed forms; gamma and zeta may be zero."""
    base = blend_threshold(zeta)
    l_same = base - eps * SQRT2 * (1.0 + gamma)
    u_same = SQRT2 * (1.0 + gamma) * (1.0 + eps)
    l_far = (base - SQRT2 * (1.0 + gamma) * delta) / (1.0 + delta)
    u_far = SQRT2 * (1.0 + gamma) * (1.0 + delta) / (1.0 - delta)
    lo = min(l_same, l_far)
    if lo <= 0.0:
        raise NonPositiveLowerBound(
            f"lower bounds are ({l_same!r}, {l_far!r}); parameters are too large"
        )
    return TheoreticalBounds(l_same, u_same, l_far, u_far, max(u_same, u_far) / lo)


def theoretical_bounds(params: Params) -> TheoreticalBounds:
    return bounds_from_values(params.eps, params.delta, params.gamma, params.zeta)


def solve_params(eps_target: float) -> Params:
    """Parameters whose bounds ratio is at most 3 + eps_target.

    Shrinks a common scale s geometrically (eps = delta = s/2, gamma = zeta = s)
    until both lower bounds clear sqrt(2)/(3 sqrt(1 + eps_target/3)) and both
    upper bounds stay below sqrt(2) sqrt(1 + eps_target/3); the limits are
    sqrt(2)/3 and sqrt(2), so the loop terminates for every finite
    eps_target > 0; any other (at NaN no comparison holds) raises ValueError.
    """
    if not (0.0 < eps_target < math.inf):
        raise ValueError(f"eps_target must be finite and positive, got {eps_target!r}")
    bump = math.sqrt(1.0 + eps_target / 3.0)
    lo_target = SQRT2 / (3.0 * bump)
    hi_target = SQRT2 * bump
    s = 0.16
    while True:
        try:
            b = bounds_from_values(s / 2.0, s / 2.0, s, s)
        except NonPositiveLowerBound:
            s /= 2.0
            continue
        if min(b.l_same, b.l_far) >= lo_target and max(b.u_same, b.u_far) <= hi_target:
            return Params(s / 2.0, s / 2.0, s, s)
        s /= 2.0


def spreading_lower_bound(c: float, s: float) -> float:
    """Closed-form lower bound on the two-coefficient spreading limit."""
    if c < 0.0 or s < 0.0:
        raise ValueError("coefficients must be non-negative")
    if c + s == 0.0:
        raise ValueError("coefficients must not both be zero")
    return max(c * (c + s) / (c + 2.0 * s), s * (c + s) / (2.0 * c + s))


def spreading_bound_minimum(grid_size: int) -> tuple[float, float]:
    """Minimum of the spreading lower bound over angles in [0, pi/2].

    The minimum is taken at pi/4 in closed form, where the two branches
    meet: the left branch bounds the maximum up to pi/4 and the right branch
    after it. On a grid of grid_size angles and pi/4 itself, it asserts the
    left branch non-increasing up to pi/4 and the right branch
    non-decreasing after, so that no grid angle holds a smaller value.
    Returns (minimum, argmin angle).
    """
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    quarter = 0.25 * math.pi
    taus = np.union1d(np.linspace(0.0, 0.5 * math.pi, grid_size), [quarter])
    c, s = np.cos(taus), np.sin(taus)
    left = c * (c + s) / (c + 2.0 * s)
    right = s * (c + s) / (2.0 * c + s)
    dl = np.diff(left[taus <= quarter])
    if dl.size and dl.max() > 1e-12:
        raise BoundViolated("left_branch_monotone", float(-dl.max()))
    dr = np.diff(right[taus >= quarter])
    if dr.size and dr.min() < -1e-12:
        raise BoundViolated("right_branch_monotone", float(dr.min()))
    return spreading_lower_bound(math.cos(quarter), math.sin(quarter)), quarter


@dataclass(frozen=True)
class PairCheck:
    """One verified pair: its ratio, the applicable brackets' worst slacks,
    and the sandwich ingredients when the pair sits in a shared shell."""

    x_id: int
    y_id: int
    kind: str
    ratio: float
    sigma: float | None
    theta: float | None
    g_sigma_w: float | None
    g_theta_v: float | None
    lower_slack: float
    upper_slack: float


def _plateau_index(sched, log_t: np.ndarray) -> np.ndarray:
    """Per log radius, the 1-based plateau index k with log_t in
    [log R_{k-1}, log r_k] (k = 1 up to r_1, k = levels + 1 from R_levels on),
    and 0 off the plateaus."""
    k = np.searchsorted(sched.log_r, log_t, side="left")
    # k ramps start below log_t, so plateau k + 1 is the only one that can hold it
    return np.where((k == 0) | (log_t >= sched.log_R[k - 1]), k + 1, 0)


# the two clamped ramp angles c, by the c of a _LevelGains theta entry
_CLAMPS = np.array([0.0, HALF_PI])


class _LevelGains:
    """One level's sandwich gains per point, each NaN until a pair first
    needs it: sigma[x] = G_sigma(x/|x|) at the ramp angle sigma_x of point
    x, and theta[2 y + c] = G_theta(y/|y|) at theta(_CLAMPS[c], alpha_y) of
    point y, where angle holds each point's ramp angle."""

    def __init__(self, g: GlueEmbedding, level: int, logs: np.ndarray):
        self.angle = ramp_angle_log(g.schedule, level, logs)
        self.sigma = np.full(len(logs), math.nan)
        self.theta = np.full(2 * len(logs), math.nan)


@dataclass(frozen=True, eq=False)
class _Points:
    """What the pair judge reads of each point, computed once per point: the
    coordinates, ids, source norms and their log radii, the level interval
    [lo, hi], the plateau index (0 off the plateaus), the unit rows
    coords / norms, and per level the sandwich gains of the points, filled
    as the pairs need them (see _sandwich)."""

    coords: np.ndarray
    ids: np.ndarray
    norms: np.ndarray
    logs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    plateau: np.ndarray
    units: np.ndarray
    gains: dict = field(default_factory=dict)

    def level_gains(self, g: GlueEmbedding, level: int) -> _LevelGains:
        if level not in self.gains:
            self.gains[level] = _LevelGains(g, level, self.logs)
        return self.gains[level]


def _points(g: GlueEmbedding, coords, ids, source_norms) -> _Points:
    sched = g.schedule
    logs = log_radius(source_norms)
    lo, hi = level_intervals(sched, logs)
    plateau = _plateau_index(sched, logs)
    # the origin's unit row is the zero row
    units = np.divide(
        coords, source_norms[:, None], out=np.zeros(coords.shape), where=source_norms[:, None] > 0.0
    )
    return _Points(coords, np.asarray(ids), source_norms, logs, lo, hi, plateau, units)


# pair kinds by class code, formatted with the code's levels, and class names
_KINDS = ("plateau:{}", "same:{}", "ray:{}", "far:{}-{}")
_CLASSES = tuple(kind.split(":")[0] for kind in _KINDS)
_PLATEAU, _SAME, _RAY, _FAR = range(4)
_SANDWICH_FIELDS = ("sigma", "theta", "g_sigma_w", "g_theta_v")
# blocks of pairs are sized as rows of at least this many elements: the block
# judge keeps a few dozen 1-d arrays of its block alive at once, which for a
# narrow source would otherwise be many times the batch budget
_PAIR_WIDTH = 16


class PairTable(Sequence):
    """The judged pairs as 1-d columns, one entry per pair in sweep order.

    Columns: x_id, y_id; the class code (plateau, same, ray, far) with its
    level (the plateau index, the shared level, or a far pair's y level)
    and x_level (a far pair's x level, else 0); ratio; sigma, theta,
    g_sigma_w and g_theta_v, NaN where the pair has no sandwich; and the
    lower and upper slacks. As a sequence it holds PairCheck objects, built
    only when indexed or iterated.
    """

    def __init__(self, size: int):
        self.x_id = np.empty(size, dtype=np.int64)
        self.y_id = np.empty(size, dtype=np.int64)
        self.code = np.empty(size, dtype=np.int8)
        self.level = np.empty(size, dtype=np.int64)
        self.x_level = np.empty(size, dtype=np.int64)
        self.ratio = np.empty(size)
        for name in _SANDWICH_FIELDS:
            setattr(self, name, np.empty(size))
        self.lower_slack = np.empty(size)
        self.upper_slack = np.empty(size)

    def _freeze(self) -> None:
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ratio)

    def kinds(self, rows: slice = slice(None)) -> list[str]:
        """The kind string of each pair in rows, formatted once per distinct
        class and levels."""
        code, level, x_level = self.code[rows], self.level[rows], self.x_level[rows]
        if not len(code):
            return []
        span = int(max(level.max(), x_level.max())) + 1
        key = (code.astype(np.int64) * span + level) * span + x_level
        distinct, inverse = np.unique(key, return_inverse=True)
        names = [_KINDS[k // span**2].format(k // span % span, k % span) for k in distinct.tolist()]
        return np.array(names, dtype=object)[inverse].tolist()

    def _checks(self, rows: slice):
        def optional(name):
            return [None if math.isnan(v) else v for v in getattr(self, name)[rows].tolist()]

        columns = (
            self.x_id[rows].tolist(),
            self.y_id[rows].tolist(),
            self.kinds(rows),
            self.ratio[rows].tolist(),
            *map(optional, _SANDWICH_FIELDS),
            self.lower_slack[rows].tolist(),
            self.upper_slack[rows].tolist(),
        )
        return map(PairCheck, *columns)

    def __iter__(self):
        return self._checks(slice(None))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._checks(index))
        j = range(len(self))[index]
        return next(self._checks(slice(j, j + 1)))


def _unfilled(keys: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending, whose entries of gains are NaN."""
    keys = keys[np.isnan(gains[keys])]
    # most blocks find every entry they need filled
    return np.unique(keys) if keys.size else keys


def _sandwich(g: GlueEmbedding, level: int, pts: _Points, xs, ys, diff, ndiff):
    """The per-pair sandwich of the shared-shell pairs (xs[j], ys[j]) of the
    point table on one level, with norm(x) >= norm(y) > 0 and diff[j] =
    x - y of source norm ndiff[j]: the angles sigma and theta of each pair,
    the gains G_sigma(diff/ndiff) and G_theta(y/|y|), and the bracket
    G_sigma -+ eps G_theta.

    A pair whose diff has the bits of x (the smaller point rounds away)
    has the sigma row x/|x| of its point at the angle sigma_x, so it takes
    the point's gain of the level's table; a pair whose sigma is clamped
    (0 or pi/2) has the theta angle theta(sigma, alpha_y) of its point's
    table. In row blocks of pairs, the table entries the block needs that
    no earlier block filled, then the block's other sigma rows, then those
    entries of the theta table, then its other theta rows go to one
    direction_gain call. A table entry has the bits of every pair row it
    stands for (the same norms row kernel, division and sandwich_theta),
    and direction_gain is row by row, so no bit moves. An entry is filled
    only by a call that passed the unit check, so a non-unit unit row
    raises at the first block that needs it, and a one-pair call passes
    its sigma row before its theta row, so a non-unit row is the first of
    its pair."""
    table = pts.level_gains(g, level)
    sigma, alpha = table.angle[xs], table.angle[ys]
    theta = sandwich_theta(sigma, alpha)
    # each pair's entry of the theta table, read where sigma is clamped
    entry = 2 * ys + (sigma != 0.0)
    clamped = (sigma == 0.0) | (sigma == HALF_PI)
    k, dim = diff.shape
    first, second = g.map_at(level), g.map_at(level + 1)
    gsw, gtv = np.empty(k), np.empty(k)
    for block in row_blocks(k, 2 * dim):
        xb, eb = xs[block], entry[block]
        # bit-equal rows: a uint64 compare tells -0.0 from 0.0
        at_x = (diff[block].view(np.uint64) == pts.coords[xb].view(np.uint64)).all(axis=1)
        fill_s = _unfilled(xb[at_x], table.sigma)
        own = np.flatnonzero(~at_x)
        fill_t = _unfilled(eb[clamped[block]], table.theta)
        free = np.flatnonzero(~clamped[block])
        angles = (
            table.angle[fill_s],
            sigma[block][own],
            sandwich_theta(_CLAMPS[fill_t % 2], table.angle[fill_t // 2]),
            theta[block][free],
        )
        rows = (
            pts.units[fill_s],
            diff[block][own] / ndiff[block][own, None],
            pts.units[fill_t // 2],
            pts.units[ys[block][free]],
        )
        counts = np.cumsum([len(a) for a in angles])
        gains = np.empty(0)
        if counts[-1]:
            gains = direction_gain(np.concatenate(angles), np.concatenate(rows), first, second)
        sigma_fill, sigma_own, theta_fill, theta_free = np.split(gains, counts[:-1])
        table.sigma[fill_s] = sigma_fill
        table.theta[fill_t] = theta_fill
        gsw[block] = table.sigma[xb]
        gsw[block.start + own] = sigma_own
        gtv[block] = table.theta[eb]
        gtv[block.start + free] = theta_free
    eps = g.schedule.params.eps
    return sigma, theta, gsw, gtv, gsw - eps * gtv, gsw + eps * gtv


def _check_tol(tol: float) -> None:
    # with a NaN or infinite tol no `slack < -tol` holds, so no check could fail
    if not (0.0 <= tol < math.inf):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def check_pair(
    g: GlueEmbedding, x, y, x_id: int = -1, y_id: int = -1, tol: float = DEFAULT_TOL
) -> PairCheck:
    """Verify every inequality applicable to a single ordered pair (norm(x) >= norm(y)).

    Shared-shell pairs with a nonzero smaller norm get the per-pair sandwich,
    plus the parameter-level bracket when the shell side conditions hold;
    plateau pairs get the sharp near-isometry bracket; a pair against the
    origin on a ramp gets the single-point bracket; far pairs get the norm-gap
    chain and the far bracket. Raises BoundViolated when any slack < -tol,
    and ValueError for a tol that is not finite and >= 0. This is element 0
    of the sweep's judge on a one-pair table.
    """
    _check_tol(tol)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bounds = embedding_bounds(g)
    space = g.source
    nx, ny = norm(space, x), norm(space, y)
    diff = x - y
    ndiff = norm(space, diff)
    images = embed(g, np.array([x, y]))
    nimage = norm(g.target, images[0] - images[1])
    table = _points(g, np.array([x, y]), (x_id, y_id), np.array([nx, ny]))
    out = PairTable(1)
    pair = np.array([0]), np.array([1])
    _judge_block(
        g, bounds, table, *pair, diff[None], np.array([ndiff]), np.array([nimage]), tol, out, 0
    )
    return out[0]


def _judge_pairs(g, bounds, pts: _Points, xs, ys, diff, ndiff, nimage, tol, out, at) -> None:
    """Write check_pair's verdict on each ordered pair (xs[j], ys[j]) of the
    point table into rows at, at + 1, ... of the PairTable out, given
    diff[j] = x - y, its source norm ndiff[j] and the target norm nimage[j]
    of embed(x) - embed(y). Raises the error of the first offending pair,
    and within it of its first failing check, as check_pair would; a
    ValueError's message is prefixed with the pair, as `pair (x_id, y_id): `."""
    try:
        _judge_block(g, bounds, pts, xs, ys, diff, ndiff, nimage, tol, out, at)
    except ValueError:
        # the order and distinctness checks and the gains run over the whole
        # block before any bracket, so a ValueError at pair j may hide a
        # bracket violation at an earlier pair: judge one pair at a time
        for j in range(len(xs)):
            one = slice(j, j + 1)
            pair = (xs[one], ys[one], diff[one], ndiff[one], nimage[one])
            try:
                _judge_block(g, bounds, pts, *pair, tol, PairTable(1), 0)
            except ValueError as exc:
                where = f"pair ({pts.ids[xs[j]]}, {pts.ids[ys[j]]})"
                raise ValueError(f"{where}: {exc}") from exc
        raise


def _judge_block(g, bounds, pts: _Points, xs, ys, diff, ndiff, nimage, tol, out, at) -> None:
    """_judge_pairs over the whole block at once: a BoundViolated is that of
    the first offending pair, a ValueError may be of any pair."""
    sched = g.schedule
    nx, ny = pts.norms[xs], pts.norms[ys]
    if np.any(ny > nx):
        raise ValueError("caller must order the pair so that norm(x) >= norm(y)")
    if np.any(ndiff == 0.0):
        raise ValueError("points must be distinct")
    ratio = nimage / ndiff
    gamma = g.bank.gamma
    delta = sched.params.delta
    k = len(xs)

    kx, ky = pts.plateau[xs], pts.plateau[ys]
    same, level, y_level, x_level = classify_levels(
        pts.lo[xs], pts.hi[xs], pts.lo[ys], pts.hi[ys]
    )
    # the sharp bracket needs a single active certified map: either both
    # points share a plateau, or the smaller one is the origin
    plateau = same & (kx > 0) & ((kx == ky) | (ny == 0.0))
    sandwich = same & (ny > 0.0)
    # smaller point is the origin and the larger sits on a ramp
    ray = same & (ny == 0.0) & (kx == 0)
    far = ~same
    shell = (
        sandwich
        & (pts.logs[ys] <= sched.log_R[level - 1])
        & (pts.logs[xs] > sched.log_r[level - 1])
    )

    sigma, theta, gsw, gtv = (np.full(k, math.nan) for _ in _SANDWICH_FIELDS)
    sandwich_lo, sandwich_hi = np.zeros(k), np.zeros(k)
    for lv in np.unique(level[sandwich]).tolist():
        rows = np.flatnonzero(sandwich & (level == lv))
        xr, yr = xs[rows], ys[rows]
        (
            sigma[rows], theta[rows], gsw[rows], gtv[rows], sandwich_lo[rows], sandwich_hi[rows]
        ) = _sandwich(g, lv, pts, xr, yr, diff[rows], ndiff[rows])

    gap = delta * nx - ny
    lo_gap = ndiff - nx * (1.0 - delta)
    hi_gap = nx * (1.0 + delta) - ndiff
    gap_bad = far & (gap < -tol * nx)
    norm_bad = far & (np.minimum(lo_gap, hi_gap) < -tol * nx)
    checks = (
        ("plateau_bracket", plateau, 1.0, 1.0 + gamma),
        ("pair_sandwich", sandwich, sandwich_lo, sandwich_hi),
        ("shell_bracket", shell, bounds.l_same, bounds.u_same),
        ("ray_bracket", ray, blend_threshold(g.selection.zeta), SQRT2 * (1.0 + gamma)),
        ("far_bracket", far, bounds.l_far, bounds.u_far),
    )
    lower_slack = np.full(k, math.inf)
    upper_slack = np.full(k, math.inf)
    bad = gap_bad | norm_bad
    for _, applies, lo, hi in checks:
        sl, su = ratio - lo, hi - ratio
        bad |= applies & ((sl < -tol) | (su < -tol))
        lower_slack = np.minimum(lower_slack, np.where(applies, sl, math.inf))
        upper_slack = np.minimum(upper_slack, np.where(applies, su, math.inf))

    if bad.any():
        j = int(np.argmax(bad))
        where = f"pair ({pts.ids[xs[j]]}, {pts.ids[ys[j]]})"
        nxj = float(nx[j])
        if gap_bad[j]:
            raise BoundViolated("far_norm_gap", float(gap[j]) / nxj, f"{where}: |y| > delta |x|")
        if norm_bad[j]:
            raise BoundViolated(
                "far_norm_bracket",
                min(float(lo_gap[j]), float(hi_gap[j])) / nxj,
                f"{where}: |x-y| outside (1 +- delta)|x|",
            )
        r = float(ratio[j])
        for name, applies, lo, hi in checks:
            if not applies[j]:
                continue
            lo, hi = (float(v[j]) if isinstance(v, np.ndarray) else v for v in (lo, hi))
            if r - lo < -tol:
                raise BoundViolated(name, r - lo, f"{where}: ratio {r!r} below {lo!r}")
            if hi - r < -tol:
                raise BoundViolated(name, hi - r, f"{where}: ratio {r!r} above {hi!r}")

    rows = slice(at, at + k)
    out.x_id[rows], out.y_id[rows] = pts.ids[xs], pts.ids[ys]
    out.code[rows] = np.where(plateau, _PLATEAU, np.where(ray, _RAY, np.where(same, _SAME, _FAR)))
    out.level[rows] = np.where(plateau, kx, np.where(same, level, y_level))
    out.x_level[rows] = np.where(far, x_level, 0)
    out.ratio[rows] = ratio
    for name, column in zip(_SANDWICH_FIELDS, (sigma, theta, gsw, gtv)):
        getattr(out, name)[rows] = column
    out.lower_slack[rows], out.upper_slack[rows] = lower_slack, upper_slack


@dataclass(frozen=True)
class ClassSummary:
    count: int
    min_ratio: float
    max_ratio: float
    min_lower_slack: float
    min_upper_slack: float


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """All pair ratios of a point set under the embedding, with witnesses.

    by_class holds one ClassSummary per class, in order of first appearance
    in the sweep. pair_checks holds every judged pair as columns when the
    sweep kept them, else it is an empty PairTable; images holds the
    read-only (n, target.dim) images of the points in point-set order."""

    min_ratio: float
    max_ratio: float
    distortion: float
    witness_min: tuple[int, int]
    witness_max: tuple[int, int]
    bounds: TheoreticalBounds
    by_class: dict
    pair_checks: PairTable
    images: np.ndarray


def embedding_bounds(g: GlueEmbedding) -> TheoreticalBounds:
    """Bounds evaluated at the parameters the artifacts actually carry."""
    sched = g.schedule
    return bounds_from_values(sched.params.eps, sched.params.delta, g.bank.gamma, g.selection.zeta)


def _keeps_min(kept: float, new: float) -> bool:
    """Whether argmin over (kept, new), in that order, picks kept: it wins
    ties, and the first NaN wins over any number."""
    return kept <= new or kept != kept


def _keeps_max(kept: float, new: float) -> bool:
    return kept >= new or kept != kept


# the rule of each running extreme of a ClassSummary, after its count
_SUMMARY_KEEPS = (_keeps_min, _keeps_max, _keeps_min, _keeps_min)


class _Summaries:
    """The class summaries and ratio witnesses of a sweep, fed one block of
    judged pairs at a time, equal to reductions over the whole sweep's
    columns: classes in order of first appearance, and the first extreme
    pair (the first NaN, as argmin and argmax take it) wins ties.

    A block's classes are reduced as the contiguous runs of a stable sort by
    class, with np.minimum/np.maximum.reduceat. Where values tie, any of
    them has the bits of the first: ratios are norms over positive norms and
    slacks are differences that round an exact 0 to +0.0, so no column holds
    a -0.0 (and a NaN propagates, as it does through argmin)."""

    def __init__(self):
        # class code -> [count, min ratio, max ratio, min lower slack, min upper slack]
        self.classes: dict[int, list] = {}
        self.lo = self.hi = None  # (ratio, (x_id, y_id)) of the witnesses

    def add(self, table: PairTable, rows: slice) -> None:
        code, ratio = table.code[rows], table.ratio[rows]
        order = np.argsort(code, kind="stable")
        counts = np.bincount(code, minlength=len(_CLASSES)).tolist()
        present = [c for c, count in enumerate(counts) if count]
        starts = list(itertools.accumulate((counts[c] for c in present[:-1]), initial=0))
        ratios = ratio[order]
        extremes = zip(
            np.minimum.reduceat(ratios, starts).tolist(),
            np.maximum.reduceat(ratios, starts).tolist(),
            np.minimum.reduceat(table.lower_slack[rows][order], starts).tolist(),
            np.minimum.reduceat(table.upper_slack[rows][order], starts).tolist(),
        )
        found = []
        for c, first, values in zip(present, order[starts].tolist(), extremes):
            kept = self.classes.get(c)
            if kept is None:
                found.append((first, c, [counts[c], *values]))
                continue
            kept[0] += counts[c]
            for k, (keeps, new) in enumerate(zip(_SUMMARY_KEEPS, values), 1):
                if not keeps(kept[k], new):
                    kept[k] = new
        for _, c, summary in sorted(found):
            self.classes[c] = summary
        x_id, y_id = table.x_id[rows], table.y_id[rows]
        lo, hi = int(np.argmin(ratio)), int(np.argmax(ratio))
        if self.lo is None or not _keeps_min(self.lo[0], float(ratio[lo])):
            self.lo = (float(ratio[lo]), (int(x_id[lo]), int(y_id[lo])))
        if self.hi is None or not _keeps_max(self.hi[0], float(ratio[hi])):
            self.hi = (float(ratio[hi]), (int(x_id[hi]), int(y_id[hi])))

    def by_class(self) -> dict:
        return {_CLASSES[c]: ClassSummary(*summary) for c, summary in self.classes.items()}


def _image_differences(images, a, y: int) -> np.ndarray:
    """images[a[j]] - images[b[j]] for consecutive row-major pairs (a[j],
    b[j]) of the images whose first b is y: one gather of the a rows, less
    the slice of images that each run of equal a covers. No b row is
    gathered, and no operand is broadcast (which takes numpy iterator
    buffers)."""
    differences = images[a]
    j = 0
    while j < len(a):
        k = min(len(images) - y, len(a) - j)
        differences[j : j + k] -= images[y : y + k]
        y, j = int(a[j]) + 2, j + k
    return differences


def _image_norms(target: Space, images, a, b, out) -> None:
    """out[j] = the target norm of images[a[j]] - images[b[j]] for the pairs
    (a[j], b[j]) of a block of consecutive row-major pairs of the images, in
    row blocks of the target width, one array of differences at a time."""
    for rows in row_blocks(len(a), target.dim):
        out[rows] = norms(target, _image_differences(images, a[rows], int(b[rows.start])))


def distortion_report(
    g: GlueEmbedding,
    pts: LocallyFiniteSet,
    tol: float = DEFAULT_TOL,
    keep_pairs: bool = True,
    on_block=None,
) -> DistortionReport:
    """Sweep all unordered pairs, check every applicable inequality, and
    assert the measured distortion stays below the closed-form ratio.

    The points are embedded in one call, and each is normed and classified
    once. The pairs (a, b > a) are taken in row-major order and judged in
    blocks of pairs (pointset.pair_blocks), with check_pair's verdict on
    every pair written into the columns of a PairTable, and each block's
    columns are folded into the class summaries and witnesses. With
    keep_pairs the table holds every pair and is the report's pair_checks;
    without it, one table of a block is reused, the report's pair_checks is
    empty, and the sweep keeps no array of one entry per pair. on_block,
    when given, is called as on_block(table, rows) with each judged block's
    rows of the table, in sweep order, before the next block overwrites a
    reused table; a block that raises is not passed. Every temporary of
    pairs times a row width is formed in row blocks. A tol that is not
    finite and >= 0 raises ValueError.
    """
    _check_tol(tol)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    bounds = embedding_bounds(g)
    coords = pts.coords
    table = _points(g, coords, pts.ids, norms(g.source, coords))
    # each pair is ordered by the point set's own norm, larger first, and by
    # the smaller id on ties
    own = norms(pts.space, coords)
    ids = table.ids
    images = embed(g, coords)
    images.flags.writeable = False
    size = n * (n - 1) // 2
    width = max(g.source.dim, _PAIR_WIDTH)
    step = next(row_blocks(size, width)).stop
    out = PairTable(size if keep_pairs else step)
    nimage = np.empty(step)
    summaries = _Summaries()
    for block, a, b in pair_blocks(n, width):
        _image_norms(g.target, images, a, b, nimage)
        keep = (own[a] > own[b]) | ((own[a] == own[b]) & (ids[a] <= ids[b]))
        diff = coords[a] - coords[b]
        np.negative(diff, out=diff, where=~keep[:, None])
        xs, ys = np.where(keep, a, b), np.where(keep, b, a)
        k = block.stop - block.start
        at = block.start if keep_pairs else 0
        _judge_pairs(
            g, bounds, table, xs, ys, diff, norms(g.source, diff), nimage[:k], tol, out, at
        )
        summaries.add(out, slice(at, at + k))
        if on_block is not None:
            on_block(out, slice(at, at + k))
    if not keep_pairs:
        out = PairTable(0)
    out._freeze()

    (min_ratio, witness_min), (max_ratio, witness_max) = summaries.lo, summaries.hi
    distortion = max_ratio / min_ratio
    if distortion > bounds.ratio + tol:
        raise BoundViolated(
            "distortion_vs_bounds",
            bounds.ratio + tol - distortion,
            f"witnesses {witness_max} / {witness_min}",
        )
    by_class = summaries.by_class()
    return DistortionReport(
        min_ratio, max_ratio, distortion, witness_min, witness_max, bounds, by_class, out, images
    )


@dataclass(frozen=True)
class FuzzReport:
    pairs: int
    min_lower_slack: float
    min_upper_slack: float
    max_identity_residual: float


def _fuzz_banks(seed: int):
    """A rotation of small certified banks over different norms and strategies."""
    rng = np.random.default_rng(seed)
    banks = []
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        src = Space(3, Lp(p))
        tgt = Space(12, Lp(p))
        certify = [rng.standard_normal(3) for _ in range(8)]
        banks.append(build_bank(BlockShift(), src, tgt, 0.05, 4, certify))
    src = Space(4, Lp(2.0))
    for _ in range(3):
        mats = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            mats.append(q)
        certify = [rng.standard_normal(4) for _ in range(8)]
        banks.append(build_bank(UserMatrices(tuple(mats)), src, src, 0.05, 4, certify))
    return banks


def fuzz_pair_inequalities(seed: int, n_pairs: int, levels: int = 3) -> FuzzReport:
    """Sample shared-shell pairs across random certified banks and measure the
    worst sandwich slacks and the worst difference-decomposition residual.

    The sandwich and the decomposition identity hold for any pair of linear
    maps, so no subsequence selection is involved; the glue object is built
    with the identity selection. Pair k uses bank k mod the bank count. The
    pairs are drawn a chunk at a time in the order of one pair at a time,
    and each bank's pairs on each level in a chunk are judged as rows.
    Pairs closer than 1e-6 of norm(x) are skipped. A negative n_pairs
    raises ValueError; zero pairs give the empty report.
    """
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be >= 0, got {n_pairs!r}")
    rng = np.random.default_rng(seed)
    banks = _fuzz_banks(seed)
    params = Params(0.05, 0.1, 0.05, 0.05)
    sched = build_schedule(params, 1.0, levels)
    sel = SelectionResult(tuple(range(levels + 1)), (math.inf,) * levels, 0.0, blend_threshold(0.0))
    worst_lo = math.inf
    worst_hi = math.inf
    worst_res = 0.0
    # pairs are drawn and judged in chunks, so that no chunk's images exceed
    # the batch budget
    for chunk in row_blocks(n_pairs, 2 * max(bank.target.dim for bank in banks)):
        draws = {}  # (bank index, level) -> log radii and directions, in draw order
        for k in range(chunk.start, chunk.stop):
            level = int(rng.integers(1, levels + 1))
            lo = sched.log_R[level - 2] if level >= 2 else sched.log_r[0] - 1.0
            hi = sched.log_r[level] if level < levels else sched.log_coverage
            lx, ly = sorted(rng.uniform(lo + 0.01, hi - 0.01, size=2), reverse=True)
            dim = banks[k % len(banks)].source.dim
            dx = rng.standard_normal(dim)
            dy = rng.standard_normal(dim)
            draws.setdefault((k % len(banks), level), []).append((lx, ly, dx, dy))
        for (b, level), pairs in draws.items():
            g = GlueEmbedding(sched, banks[b], sel)
            lx, ly, dx, dy = zip(*pairs)
            x = at_log_norms(g.source, lx, np.array(dx))
            y = at_log_norms(g.source, ly, np.array(dy))
            nx = norms(g.source, x)
            diff = x - y
            ndiff = norms(g.source, diff)
            keep = ~(ndiff < 1e-6 * nx)
            if not keep.any():
                continue
            x, y, nx, diff, ndiff = x[keep], y[keep], nx[keep], diff[keep], ndiff[keep]
            ny = norms(g.source, y)
            ratio = norms(g.target, level_map(g, level, x) - level_map(g, level, y)) / ndiff
            k = len(x)
            pts = _points(g, np.vstack((x, y)), np.arange(2 * k), np.concatenate((nx, ny)))
            xs, ys = np.arange(k), np.arange(k, 2 * k)
            *_, lo_b, hi_b = _sandwich(g, level, pts, xs, ys, diff, ndiff)
            worst_lo = min(worst_lo, float(np.min(ratio - lo_b)))
            worst_hi = min(worst_hi, float(np.min(hi_b - ratio)))
            residuals = blend_decomposition_residual(g, level, x, y)
            worst_res = max(worst_res, float(np.max(residuals)))
    return FuzzReport(n_pairs, worst_lo, worst_hi, worst_res)
