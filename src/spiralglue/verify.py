"""Inequality verification: per-pair sandwiches, closed-form bounds, distortion.

The two-sided bounds read their parameters from the artifacts that own them:
the spiral speed and level gap from the schedule, the isometry budget from the
bank, and the selection slack from the chosen subsequence. A report therefore
reflects what was actually built, not what was requested.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .bank import BlockShift, SelectionResult, UserMatrices, blend_threshold, build_bank
from .errors import BoundViolated, NonPositiveLowerBound
from .glue import GlueEmbedding, blend_decomposition_residual, embed, embed_window, level_map
from .pointset import LocallyFiniteSet, at_log_norms, classify_levels, level_intervals
from .pointset import pair_blocks
from .schedule import (
    HALF_PI,
    Params,
    build_schedule,
    log_radius,
    ramp_angle_log,
    sandwich_theta,
)
from .spaces import Lp, Space, direction_gain, norm, norms, pair_difference_norms, row_blocks

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


def _spreading_branches(c, s):
    """The two branches of the spreading lower bound at the coefficients c
    and s, floats or arrays; the bound is their maximum."""
    return c * (c + s) / (c + 2.0 * s), s * (c + s) / (2.0 * c + s)


def spreading_lower_bound(c: float, s: float) -> float:
    """Closed-form lower bound on the two-coefficient spreading limit."""
    if c < 0.0 or s < 0.0:
        raise ValueError("coefficients must be non-negative")
    if c + s == 0.0:
        raise ValueError("coefficients must not both be zero")
    return max(_spreading_branches(c, s))


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
    left, right = _spreading_branches(np.cos(taus), np.sin(taus))
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
# blocks of pairs are sized as rows of this many elements: the block judge
# keeps only 1-d arrays of its block alive at once (the table's columns, the
# pairs' point indices and norms, a class's rows), and forms every temporary
# of pairs times a row width (differences, unit rows, blends, image
# differences) in row blocks of that width inside the block, so the source's
# width does not size a block
_PAIR_WIDTH = 8


class PairTable(Sequence):
    """The judged pairs as 1-d columns, one entry per pair in sweep order.

    Columns: x_id, y_id; the class code (plateau, same, ray, far) with its
    level (the plateau index, the shared level, or a far pair's y level)
    and x_level (a far pair's x level, else 0); ratio; sigma, theta,
    g_sigma_w and g_theta_v, NaN where the pair has no sandwich; and the
    lower and upper slacks. The sweep's reused block table is built with
    sandwich=False and has no sandwich columns (each is None, and so is
    each PairCheck's sandwich field), as its readers take only the others;
    check_pair's one-pair table has them. The levels are int16, as no point
    with finite coordinates sits above about level 925 (a level spans at
    least pi/2 in log radius), so a pair takes 45 bytes, or 77 with the
    sandwich columns. As a sequence it holds PairCheck objects, built only
    when indexed or iterated.
    """

    def __init__(self, size: int, sandwich: bool = True):
        self.x_id = np.empty(size, dtype=np.int64)
        self.y_id = np.empty(size, dtype=np.int64)
        self.code = np.empty(size, dtype=np.int8)
        self.level = np.empty(size, dtype=np.int16)
        self.x_level = np.empty(size, dtype=np.int16)
        self.ratio = np.empty(size)
        for name in _SANDWICH_FIELDS:
            setattr(self, name, np.empty(size) if sandwich else None)
        self.lower_slack = np.empty(size)
        self.upper_slack = np.empty(size)

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
            column = getattr(self, name)
            if column is None:
                return repeat(None)
            return [None if math.isnan(v) else v for v in column[rows].tolist()]

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


def _sandwich(g: GlueEmbedding, level: int, pts: _Points, xs, ys, ndiff):
    """The per-pair sandwich of the shared-shell pairs (xs[j], ys[j]) of the
    point table on one level, with norm(x) >= norm(y) > 0 and x - y of
    source norm ndiff[j]: the angles sigma and theta of each pair, the
    gains G_sigma((x - y)/ndiff) and G_theta(y/|y|), and the bracket
    G_sigma -+ eps G_theta.

    A pair whose difference x - y has the bits of x (the smaller point
    rounds away) has the sigma row x/|x| of its point at the angle sigma_x,
    so it takes the point's gain of the level's table; a pair whose sigma
    is clamped (0 or pi/2) has the theta angle theta(sigma, alpha_y) of its
    point's table. The caller cuts the pairs into row blocks of at most
    BATCH_ELEMENTS // (2 source.dim) pairs, so the pairs' differences are
    formed at once, and the table entries the pairs need that no earlier
    call filled, then the other sigma rows, then those entries of the
    theta table, then the other theta rows go to one direction_gain call.
    Their angles and rows are each joined into one array, and the pieces
    dropped, before the call, so that no piece is alive beside the joined
    rows through the gains. A table entry has the bits of every pair row
    it stands for (the same norms row kernel, division and sandwich_theta),
    and direction_gain is row by row, so no bit moves. An entry is filled
    only by a call that passed the unit check, so a non-unit unit row
    raises at the first call that needs it, and a one-pair call passes its
    sigma row before its theta row, so a non-unit row is the first of its
    pair."""
    table = pts.level_gains(g, level)
    sigma, alpha = table.angle[xs], table.angle[ys]
    theta = sandwich_theta(sigma, alpha)
    # each pair's entry of the theta table, read where sigma is clamped
    entry = 2 * ys + (sigma != 0.0)
    clamped = (sigma == 0.0) | (sigma == HALF_PI)
    x = pts.coords[xs]
    diff = x - pts.coords[ys]
    # bit-equal rows: a uint64 compare tells -0.0 from 0.0
    at_x = (diff.view(np.uint64) == x.view(np.uint64)).all(axis=1)
    del x
    fill_s = _unfilled(xs[at_x], table.sigma)
    own = np.flatnonzero(~at_x)
    fill_t = _unfilled(entry[clamped], table.theta)
    free = np.flatnonzero(~clamped)
    counts = np.cumsum([len(fill_s), len(own), len(fill_t), len(free)])
    angles = np.concatenate(
        (
            table.angle[fill_s],
            sigma[own],
            sandwich_theta(_CLAMPS[fill_t % 2], table.angle[fill_t // 2]),
            theta[free],
        )
    )
    rows = np.concatenate(
        (
            pts.units[fill_s],
            diff[own] / ndiff[own, None],
            pts.units[fill_t // 2],
            pts.units[ys[free]],
        )
    )
    del diff
    gains = np.empty(0)
    if counts[-1]:
        gains = direction_gain(angles, rows, g.map_at(level), g.map_at(level + 1))
    del angles, rows
    sigma_fill, sigma_own, theta_fill, theta_free = np.split(gains, counts[:-1])
    table.sigma[fill_s] = sigma_fill
    table.theta[fill_t] = theta_fill
    gsw, gtv = table.sigma[xs], table.theta[entry]
    gsw[own] = sigma_own
    gtv[free] = theta_free
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
    nx, ny = norm(g.source, x), norm(g.source, y)
    images = embed(g, np.array([x, y]))
    ndiff, nimage = norm(g.source, x - y), norm(g.target, images[0] - images[1])
    table = _points(g, np.array([x, y]), (x_id, y_id), np.array([nx, ny]))
    out = PairTable(1)
    pair = np.array([0]), np.array([1]), np.array([ndiff]), np.array([nimage])
    _judge_block(g, bounds, table, *pair, tol, out)
    return out[0]


def _judge_pairs(g, bounds, pts: _Points, xs, ys, ndiff, nimage, tol, out) -> None:
    """Write check_pair's verdict on each ordered pair (xs[j], ys[j]) of the
    point table into row j of the PairTable out, given the source norm
    ndiff[j] of x - y and the target norm nimage[j] of embed(x) - embed(y).
    Raises the error of the first offending pair, and within it of its
    first failing check, as check_pair would; a ValueError's message is
    prefixed with the pair, as `pair (x_id, y_id): `."""
    try:
        _judge_block(g, bounds, pts, xs, ys, ndiff, nimage, tol, out)
    except ValueError:
        # the order and distinctness checks run over the whole block first,
        # and the gains before any violation is raised, so a ValueError at
        # pair j may hide a bracket violation at an earlier pair: judge one
        # pair at a time
        for j in range(len(xs)):
            one = slice(j, j + 1)
            pair = xs[one], ys[one], ndiff[one], nimage[one]
            try:
                _judge_block(g, bounds, pts, *pair, tol, PairTable(1))
            except ValueError as exc:
                where = f"pair ({pts.ids[xs[j]]}, {pts.ids[ys[j]]})"
                raise ValueError(f"{where}: {exc}") from exc
        raise


# check_pair's checks, in the order in which a pair's first failing one is named
_CHECKS = (
    "far_norm_gap",
    "far_norm_bracket",
    "plateau_bracket",
    "pair_sandwich",
    "shell_bracket",
    "ray_bracket",
    "far_bracket",
)


def _judge_block(g, bounds, pts: _Points, xs, ys, ndiff, nimage, tol, out) -> None:
    """_judge_pairs over the whole block at once: a BoundViolated is that of
    the first offending pair, a ValueError may be of any pair.

    Each class is judged on its own rows, and each bracket folds its slacks
    straight into the table's slack columns: far rows take the norm-gap
    chain and the far bracket, plateau and ray rows their own brackets, and
    sandwich rows (shared-shell pairs with y != 0, among them the plateau
    pairs off the origin) the shell bracket and, level by level in row
    blocks, the pair sandwich. Each check notes its first offending row;
    once every gain is taken, the earliest row's first check in _CHECKS
    order is raised. The sandwich columns are written only into a table
    that has them."""
    sched = g.schedule
    gamma = g.bank.gamma
    rows = slice(0, len(xs))
    if np.any(pts.norms[ys] > pts.norms[xs]):
        raise ValueError("caller must order the pair so that norm(x) >= norm(y)")
    if np.any(ndiff == 0.0):
        raise ValueError("points must be distinct")
    ratio = np.divide(nimage, ndiff, out=out.ratio[rows])
    code, level, x_level = out.code[rows], out.level[rows], out.x_level[rows]
    lower, upper = out.lower_slack[rows], out.upper_slack[rows]
    lower.fill(math.inf)
    upper.fill(math.inf)
    found = []  # (row, check, error) of each check's first offending row

    def note(check: str, on, bad, error) -> None:
        if bad.any():
            j = int(np.argmax(bad))
            row = int(on[j])
            pair = (int(pts.ids[xs[row]]), int(pts.ids[ys[row]]))
            found.append((row, _CHECKS.index(check), error(j, pair)))

    def bracket(check: str, on, lo, hi) -> None:
        r = ratio[on]
        sl, su = r - lo, hi - r
        lower[on] = np.minimum(lower[on], sl)
        upper[on] = np.minimum(upper[on], su)

        def error(j, pair):
            # the lower side first, as check_pair raises it
            rj = float(r[j])
            lo_j, hi_j = (float(v[j]) if isinstance(v, np.ndarray) else v for v in (lo, hi))
            where = f"pair {pair}: ratio {rj!r}"
            if rj - lo_j < -tol:
                return BoundViolated(check, rj - lo_j, f"{where} below {lo_j!r}", pair)
            return BoundViolated(check, hi_j - rj, f"{where} above {hi_j!r}", pair)

        note(check, on, (sl < -tol) | (su < -tol), error)

    same, level[:], y_level, x_level[:] = classify_levels(
        pts.lo[xs], pts.hi[xs], pts.lo[ys], pts.hi[ys]
    )
    far = np.flatnonzero(~same)
    # level is the shared level until the sandwich rows have read it
    code.fill(_SAME)
    code[far] = _FAR
    x_level[same] = 0
    if far.size:
        nx, ny, nd = pts.norms[xs[far]], pts.norms[ys[far]], ndiff[far]
        delta = sched.params.delta
        gap = delta * nx - ny
        note(
            "far_norm_gap",
            far,
            gap < -tol * nx,
            lambda j, pair: BoundViolated(
                "far_norm_gap", float(gap[j]) / float(nx[j]), f"pair {pair}: |y| > delta |x|", pair
            ),
        )
        lo_gap = nd - nx * (1.0 - delta)
        hi_gap = nx * (1.0 + delta) - nd
        note(
            "far_norm_bracket",
            far,
            np.minimum(lo_gap, hi_gap) < -tol * nx,
            lambda j, pair: BoundViolated(
                "far_norm_bracket",
                min(float(lo_gap[j]), float(hi_gap[j])) / float(nx[j]),
                f"pair {pair}: |x-y| outside (1 +- delta)|x|",
                pair,
            ),
        )
        del nx, ny, nd, gap, lo_gap, hi_gap
        bracket("far_bracket", far, bounds.l_far, bounds.u_far)
    level[far] = y_level[far]
    del far, y_level

    near = np.flatnonzero(same)
    del same
    kx, ny = pts.plateau[xs[near]], pts.norms[ys[near]]
    origin = ny == 0.0
    # the sharp bracket needs a single active certified map: either both
    # points share a plateau, or the smaller one is the origin
    plateau = near[(kx > 0) & ((kx == pts.plateau[ys[near]]) | origin)]
    # the smaller point is the origin and the larger sits on a ramp
    ray = near[origin & (kx == 0)]
    sandwich = near[ny > 0.0]
    del near, kx, ny, origin
    code[plateau] = _PLATEAU
    code[ray] = _RAY
    bracket("plateau_bracket", plateau, 1.0, 1.0 + gamma)
    bracket("ray_bracket", ray, blend_threshold(g.selection.zeta), SQRT2 * (1.0 + gamma))
    del ray

    shared = level[sandwich]
    level[plateau] = pts.plateau[xs[plateau]]
    del plateau
    shell = (pts.logs[ys[sandwich]] <= sched.log_R[shared - 1]) & (
        pts.logs[xs[sandwich]] > sched.log_r[shared - 1]
    )
    bracket("shell_bracket", sandwich[shell], bounds.l_same, bounds.u_same)
    del shell
    columns = []
    if out.sigma is not None:
        columns = [getattr(out, name)[rows] for name in _SANDWICH_FIELDS]
        for column in columns:
            column.fill(math.nan)
    # _sandwich forms all its rows at once, so the parts are its row blocks:
    # a sandwich row is two gain rows of the source width, and its 1-d
    # arrays count as two pair widths
    width = 2 * max(g.source.dim, _PAIR_WIDTH)
    for lv in np.unique(shared).tolist():
        on_level = sandwich[shared == lv]
        for part in row_blocks(len(on_level), width):
            on = on_level[part]
            *gains, lo, hi = _sandwich(g, lv, pts, xs[on], ys[on], ndiff[on])
            bracket("pair_sandwich", on, lo, hi)
            for column, values in zip(columns, gains):
                column[on] = values

    if found:
        raise min(found, key=lambda f: f[:2])[2]
    out.x_id[rows], out.y_id[rows] = pts.ids[xs], pts.ids[ys]


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
    in the sweep; images holds the read-only (n, len(image_columns)) images
    of the points in point-set order on the target columns image_columns
    (the glue's image_columns), outside which every image is +0.0. The
    verdict on each pair is not kept: the sweep passes each judged block to
    its on_block."""

    min_ratio: float
    max_ratio: float
    distortion: float
    witness_min: tuple[int, int]
    witness_max: tuple[int, int]
    bounds: TheoreticalBounds
    by_class: dict
    images: np.ndarray
    image_columns: slice


def embedding_bounds(g: GlueEmbedding) -> TheoreticalBounds:
    """Bounds evaluated at the parameters the artifacts actually carry."""
    sched = g.schedule
    return bounds_from_values(sched.params.eps, sched.params.delta, g.bank.gamma, g.selection.zeta)


class _Summaries:
    """The class summaries and ratio witnesses of a sweep, fed one block of
    judged pairs at a time, equal to reductions over the whole sweep's
    columns: classes in order of first appearance, and the first extreme
    pair (the first NaN, as argmin and argmax take it) wins ties.

    Per class code, arrays hold the count, the sweep index of the class's
    first pair and the four running extremes. A block's classes are reduced
    as the contiguous runs of a stable sort by class, with reduceat, and
    folded in with np.minimum and np.maximum, which propagate a NaN. Where
    values tie, any of them has the bits of the first: ratios are norms over
    positive norms and slacks are differences that round an exact 0 to +0.0,
    so no column holds a -0.0."""

    def __init__(self):
        classes = len(_CLASSES)
        self.pairs = 0  # the pairs folded in so far
        self.count = np.zeros(classes, dtype=np.int64)
        self.first = np.full(classes, np.iinfo(np.int64).max)
        # min ratio, max ratio, min lower slack, min upper slack
        self.extremes = np.full((4, classes), math.inf)
        self.extremes[1] = -math.inf
        self.witnesses = [None, None]  # (ratio, (x_id, y_id)) of the min and the max

    def add(self, table: PairTable, rows: slice) -> None:
        code, ratio = table.code[rows], table.ratio[rows]
        order = np.argsort(code, kind="stable")
        counts = np.bincount(code, minlength=len(_CLASSES))
        present = np.flatnonzero(counts)
        starts = np.cumsum(counts[present]) - counts[present]
        self.count += counts
        self.first[present] = np.minimum(self.first[present], self.pairs + order[starts])
        self.pairs += len(code)
        folds = (np.minimum, np.maximum, np.minimum, np.minimum)
        columns = (ratio, ratio, table.lower_slack[rows], table.upper_slack[rows])
        for fold, kept, column in zip(folds, self.extremes, columns):
            kept[present] = fold(kept[present], fold.reduceat(column[order], starts))
        x_id, y_id = table.x_id[rows], table.y_id[rows]
        for side, pick in enumerate((np.argmin, np.argmax)):
            j = int(pick(ratio))
            kept = self.witnesses[side]
            # over (kept, new), argmin and argmax take kept on a tie and the first NaN
            if kept is None or pick((kept[0], ratio[j])) == 1:
                self.witnesses[side] = (float(ratio[j]), (int(x_id[j]), int(y_id[j])))

    def by_class(self) -> dict:
        present = np.flatnonzero(self.count)
        return {
            _CLASSES[c]: ClassSummary(int(self.count[c]), *self.extremes[:, c].tolist())
            for c in present[np.argsort(self.first[present])].tolist()
        }


def distortion_report(
    g: GlueEmbedding,
    pts: LocallyFiniteSet,
    tol: float = DEFAULT_TOL,
    on_block=None,
) -> DistortionReport:
    """Sweep all unordered pairs, check every applicable inequality, and
    assert the measured distortion stays below the closed-form ratio.

    The points are embedded in one call on the image columns alone
    (embed_window), and each is normed and classified once. The pairs (a,
    b > a) are taken in row-major order and judged in blocks of
    BATCH_ELEMENTS // _PAIR_WIDTH pairs (pointset.pair_blocks),
    each class on its own rows (_judge_block), with check_pair's verdict on
    every pair written into one reused PairTable of a block, without the
    sandwich columns (which neither the summaries nor a pairs CSV read).
    Each block's columns are folded into the per-class arrays of the class
    summaries and into the witnesses (_Summaries), so the sweep keeps no
    array of one entry per pair. on_block, when given, is called as
    on_block(table, rows) with each judged block's rows of the table, in
    sweep order, before the next block overwrites them (`run` formats them
    as the rows of its pairs CSV there; table[rows] are their PairCheck
    objects); a block that raises is not passed. A block keeps only 1-d
    arrays of its pairs alive: each array is dropped once its last reader
    is done, and every temporary of pairs times a row width (source and
    image differences, sandwich rows) is formed in row blocks of its own
    width inside the block. One kernel, spaces.pair_difference_norms, norms
    the source and the image differences of the pairs (a, b) before they
    are ordered, each row block of differences copied into one reused block
    and normed there in place: a norm reads only |x - y|, and negation is
    exact, so y - x has the norm bits of x - y. The image differences are
    formed on the image columns and normed on full rows, +0.0 elsewhere,
    so each norm has the bits of the full-width images' difference. The
    sandwich joins its gain rows before it takes their gains (_sandwich). A
    tol that is not finite and >= 0 raises ValueError.
    """
    _check_tol(tol)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    bounds = embedding_bounds(g)
    coords = pts.coords
    table = _points(g, coords, pts.ids, norms(g.source, coords))
    # each pair is ordered by the source norms that the judge checks, larger
    # first, and by the smaller id on ties
    lengths, ids = table.norms, table.ids
    images = embed_window(g, coords)
    images.flags.writeable = False
    cols = g.image_columns
    step = next(row_blocks(n * (n - 1) // 2, _PAIR_WIDTH)).stop
    out = PairTable(step, sandwich=False)
    ndiff, nimage = np.empty(step), np.empty(step)
    summaries = _Summaries()
    for block, a, b in pair_blocks(n, _PAIR_WIDTH):
        rows = slice(0, block.stop - block.start)
        pair_difference_norms(g.source, coords, a, b, ndiff, slice(0, g.source.dim))
        pair_difference_norms(g.target, images, a, b, nimage, cols)
        keep = (lengths[a] > lengths[b]) | ((lengths[a] == lengths[b]) & (ids[a] <= ids[b]))
        xs, ys = np.where(keep, a, b), np.where(keep, b, a)
        del a, b, keep
        _judge_pairs(g, bounds, table, xs, ys, ndiff[rows], nimage[rows], tol, out)
        del xs, ys
        summaries.add(out, rows)
        if on_block is not None:
            on_block(out, rows)

    (min_ratio, witness_min), (max_ratio, witness_max) = summaries.witnesses
    distortion = max_ratio / min_ratio
    if distortion > bounds.ratio + tol:
        raise BoundViolated(
            "distortion_vs_bounds",
            bounds.ratio + tol - distortion,
            f"witnesses {witness_max} / {witness_min}",
        )
    by_class = summaries.by_class()
    return DistortionReport(
        min_ratio, max_ratio, distortion, witness_min, witness_max, bounds, by_class, images, cols
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
            ndiff = norms(g.source, x - y)
            keep = ~(ndiff < 1e-6 * nx)
            if not keep.any():
                continue
            x, y, nx, ndiff = x[keep], y[keep], nx[keep], ndiff[keep]
            ny = norms(g.source, y)
            ratio = norms(g.target, level_map(g, level, x) - level_map(g, level, y)) / ndiff
            k = len(x)
            pts = _points(g, np.vstack((x, y)), np.arange(2 * k), np.concatenate((nx, ny)))
            xs, ys = np.arange(k), np.arange(k, 2 * k)
            *_, lo_b, hi_b = _sandwich(g, level, pts, xs, ys, ndiff)
            worst_lo = min(worst_lo, float(np.min(ratio - lo_b)))
            worst_hi = min(worst_hi, float(np.min(hi_b - ratio)))
            residuals = blend_decomposition_residual(g, level, x, y)
            worst_res = max(worst_res, float(np.max(residuals)))
    return FuzzReport(n_pairs, worst_lo, worst_hi, worst_res)
