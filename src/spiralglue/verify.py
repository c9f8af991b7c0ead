"""Inequality verification: per-pair sandwiches, closed-form bounds, distortion.

The two-sided bounds read their parameters from the artifacts that own them:
the spiral speed and level gap from the schedule, the isometry budget from the
bank, and the selection slack from the chosen subsequence. A report therefore
reflects what was actually built, not what was requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bank import BlockShift, SelectionResult, UserMatrices, blend_threshold, build_bank
from .errors import BoundViolated, NonPositiveLowerBound
from .glue import GlueEmbedding, blend_decomposition_residual, direction_gain, embed, level_map
from .pointset import LocallyFiniteSet, classify_levels, level_intervals
from .schedule import Params, build_schedule, log_radius, sandwich_angles
from .spaces import Lp, Space, norm, norms, row_blocks

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
    sqrt(2)/3 and sqrt(2), so the loop always terminates.
    """
    if eps_target <= 0.0:
        raise ValueError(f"eps_target must be positive, got {eps_target!r}")
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

    Also asserts the left branch is non-increasing up to pi/4 and the right
    branch non-decreasing after, on the grid. Returns (minimum, argmin angle).
    """
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    taus = np.linspace(0.0, 0.5 * math.pi, grid_size)
    c, s = np.cos(taus), np.sin(taus)
    left = c * (c + s) / (c + 2.0 * s)
    right = s * (c + s) / (2.0 * c + s)
    vals = np.maximum(left, right)
    quarter = 0.25 * math.pi
    dl = np.diff(left[taus <= quarter])
    if dl.size and dl.max() > 1e-12:
        raise BoundViolated("left_branch_monotone", float(-dl.max()))
    dr = np.diff(right[taus >= quarter])
    if dr.size and dr.min() < -1e-12:
        raise BoundViolated("right_branch_monotone", float(dr.min()))
    k = int(np.argmin(vals))
    return float(vals[k]), float(taus[k])


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


@dataclass(frozen=True, eq=False)
class _Points:
    """What the pair judge reads of each point, computed once per point: the
    coordinates, ids, source norms and their log radii, the level interval
    [lo, hi] and the plateau index (0 off the plateaus)."""

    coords: np.ndarray
    ids: list
    norms: np.ndarray
    logs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    plateau: np.ndarray


def _points(g: GlueEmbedding, coords, ids, source_norms) -> _Points:
    sched = g.schedule
    logs = np.array([log_radius(v) for v in source_norms.tolist()])
    lo, hi = level_intervals(sched, logs)
    return _Points(coords, list(ids), source_norms, logs, lo, hi, _plateau_index(sched, logs))


def _sandwich(g: GlueEmbedding, level: int, nx, ny, diff, ndiff, y):
    """The per-pair sandwich of shared-shell pairs on one level, for rows of
    pairs with nx >= ny > 0: the (sigma, alpha, theta) angles of each pair,
    the gains G_sigma(diff/ndiff) and G_theta(y/ny), and the bracket
    G_sigma -+ eps G_theta."""
    sched = g.schedule
    angles = [sandwich_angles(sched, level, a, b) for a, b in zip(nx.tolist(), ny.tolist())]
    # sigma and theta rows alternate, so a non-unit row is reported in pair order
    units = np.empty((2 * len(angles), diff.shape[1]))
    units[0::2] = diff / ndiff[:, None]
    units[1::2] = y / ny[:, None]
    turns = [t for sigma, _, theta in angles for t in (sigma, theta)]
    gains = direction_gain(turns, units, g.map_at(level), g.map_at(level + 1))
    gsw, gtv = gains[0::2], gains[1::2]
    eps = sched.params.eps
    return angles, gsw, gtv, gsw - eps * gtv, gsw + eps * gtv


def check_pair(
    g: GlueEmbedding, x, y, x_id: int = -1, y_id: int = -1, tol: float = DEFAULT_TOL
) -> PairCheck:
    """Verify every inequality applicable to a single ordered pair (norm(x) >= norm(y)).

    Shared-shell pairs with a nonzero smaller norm get the per-pair sandwich,
    plus the parameter-level bracket when the shell side conditions hold;
    plateau pairs get the sharp near-isometry bracket; a pair against the
    origin on a ramp gets the single-point bracket; far pairs get the norm-gap
    chain and the far bracket. Raises BoundViolated when any slack < -tol.
    This is the one-pair call of the sweep's row judge.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bounds = embedding_bounds(g)
    space = g.source
    nx, ny = norm(space, x), norm(space, y)
    diff = x - y
    ndiff = norm(space, diff)
    nimage = norm(g.target, embed(g, x) - embed(g, y))
    table = _points(g, np.array([x, y]), (x_id, y_id), np.array([nx, ny]))
    pair = np.array([0]), np.array([1])
    (pc,) = _judge_pairs(
        g, bounds, table, *pair, diff[None], np.array([ndiff]), np.array([nimage]), tol
    )
    return pc


def _judge_pairs(g, bounds, pts: _Points, xs, ys, diff, ndiff, nimage, tol) -> list[PairCheck]:
    """check_pair's verdict on each ordered pair (xs[j], ys[j]) of the point
    table, given diff[j] = x - y, its source norm ndiff[j] and the target norm
    nimage[j] of embed(x) - embed(y). Raises the error of the first offending
    pair, and within it of its first failing check, as check_pair would."""
    try:
        return _judge_block(g, bounds, pts, xs, ys, diff, ndiff, nimage, tol)
    except ValueError:
        # the order and distinctness checks and the gains run over the whole
        # block before any bracket, so a ValueError at pair j may hide a
        # bracket violation at an earlier pair: judge one pair at a time
        if len(xs) > 1:
            for j in range(len(xs)):
                one = slice(j, j + 1)
                _judge_block(
                    g, bounds, pts, xs[one], ys[one], diff[one], ndiff[one], nimage[one], tol
                )
        raise


# the pair kinds by class code; str.format ignores the unused second level
_KINDS = ("plateau:{}", "same:{}", "ray:{}", "far:{}-{}")


def _judge_block(g, bounds, pts: _Points, xs, ys, diff, ndiff, nimage, tol) -> list[PairCheck]:
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

    sigma, theta, gsw, gtv = [None] * k, [None] * k, [None] * k, [None] * k
    sandwich_lo, sandwich_hi = np.zeros(k), np.zeros(k)
    for lv in np.unique(level[sandwich]).tolist():
        rows = np.flatnonzero(sandwich & (level == lv))
        angles, gs, gt, lo, hi = _sandwich(
            g, lv, nx[rows], ny[rows], diff[rows], ndiff[rows], pts.coords[ys[rows]]
        )
        sandwich_lo[rows], sandwich_hi[rows] = lo, hi
        for j, (s, _, t), a, b in zip(rows.tolist(), angles, gs.tolist(), gt.tolist()):
            sigma[j], theta[j], gsw[j], gtv[j] = s, t, a, b

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

    tag = np.where(plateau, 0, np.where(ray, 2, np.where(same, 1, 3)))
    first = np.where(plateau, kx, np.where(same, level, y_level))
    kinds = [
        _KINDS[t].format(a, b) for t, a, b in zip(tag.tolist(), first.tolist(), x_level.tolist())
    ]
    ids = pts.ids
    columns = (ratio.tolist(), sigma, theta, gsw, gtv, lower_slack.tolist(), upper_slack.tolist())
    return [
        PairCheck(ids[x], ids[y], kind, r, s, t, a, b, lo, hi)
        for x, y, kind, r, s, t, a, b, lo, hi in zip(xs.tolist(), ys.tolist(), kinds, *columns)
    ]


@dataclass(frozen=True)
class ClassSummary:
    count: int
    min_ratio: float
    max_ratio: float
    min_lower_slack: float
    min_upper_slack: float


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """All pair ratios of a point set under the embedding, with witnesses."""

    min_ratio: float
    max_ratio: float
    distortion: float
    witness_min: tuple[int, int]
    witness_max: tuple[int, int]
    bounds: TheoreticalBounds
    by_class: dict
    pair_checks: tuple[PairCheck, ...]


def embedding_bounds(g: GlueEmbedding) -> TheoreticalBounds:
    """Bounds evaluated at the parameters the artifacts actually carry."""
    sched = g.schedule
    return bounds_from_values(sched.params.eps, sched.params.delta, g.bank.gamma, g.selection.zeta)


def distortion_report(
    g: GlueEmbedding, pts: LocallyFiniteSet, tol: float = DEFAULT_TOL
) -> DistortionReport:
    """Sweep all unordered pairs, check every applicable inequality, and
    assert the measured distortion stays below the closed-form ratio.

    Each point is embedded, normed and classified once; each row a of pairs
    (a, b > a) is then judged at once, with check_pair's verdict on every
    pair in row-major pair order. Only the target-width temporaries (image
    differences, blend images) are formed in row blocks.
    """
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    bounds = embedding_bounds(g)
    coords = pts.coords
    source_norms = norms(g.source, coords)
    # each pair is ordered by the point set's own norm, larger first, and by
    # the smaller id on ties
    own_logs = np.array([log_radius(v) for v in norms(pts.space, coords).tolist()])
    ids = np.asarray(pts.ids)
    images = np.empty((n, g.target.dim))
    for k, row in enumerate(coords):
        images[k] = embed(g, row)
    table = _points(g, coords, pts.ids, source_norms)
    results = []
    for a in range(n - 1):
        rest = np.arange(a + 1, n)
        keep = (own_logs[a] > own_logs[rest]) | (
            (own_logs[a] == own_logs[rest]) & (ids[a] <= ids[rest])
        )
        diff = coords[a] - coords[a + 1 :]
        np.negative(diff, out=diff, where=~keep[:, None])
        image_norms = np.empty(len(rest))
        for block in row_blocks(len(rest), g.target.dim):
            others = images[a + 1 + block.start : a + 1 + block.stop]
            image_norms[block] = norms(g.target, images[a] - others)
        results += _judge_pairs(
            g,
            bounds,
            table,
            np.where(keep, a, rest),
            np.where(keep, rest, a),
            diff,
            norms(g.source, diff),
            image_norms,
            tol,
        )

    # one pass with the semantics of min/max: the first extreme pair wins
    lo = hi = results[0]
    stats: dict[str, list] = {}
    for pc in results:
        r = pc.ratio
        if r < lo.ratio:
            lo = pc
        if r > hi.ratio:
            hi = pc
        key = pc.kind.split(":")[0]
        s = stats.get(key)
        if s is None:
            stats[key] = [1, r, r, pc.lower_slack, pc.upper_slack]
            continue
        s[0] += 1
        if r < s[1]:
            s[1] = r
        if r > s[2]:
            s[2] = r
        if pc.lower_slack < s[3]:
            s[3] = pc.lower_slack
        if pc.upper_slack < s[4]:
            s[4] = pc.upper_slack
    distortion = hi.ratio / lo.ratio
    by_class = {key: ClassSummary(*s) for key, s in stats.items()}
    if distortion > bounds.ratio + tol:
        raise BoundViolated(
            "distortion_vs_bounds",
            bounds.ratio + tol - distortion,
            f"witnesses ({hi.x_id}, {hi.y_id}) / ({lo.x_id}, {lo.y_id})",
        )
    return DistortionReport(
        lo.ratio,
        hi.ratio,
        distortion,
        (lo.x_id, lo.y_id),
        (hi.x_id, hi.y_id),
        bounds,
        by_class,
        tuple(results),
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
    with the identity selection.
    """
    rng = np.random.default_rng(seed)
    banks = _fuzz_banks(seed)
    params = Params(0.05, 0.1, 0.05, 0.05)
    sched = build_schedule(params, 1.0, levels)
    worst_lo = math.inf
    worst_hi = math.inf
    worst_res = 0.0
    sel = SelectionResult(tuple(range(levels + 1)), (math.inf,) * levels, 0.0, blend_threshold(0.0))
    for k in range(n_pairs):
        bank = banks[k % len(banks)]
        g = GlueEmbedding(sched, bank, sel)
        level = int(rng.integers(1, levels + 1))
        lo = sched.log_R[level - 2] if level >= 2 else sched.log_r[0] - 1.0
        hi = sched.log_r[level] if level < levels else sched.log_coverage
        lx, ly = sorted(rng.uniform(lo + 0.01, hi - 0.01, size=2), reverse=True)
        dim = bank.source.dim
        dx = rng.standard_normal(dim)
        dy = rng.standard_normal(dim)
        x = dx * math.exp(lx - math.log(norm(bank.source, dx)))
        y = dy * math.exp(ly - math.log(norm(bank.source, dy)))
        nx, ny = norm(bank.source, x), norm(bank.source, y)
        diff = x - y
        ndiff = norm(bank.source, diff)
        if ndiff < 1e-6 * nx:
            continue
        ratio = norm(bank.target, level_map(g, level, x) - level_map(g, level, y)) / ndiff
        *_, lo_b, hi_b = _sandwich(
            g, level, np.array([nx]), np.array([ny]), diff[None], np.array([ndiff]), y[None]
        )
        worst_lo = min(worst_lo, ratio - float(lo_b[0]))
        worst_hi = min(worst_hi, float(hi_b[0]) - ratio)
        worst_res = max(worst_res, blend_decomposition_residual(g, level, x, y))
    return FuzzReport(n_pairs, worst_lo, worst_hi, worst_res)
