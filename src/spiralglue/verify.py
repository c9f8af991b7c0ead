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

from .bank import BlockShift, SelectionResult, UserMatrices, build_bank
from .errors import BoundViolated, NonPositiveLowerBound
from .glue import GlueEmbedding, blend_decomposition_residual, direction_gain, embed, level_map
from .pointset import Far, LocallyFiniteSet, SameLevel, classify_lognorms
from .schedule import (
    Params,
    WeightSystem,
    _check_log_t,
    _ramp_angle_log,
    build_schedule,
)
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
    base = SQRT2 / (3.0 * (1.0 + zeta))
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


def _plateau_index(sched, log_t: float) -> int | None:
    """1-based plateau index k with log radius in [log R_{k-1}, log r_k], else None."""
    m = sched.levels
    if log_t <= sched.log_r[0]:
        return 1
    if log_t >= sched.log_R[m - 1]:
        return m + 1
    for k in range(2, m + 1):
        if sched.log_R[k - 2] <= log_t <= sched.log_r[k - 1]:
            return k
    return None


def _shell_sandwich(g: GlueEmbedding, level: int, x, y, nx, ny, diff, ndiff):
    """The per-pair sandwich ingredients on a shared shell with ny > 0."""
    sched = g.ws.schedule
    sigma = _ramp_angle_log(sched, level, math.log(nx))
    ay = _ramp_angle_log(sched, level, math.log(ny))
    theta = 0.5 * math.pi + 0.5 * (sigma + ay)
    first, second = g.map_at(level), g.map_at(level + 1)
    gsw = direction_gain(sigma, diff / ndiff, first, second)
    gtv = direction_gain(theta, np.asarray(y) / ny, first, second)
    eps = sched.params.eps
    return sigma, theta, gsw, gtv, gsw - eps * gtv, gsw + eps * gtv


def check_pair(
    g: GlueEmbedding, x, y, x_id: int = -1, y_id: int = -1, tol: float = DEFAULT_TOL
) -> PairCheck:
    """Verify every inequality applicable to a single ordered pair (norm(x) >= norm(y)).

    Shared-shell pairs with a nonzero smaller norm get the per-pair sandwich,
    plus the parameter-level bracket when the shell side conditions hold;
    plateau pairs get the sharp near-isometry bracket; a pair against the
    origin on a ramp gets the single-point bracket; far pairs get the norm-gap
    chain and the far bracket. Raises BoundViolated when any slack < -tol.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    space = g.source
    return _judge_pair(
        g,
        x,
        y,
        norm(space, x),
        norm(space, y),
        norm(space, x - y),
        norm(g.target, embed(g, x) - embed(g, y)),
        x_id,
        y_id,
        tol,
    )


def _judge_pair(g, x, y, nx, ny, ndiff, nimage, x_id, y_id, tol) -> PairCheck:
    """check_pair's verdict, given the source norms of x, y and x - y and the
    target norm of embed(x) - embed(y)."""
    sched = g.ws.schedule
    if ny > nx:
        raise ValueError("caller must order the pair so that norm(x) >= norm(y)")
    log_nx = math.log(nx) if nx > 0.0 else -math.inf
    log_ny = math.log(ny) if ny > 0.0 else -math.inf
    _check_log_t(sched, log_nx)
    if ndiff == 0.0:
        raise ValueError("points must be distinct")
    ratio = nimage / ndiff

    gamma = g.bank.gamma
    zeta = g.selection.zeta
    eps = sched.params.eps
    delta = sched.params.delta

    cls = classify_lognorms(sched, log_nx, log_ny)
    checks: list[tuple[str, float, float]] = []
    sigma = theta = gsw = gtv = None

    if isinstance(cls, SameLevel):
        kind = f"same:{cls.level}"
        kx = _plateau_index(sched, log_nx)
        ky = _plateau_index(sched, log_ny)
        # the sharp bracket needs a single active certified map: either both
        # points share a plateau, or the smaller one is the origin
        if kx is not None and (kx == ky or ny == 0.0):
            kind = f"plateau:{kx}"
            checks.append(("plateau_bracket", 1.0, 1.0 + gamma))
        if ny > 0.0:
            sigma, theta, gsw, gtv, lo, hi = _shell_sandwich(
                g, cls.level, x, y, nx, ny, x - y, ndiff
            )
            checks.append(("pair_sandwich", lo, hi))
            if log_ny <= sched.log_R[cls.level - 1] and log_nx > sched.log_r[cls.level - 1]:
                checks.append(
                    (
                        "shell_bracket",
                        SQRT2 / (3.0 * (1.0 + zeta)) - eps * SQRT2 * (1.0 + gamma),
                        SQRT2 * (1.0 + gamma) * (1.0 + eps),
                    )
                )
        elif kx is None:
            # smaller point is the origin and the larger sits on a ramp
            kind = f"ray:{cls.level}"
            checks.append(
                ("ray_bracket", SQRT2 / (3.0 * (1.0 + zeta)), SQRT2 * (1.0 + gamma))
            )
    else:
        assert isinstance(cls, Far)
        kind = f"far:{cls.y_level}-{cls.x_level}"
        gap = delta * nx - ny
        if gap < -tol * nx:
            raise BoundViolated(
                "far_norm_gap", gap / nx, f"pair ({x_id}, {y_id}): |y| > delta |x|"
            )
        lo_gap = ndiff - nx * (1.0 - delta)
        hi_gap = nx * (1.0 + delta) - ndiff
        if min(lo_gap, hi_gap) < -tol * nx:
            raise BoundViolated(
                "far_norm_bracket",
                min(lo_gap, hi_gap) / nx,
                f"pair ({x_id}, {y_id}): |x-y| outside (1 +- delta)|x|",
            )
        base = SQRT2 / (3.0 * (1.0 + zeta))
        checks.append(
            (
                "far_bracket",
                (base - SQRT2 * (1.0 + gamma) * delta) / (1.0 + delta),
                SQRT2 * (1.0 + gamma) * (1.0 + delta) / (1.0 - delta),
            )
        )

    lower_slack = math.inf
    upper_slack = math.inf
    for name, lo, hi in checks:
        sl, su = ratio - lo, hi - ratio
        if sl < -tol:
            raise BoundViolated(name, sl, f"pair ({x_id}, {y_id}): ratio {ratio!r} below {lo!r}")
        if su < -tol:
            raise BoundViolated(name, su, f"pair ({x_id}, {y_id}): ratio {ratio!r} above {hi!r}")
        lower_slack = min(lower_slack, sl)
        upper_slack = min(upper_slack, su)

    return PairCheck(x_id, y_id, kind, ratio, sigma, theta, gsw, gtv, lower_slack, upper_slack)


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
    sched = g.ws.schedule
    return bounds_from_values(sched.params.eps, sched.params.delta, g.bank.gamma, g.selection.zeta)


def distortion_report(
    g: GlueEmbedding, pts: LocallyFiniteSet, tol: float = DEFAULT_TOL
) -> DistortionReport:
    """Sweep all unordered pairs, check every applicable inequality, and
    assert the measured distortion stays below the closed-form ratio.

    Each point is embedded once; for each row a the source and image
    difference norms of all pairs (a, b > a) come from the row kernel, and
    every pair then gets check_pair's verdict, in row-major pair order.
    """
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    coords = pts.coords
    source_norms = norms(g.source, coords).tolist()
    # each pair is ordered by the point set's own norm, larger first
    own = norms(pts.space, coords).tolist()
    key = [(math.log(v) if v > 0.0 else -math.inf, -i) for v, i in zip(own, pts.ids)]
    images = np.empty((n, g.target.dim))
    for k, row in enumerate(coords):
        images[k] = embed(g, row)
    width = max(g.source.dim, g.target.dim)
    results = []
    for a in range(n - 1):
        for block in row_blocks(n - a - 1, width):
            rest = slice(a + 1 + block.start, a + 1 + block.stop)
            diff_norms = norms(g.source, coords[a] - coords[rest]).tolist()
            image_norms = norms(g.target, images[a] - images[rest]).tolist()
            for b, ndiff, nimage in zip(range(rest.start, rest.stop), diff_norms, image_norms):
                x, y = (a, b) if key[a] >= key[b] else (b, a)
                results.append(
                    _judge_pair(
                        g,
                        coords[x],
                        coords[y],
                        source_norms[x],
                        source_norms[y],
                        ndiff,
                        nimage,
                        pts.ids[x],
                        pts.ids[y],
                        tol,
                    )
                )

    lo = min(results, key=lambda pc: pc.ratio)
    hi = max(results, key=lambda pc: pc.ratio)
    distortion = hi.ratio / lo.ratio
    by_class: dict[str, ClassSummary] = {}
    for pc in results:
        key = pc.kind.split(":")[0]
        prev = by_class.get(key)
        if prev is None:
            by_class[key] = ClassSummary(1, pc.ratio, pc.ratio, pc.lower_slack, pc.upper_slack)
        else:
            by_class[key] = ClassSummary(
                prev.count + 1,
                min(prev.min_ratio, pc.ratio),
                max(prev.max_ratio, pc.ratio),
                min(prev.min_lower_slack, pc.lower_slack),
                min(prev.min_upper_slack, pc.upper_slack),
            )
    bounds = embedding_bounds(g)
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
    ws = WeightSystem(build_schedule(params, 1.0, levels))
    sched = ws.schedule
    worst_lo = math.inf
    worst_hi = math.inf
    worst_res = 0.0
    for k in range(n_pairs):
        bank = banks[k % len(banks)]
        sel = SelectionResult(tuple(range(levels + 1)), (math.inf,) * levels, 0.0, SQRT2 / 3.0)
        g = GlueEmbedding(ws, bank, sel)
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
        _, _, _, _, lo_b, hi_b = _shell_sandwich(g, level, x, y, nx, ny, diff, ndiff)
        worst_lo = min(worst_lo, ratio - lo_b)
        worst_hi = min(worst_hi, hi_b - ratio)
        worst_res = max(worst_res, blend_decomposition_residual(g, level, x, y))
    return FuzzReport(n_pairs, worst_lo, worst_hi, worst_res)
