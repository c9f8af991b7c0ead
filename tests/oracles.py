"""Float-only evaluators that the package no longer exports, kept as test
oracles: the pair classification by its shell rule, the ramp angle and the
sandwich angles at linear radii, the one-vector norm, map image, two-map
blend, level map and decomposition residual, the row norms with every
elementwise pass over every column, the decompose that scans every
direction found so far for each distinct unit difference, and the
certification and row gain that evaluate every row, repeats included, and
the generated banks' dense matrices; `directions_bytes` gives the bytes by
which two decompositions are compared. The pipeline uses
`pointset.classify_levels` on arrays of level intervals,
`schedule.ramp_angle_log` and `schedule.sandwich_angles_log` on log radii,
the row kernels `spaces.norms`, `spaces.apply` and `spaces.blend_apply`,
one kernel for the norms of images and blends (`spaces.image_norms` and
`spaces.blend_norms`, the one- and two-term calls of `spaces._hull_norms`),
which holds a norm that ends in a sum or a max on the union of the hulls
alone and sums it over the leaves of numpy's pairwise tree that the union
meets, a decompose that groups its unit differences by bit pattern
with `spaces.distinct_rows` and the directions by sort-and-sweep instead,
a certification that evaluates each distinct row once (the groups of
`spaces.distinct_rows` of positive norm), a row gain whose callers pass
each row once, and maps built from their nonzero band alone
(`LinearMap.from_band`).
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from spiralglue.errors import CertificationFailed
from spiralglue.pointset import (
    _DIR_TOL,
    AnnulusDecomposition,
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
from spiralglue.spaces import (
    LinearMap,
    Lp,
    MaxAbsFunctionals,
    WeightedLp,
    _root,
    apply,
    as_rows,
    blend_apply,
    norm,
    norms,
    row_blocks,
)


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


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima of a (non-negative) and a divided by them; zero rows stay zero."""
    m = a.max(axis=1, initial=0.0)
    return m, a / np.where(m > 0.0, m, 1.0)[:, None]


def _norms_block_full_width(spec, X: np.ndarray) -> np.ndarray:
    if isinstance(spec, MaxAbsFunctionals):
        return np.abs(np.matmul(spec.functionals, X[:, :, None])[:, :, 0]).max(axis=1)
    a = np.abs(X)
    p = spec.p
    if isinstance(spec, WeightedLp):
        if p == math.inf:
            return (spec.weights * a).max(axis=1)
        m, a = _rescaled(a)
        return m * _root(np.sum(spec.weights * a**p, axis=1), p)
    if p == math.inf:
        return a.max(axis=1)
    if p == 1.0:
        return a.sum(axis=1)
    m, a = _rescaled(a)
    if p == 2.0:
        return m * np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    return m * _root(np.sum(a**p, axis=1), p)


def norms_full_width(space, X) -> np.ndarray:
    """Row norms with every elementwise pass (max, rescaling, power, weights)
    forming a new array over every column, in blocks of the batch budget."""
    X = np.ascontiguousarray(as_rows(X, space.dim))
    spec = space.norm
    width = space.dim
    if isinstance(spec, MaxAbsFunctionals):
        width = max(width, spec.functionals.shape[0])
    out = np.empty(X.shape[0])
    for block in row_blocks(X.shape[0], width):
        out[block] = _norms_block_full_width(spec, X[block])
    return out


def apply_scalar(m, x) -> np.ndarray:
    """The image of one vector, by a matrix-vector product."""
    x = np.asarray(x, dtype=float)
    assert x.shape == (m.source.dim,)
    return m.matrix @ x


def blend_apply_scalar(c: float, s: float, first, second, x) -> np.ndarray:
    """c*(first x) + s*(second x) for one vector."""
    return c * apply_scalar(first, x) + s * apply_scalar(second, x)


def certify_all_rows(matrices, source, target, gamma: float, vectors):
    """build_bank's certification with every nonzero row imaged, repeats
    included: the (lower, upper) margins per map, or the CertificationFailed
    build_bank raises, with the vector index counting the nonzero rows."""
    maps = [LinearMap(m, source, target) for m in matrices]
    eps_n = (1.0 + gamma) ** (1.0 / len(maps)) - 1.0
    X = as_rows(vectors, source.dim)
    source_norms = norms(source, X)
    X, source_norms = X[source_norms > 0.0], source_norms[source_norms > 0.0]
    lower, upper = [], []
    for n, lin in enumerate(maps):
        ratios = norms(target, apply(lin, X)) / source_norms
        k_lo, k_hi = int(np.argmin(ratios)), int(np.argmax(ratios))
        if ratios[k_lo] < 1.0 - 1e-12:
            raise CertificationFailed(n, k_lo, float(ratios[k_lo]))
        if ratios[k_hi] > (1.0 + eps_n) * (1.0 + 1e-12):
            raise CertificationFailed(n, k_hi, float(ratios[k_hi]))
        lower.append(float(ratios[k_lo]) - 1.0)
        upper.append((1.0 + eps_n) - float(ratios[k_hi]))
    return tuple(lower), tuple(upper)


def direction_gain_all_rows(theta, U, first, second) -> np.ndarray:
    """The row gain with every row evaluated, repeats included: the unit
    check on every row, cos and sin from math per angle, and one blend and
    norm of all rows."""
    U = np.asarray(U, dtype=float)
    nu = norms(first.source, U)
    bad = np.flatnonzero(np.abs(nu - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"u must be a unit vector, got norm {float(nu[bad[0]])!r}")
    c = np.array([math.cos(t) for t in theta], dtype=float)
    s = np.array([math.sin(t) for t in theta], dtype=float)
    return norms(first.target, blend_apply(c, s, first, second, U))


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


def directions_bytes(decomp):
    """Per level, the direction rows' shape and bytes and the bytes of the
    checks' direction and angle arrays: two decompositions agree bit for bit
    when these do."""
    return [
        (units.shape, units.tobytes(), direction.tobytes(), angle.tobytes())
        for units, (direction, angle) in zip(decomp.directions, decomp.checks)
    ]


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
    checks = []
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
        pairs = [(k, a) for k, ang in enumerate(angles) for a in sorted(set(ang))]
        direction = np.array([k for k, _ in pairs], dtype=np.intp)
        angle = np.array([a for _, a in pairs], dtype=float)
        for array in (found, direction, angle):
            array.flags.writeable = False
        members.append(tuple(int(pts.ids[k]) for k in here.tolist()))
        dirs.append(found)
        checks.append((direction, angle))
    return AnnulusDecomposition(m, tuple(members), tuple(dirs), tuple(checks))


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


def block_shift_matrices(source, target, count: int, width) -> list[np.ndarray]:
    """The dense matrices of a BlockShift bank: the identity at target row
    n * width of map n."""
    bw = source.dim if width is None else int(width)
    mats = []
    for n in range(count):
        m = np.zeros((target.dim, source.dim))
        m[n * bw : n * bw + source.dim, :] = np.eye(source.dim)
        mats.append(m)
    return mats


def quadrature_matrices(source, target, count: int, spec) -> list[np.ndarray]:
    """The dense matrices of a QuadratureL2toL1 bank, drawn from the seeded
    generator in the same order as the bank."""
    nd, d = spec.directions, source.dim
    rng = np.random.default_rng(spec.seed)
    mats = []
    for n in range(count):
        block = np.zeros((target.dim, d))
        if d == 1:
            rows = np.full((nd, 1), 1.0 / nd)
        elif d == 2:
            offset = rng.uniform(0.0, 2.0 * math.pi)
            phi = offset + 2.0 * math.pi * np.arange(nd) / nd
            w = math.tan(math.pi / nd) / 2.0
            rows = w * np.column_stack([np.cos(phi), np.sin(phi)])
        else:
            theta = rng.standard_normal((nd, d))
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            probe = rng.standard_normal((4096, d))
            probe /= np.linalg.norm(probe, axis=1, keepdims=True)
            sums = np.abs(probe @ theta.T).sum(axis=1)
            rows = ((1.0 + 1e-9) / float(sums.min())) * theta
        block[n * nd : (n + 1) * nd, :] = rows
        mats.append(block)
    return mats
