"""Assembly and evaluation of the glued embedding.

At any radius at most two gluing weights are active, so the full weighted sum
collapses to a two-term blend of consecutive selected maps. Evaluation and the
per-level interpolated map share one code path (the same floating operations),
which makes their agreement on a shared shell exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bank import EmbeddingBank, SelectionResult
from .schedule import (
    RadiiSchedule,
    active_weights_log,
    check_log_radius,
    level_weights_log,
    log_radius,
    sandwich_angles,
)
from .spaces import LinearMap, Space, Vector, blend_apply, norm, norms, row_blocks


@dataclass(frozen=True, eq=False)
class GlueEmbedding:
    """The assembled embedding: radii schedule, bank, and chosen subsequence."""

    schedule: RadiiSchedule
    bank: EmbeddingBank
    selection: SelectionResult

    def __post_init__(self):
        need = self.schedule.levels + 1
        if len(self.selection.chosen_indices) != need:
            raise ValueError(
                f"selection must cover {need} levels, got {len(self.selection.chosen_indices)}"
            )
        if max(self.selection.chosen_indices) >= self.bank.size:
            raise ValueError("selection indices exceed the bank size")
        if list(self.selection.chosen_indices) != sorted(set(self.selection.chosen_indices)):
            raise ValueError("selection indices must be strictly increasing")

    @property
    def source(self) -> Space:
        return self.bank.source

    @property
    def target(self) -> Space:
        return self.bank.target

    def map_at(self, level: int) -> LinearMap:
        """The selected map used by 1-based level (1..levels+1)."""
        return self.bank.maps[self.selection.chosen_indices[level - 1]]


def level_map(g: GlueEmbedding, level: int, x) -> Vector:
    """The level's interpolated map: blend of maps `level` and `level+1` at the
    ramp angle of norm(x). Agrees with embed() on the level's shell exactly."""
    sched = g.schedule
    if not (1 <= level <= sched.levels):
        raise ValueError(f"level must be in 1..{sched.levels}, got {level}")
    log_t = log_radius(norm(g.source, x))
    check_log_radius(sched, log_t)
    c, s = level_weights_log(sched, level, log_t)
    return blend_apply(c, s, g.map_at(level), g.map_at(level + 1), x)


def embed(g: GlueEmbedding, x) -> Vector:
    """Evaluate the glued embedding at x; the origin maps to the origin."""
    level, c, s = active_weights_log(g.schedule, log_radius(norm(g.source, x)))
    return blend_apply(c, s, g.map_at(level), g.map_at(level + 1), x)


def direction_gain(theta, u, first: LinearMap, second: LinearMap):
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u) for unit u.

    A 1-d u with one angle gives a float. A (k, dim) array of rows with k
    angles gives the k gains as an array, each bit-equal to the one-row call:
    cos and sin come from math per angle, the blend is the stacked
    matrix-vector product of apply, and blend images are formed in row blocks
    of twice the target width. The first non-unit row raises ValueError.
    """
    U = np.asarray(u, dtype=float)
    if U.ndim == 1:
        return float(direction_gain([theta], U[None, :], first, second)[0])
    nu = norms(first.source, U)
    bad = np.flatnonzero(np.abs(nu - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"u must be a unit vector, got norm {float(nu[bad[0]])!r}")
    c = np.array([math.cos(t) for t in theta])
    s = np.array([math.sin(t) for t in theta])
    if c.shape != nu.shape:
        raise ValueError(f"need one angle per row, got {c.size} for {nu.size} rows")
    out = np.empty(len(U))
    for block in row_blocks(len(U), 2 * first.target.dim):
        rows = U[block, :, None]
        blend = np.matmul(first.matrix, rows)[:, :, 0]
        blend *= c[block, None]
        other = np.matmul(second.matrix, rows)[:, :, 0]
        other *= s[block, None]
        blend += other
        out[block] = norms(first.target, blend)
    return out


def embed_all(g: GlueEmbedding, pts) -> dict[int, Vector]:
    """Images of a whole point set, keyed by point id."""
    return {pid: embed(g, row) for pid, row in zip(pts.ids, pts.coords)}


def blend_decomposition_residual(g: GlueEmbedding, level: int, x, y) -> float:
    """Relative residual of the exact two-term difference decomposition.

    For norm(x) >= norm(y) > 0 the level map T satisfies

        T(x) - T(y) = G_sigma(x - y) + 2 sin((ax - ay)/2) G_theta(y),

    with sigma the ramp angle at norm(x), theta = pi/2 + (ax + ay)/2, and
    G_phi the cos/sin blend at angle phi. Returns the floating-point defect
    of this identity scaled by norm(x) + norm(y).
    """
    nx, ny = norm(g.source, x), norm(g.source, y)
    if not (nx >= ny > 0.0):
        raise ValueError("need norm(x) >= norm(y) > 0")
    ax, ay, theta = sandwich_angles(g.schedule, level, nx, ny)
    first, second = g.map_at(level), g.map_at(level + 1)
    lhs = level_map(g, level, x) - level_map(g, level, y)
    rhs = blend_apply(math.cos(ax), math.sin(ax), first, second, np.asarray(x) - np.asarray(y))
    rhs = rhs + 2.0 * math.sin(0.5 * (ax - ay)) * blend_apply(
        math.cos(theta), math.sin(theta), first, second, y
    )
    return norm(g.target, lhs - rhs) / (nx + ny)
