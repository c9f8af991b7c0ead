"""Assembly and evaluation of the glued embedding.

At any radius at most two gluing weights are active, so the full weighted sum
collapses to a two-term blend of consecutive selected maps. Evaluation and the
per-level interpolated map share one code path (the same floating operations),
which makes their agreement on a shared shell exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import EmbeddingBank, SelectionResult
from .schedule import (
    RadiiSchedule,
    active_weights_log,
    check_log_radius,
    level_weights_log,
    log_radius,
    sandwich_angles_log,
)
# norm is not called here, but bench/spans.py wraps glue.norm
from .spaces import (  # noqa: F401
    LinearMap,
    Space,
    Vector,
    as_rows,
    blend_apply,
    hull_columns,
    norm,
    norms,
    row_blocks,
)


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

    @property
    def image_columns(self) -> slice:
        """The target columns that hold every image's nonzero entries: the
        union of the selected maps' hulls (spaces.hull_columns)."""
        return hull_columns([self.bank.maps[k] for k in self.selection.chosen_indices])


def level_map(g: GlueEmbedding, level: int, x) -> Vector:
    """The level's interpolated map: blend of maps `level` and `level+1` at the
    ramp angle of norm(x). Agrees with embed() on the level's shell exactly.

    A 1-d x gives its image. A (k, source.dim) array gives the k images, each
    bit-equal to the one-row call, blended by embed's body (_blend_window)
    and padded to full rows as embed pads them.
    """
    sched = g.schedule
    if not (1 <= level <= sched.levels):
        raise ValueError(f"level must be in 1..{sched.levels}, got {level}")
    x = np.asarray(x, dtype=float)
    X = as_rows(x[None] if x.ndim == 1 else x, g.source.dim)
    log_t = log_radius(norms(g.source, X))
    check_log_radius(sched, log_t)
    c, s = level_weights_log(sched, level, log_t)
    out = _full_rows(g, _blend_window(g, np.full(len(X), level), c, s, X))
    return out[0] if x.ndim == 1 else out


def _blend_window(g: GlueEmbedding, level: np.ndarray, c, s, X: np.ndarray) -> np.ndarray:
    """The (k, len(g.image_columns)) blends of the rows of X on the image
    columns: row i is blend_apply(c[i], s[i], map_at(level[i]),
    map_at(level[i] + 1), X[i]) on those columns. This is the one blend
    body of the embedding: per level, one blend_apply of that level's rows,
    in row blocks of at most BATCH_ELEMENTS elements."""
    cols = g.image_columns
    out = np.empty((len(X), cols.stop - cols.start))
    for lv in np.unique(level).tolist():
        here = np.flatnonzero(level == lv)
        first, second = g.map_at(lv), g.map_at(lv + 1)
        for block in row_blocks(len(here), max(g.source.dim, 2 * out.shape[1])):
            k = here[block]
            out[k] = blend_apply(c[k], s[k], first, second, X[k], cols)
    return out


def _full_rows(g: GlueEmbedding, window: np.ndarray) -> np.ndarray:
    """The (k, target.dim) rows that hold a (k, len(g.image_columns)) window
    on the image columns and +0.0 elsewhere."""
    out = np.zeros((len(window), g.target.dim))
    out[:, g.image_columns] = window
    return out


def embed_window(g: GlueEmbedding, X) -> np.ndarray:
    """The images of the rows of a (k, source.dim) array on the image
    columns: the (k, len(g.image_columns)) columns g.image_columns of
    embed's images, outside which every image is +0.0. One
    active_weights_log call on the log radii of all rows, then
    _blend_window."""
    X = as_rows(np.asarray(X, dtype=float), g.source.dim)
    level, c, s = active_weights_log(g.schedule, log_radius(norms(g.source, X)))
    return _blend_window(g, level, c, s, X)


def embed(g: GlueEmbedding, x) -> Vector:
    """Evaluate the glued embedding at x; the origin maps to the origin.

    A 1-d x gives its image. A (k, source.dim) array gives the (k, target.dim)
    images, each bit-equal to the one-row call: embed_window's images on the
    image columns, padded with +0.0. Each entry outside the image columns is
    the +0.0 blend of two +0.0 entries by weights >= +0, so the padding has
    the bits of a blend over every column.
    """
    x = np.asarray(x, dtype=float)
    X = as_rows(x[None] if x.ndim == 1 else x, g.source.dim)
    out = _full_rows(g, embed_window(g, X))
    return out[0] if x.ndim == 1 else out


def embed_all(g: GlueEmbedding, pts) -> dict[int, Vector]:
    """Images of a whole point set, keyed by point id."""
    return dict(zip(pts.ids, embed(g, pts.coords)))


def blend_decomposition_residual(g: GlueEmbedding, level: int, x, y):
    """Relative residual of the exact two-term difference decomposition.

    For norm(x) >= norm(y) > 0 the level map T satisfies

        T(x) - T(y) = G_sigma(x - y) + 2 sin((ax - ay)/2) G_theta(y),

    with sigma the ramp angle at norm(x), theta = pi/2 + (ax + ay)/2, and
    G_phi the cos/sin blend at angle phi. Returns the floating-point defect
    of this identity scaled by norm(x) + norm(y): a float for 1-d x and y,
    or one residual per row pair of two (k, source.dim) arrays, each
    bit-equal to the one-row call (cos and sin come from numpy's).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    X, Y = (as_rows(v[None] if v.ndim == 1 else v, g.source.dim) for v in (x, y))
    nx, ny = norms(g.source, X), norms(g.source, Y)
    if not np.all((nx >= ny) & (ny > 0.0)):
        raise ValueError("need norm(x) >= norm(y) > 0")
    ax, ay, theta = sandwich_angles_log(g.schedule, level, log_radius(nx), log_radius(ny))
    first, second = g.map_at(level), g.map_at(level + 1)
    out = np.empty(len(X))
    for block in row_blocks(len(X), 2 * g.target.dim):
        lhs = level_map(g, level, X[block]) - level_map(g, level, Y[block])
        sigma, th = ax[block], theta[block]
        turn = 2.0 * np.sin(0.5 * (sigma - ay[block]))
        rhs = blend_apply(np.cos(sigma), np.sin(sigma), first, second, X[block] - Y[block])
        rhs = rhs + turn[:, None] * blend_apply(np.cos(th), np.sin(th), first, second, Y[block])
        out[block] = norms(g.target, lhs - rhs) / (nx[block] + ny[block])
    return float(out[0]) if x.ndim == 1 else out

