"""Finite-dimensional normed spaces, vectors, and linear maps.

Norm evaluation is exact and overflow-safe: p-power sums are computed after
rescaling by the largest coordinate, so norms of vectors with entries near
the float range remain finite.

Each rule has one row kernel, and its one-vector call is the one-row case:
`norms` evaluates the rows of a 2-d array and `norm` one vector; `apply` maps
rows by one stacked matrix-vector product and `blend_apply` forms the
two-map blend of rows from it. Batched code bounds each block of rows it
forms by BATCH_ELEMENTS elements via `row_blocks`.

A map multiplies only its hull: the rows from its first to its last nonzero
row, widened to multiples of _HULL_ALIGN. The rows outside it are zero, so
their images are the zeros `apply` starts from. The images inside it are
bit-equal to the full product's because the BLAS matrix-vector kernel forms
outputs in aligned groups (of 4 in OpenBLAS's dgemv_t), and a row's bits
depend on its place in its group; a property test guards this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionMismatch

Vector = np.ndarray

BATCH_ELEMENTS = 1 << 14  # element budget of any batched temporary
# the row alignment of a map's hull: a multiple of the BLAS kernel's group of
# output rows, with headroom for wider kernels
_HULL_ALIGN = 16


def row_blocks(rows: int, width: int):
    """Consecutive slices of range(rows), each covering at most
    BATCH_ELEMENTS elements of a row width `width` (and at least one row)."""
    step = max(1, BATCH_ELEMENTS // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Lp:
    """The p-norm with p in [1, inf]; use math.inf for the sup norm."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p!r}")


@dataclass(frozen=True, eq=False)
class WeightedLp:
    """(sum_i w_i |x_i|^p)^(1/p) with strictly positive weights.

    For p = inf the norm is max_i w_i |x_i|.
    """

    p: float
    weights: np.ndarray

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p!r}")
        w = _freeze(self.weights)
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a non-empty vector of finite positive reals")
        object.__setattr__(self, "weights", w)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedLp)
            and self.p == other.p
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class MaxAbsFunctionals:
    """max_k |<f_k, x>| over a family of functionals whose span is full-dimensional."""

    functionals: np.ndarray

    def __post_init__(self):
        f = _freeze(self.functionals)
        if f.ndim != 2 or f.size == 0 or not np.all(np.isfinite(f)):
            raise ValueError("functionals must be a non-empty finite 2-d array")
        object.__setattr__(self, "functionals", f)

    def __eq__(self, other):
        return isinstance(other, MaxAbsFunctionals) and np.array_equal(
            self.functionals, other.functionals
        )


NormSpec = Union[Lp, WeightedLp, MaxAbsFunctionals]


@dataclass(frozen=True)
class Space:
    """A finite-dimensional real vector space with a computable norm."""

    dim: int
    norm: NormSpec = Lp(2.0)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        spec = self.norm
        if isinstance(spec, WeightedLp) and spec.weights.shape[0] != self.dim:
            raise DimensionMismatch(
                f"weights length {spec.weights.shape[0]} != dim {self.dim}"
            )
        if isinstance(spec, MaxAbsFunctionals):
            f = spec.functionals
            if f.shape[1] != self.dim:
                raise DimensionMismatch(f"functionals width {f.shape[1]} != dim {self.dim}")
            if np.linalg.matrix_rank(f) < self.dim:
                raise ValueError("functionals do not span the space")


def as_rows(vectors, dim: int) -> np.ndarray:
    """A (k, dim) float array of the given rows; any other width raises
    DimensionMismatch (rows are never reshaped to fit)."""
    if not isinstance(vectors, np.ndarray):
        rows = [np.asarray(v, dtype=float) for v in vectors]
        bad = next((v.shape for v in rows if v.shape != (dim,)), None)
        if bad is not None:
            raise DimensionMismatch(f"vector shape {bad} != ({dim},)")
        vectors = np.array(rows).reshape(len(rows), dim)
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatch(f"rows shape {X.shape} != (k, {dim})")
    return X


def _root(sums: np.ndarray, p: float) -> np.ndarray:
    # scalar pow per row: numpy's vectorized pow may differ in the last ulp
    inv = 1.0 / p
    return np.array([s**inv for s in sums.tolist()])


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima of a (non-negative) and a divided by them; zero rows stay zero."""
    m = a.max(axis=1, initial=0.0)
    return m, a / np.where(m > 0.0, m, 1.0)[:, None]


def _norms_block(spec: NormSpec, X: np.ndarray) -> np.ndarray:
    if isinstance(spec, MaxAbsFunctionals):
        # stacked matrix-vector products: the same kernel as functionals @ x
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
        # stacked row dot products: the same kernel as np.dot(a, a)
        return m * np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    return m * _root(np.sum(a**p, axis=1), p)


def norms(space: Space, X) -> np.ndarray:
    """Row-wise norms of a (k, dim) array, evaluated in blocks of at most
    BATCH_ELEMENTS elements with the same floating operations on each row."""
    X = np.ascontiguousarray(as_rows(X, space.dim))
    spec = space.norm
    width = space.dim
    if isinstance(spec, MaxAbsFunctionals):
        width = max(width, spec.functionals.shape[0])
    out = np.empty(X.shape[0])
    for block in row_blocks(X.shape[0], width):
        out[block] = _norms_block(spec, X[block])
    return out


def norm(space: Space, x) -> float:
    """Evaluate the norm of x in the given space; zero iff x is the zero vector.
    This is the one-row call of norms."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise DimensionMismatch(f"vector shape {x.shape} != ({space.dim},)")
    return float(norms(space, x[None])[0])


def _hull_rows(m: np.ndarray) -> slice:
    """The rows [lo, hi) from the first to the last row of m holding a nonzero
    bit pattern (so -0.0 counts), with lo rounded down and hi rounded up to a
    multiple of _HULL_ALIGN and capped at the row count; empty for a zero m.
    A one-row hull short of the whole matrix takes one more aligned group
    below it: numpy sends a one-row product to dot, not to the matrix-vector
    kernel that forms the full product's rows."""
    rows = np.flatnonzero(np.any(m.view(np.uint64) != 0, axis=1))
    if rows.size == 0:
        return slice(0, 0)
    lo = int(rows[0]) // _HULL_ALIGN * _HULL_ALIGN
    hi = min(-(-(int(rows[-1]) + 1) // _HULL_ALIGN) * _HULL_ALIGN, m.shape[0])
    if hi - lo == 1 and m.shape[0] > 1:
        lo -= _HULL_ALIGN
    return slice(lo, hi)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A dense linear map between two spaces, stored as a (target.dim, source.dim) matrix.

    `rows` is the map's hull (see `_hull_rows`) and `hull` the view of the
    matrix on it: every row outside the hull is zero.
    """

    matrix: np.ndarray
    source: Space
    target: Space
    rows: slice = field(init=False, repr=False)
    hull: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"matrix shape {m.shape} != ({self.target.dim}, {self.source.dim})"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)
        rows = _hull_rows(m)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "hull", m[rows])


def apply(m: LinearMap, x) -> Vector:
    """The image of x in the map's target space: m x for a 1-d x, or the
    (k, target.dim) images of the rows of a (k, source.dim) array.

    The images start as zeros, and one stacked matrix-vector product of the
    map's hull writes the hull's columns, so each row's image is bit-equal to
    the one-row call and, for finite rows, to the product of the whole
    matrix. A dense matrix's hull is all its rows."""
    x = np.asarray(x, dtype=float)
    X = x[None] if x.ndim == 1 else x
    if X.ndim != 2 or X.shape[1] != m.source.dim:
        raise DimensionMismatch(f"shape {x.shape} != ({m.source.dim},) or (k, {m.source.dim})")
    images = np.zeros((len(X), m.target.dim))
    images[:, m.rows] = np.matmul(m.hull, X[:, :, None])[:, :, 0]
    return images[0] if x.ndim == 1 else images


def blend_apply(c, s, first: LinearMap, second: LinearMap, x) -> Vector:
    """c*(first x) + s*(second x): floats c and s for a 1-d x, or one (c, s)
    pair per row of a (k, source.dim) array.

    Every code path that interpolates two maps goes through this function so
    that results agree bit-for-bit across modules.
    """
    blend = apply(first, x)
    other = apply(second, x)
    if blend.ndim == 2:
        c, s = np.asarray(c)[:, None], np.asarray(s)[:, None]
    blend *= c
    other *= s
    blend += other
    return blend


def direction_gain(theta, u, first: LinearMap, second: LinearMap):
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u) for unit u.

    A 1-d u with one angle gives a float. A (k, dim) array of rows with k
    angles gives the k gains as an array, each bit-equal to the one-row call:
    cos and sin come from math once per distinct angle, and blend_apply forms
    the blend images in row blocks of twice the target width. The first
    non-unit row raises ValueError.
    """
    U = np.asarray(u, dtype=float)
    if U.ndim == 1:
        return float(direction_gain([theta], U[None, :], first, second)[0])
    nu = norms(first.source, U)
    bad = np.flatnonzero(np.abs(nu - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"u must be a unit vector, got norm {float(nu[bad[0]])!r}")
    # cos and sin once per distinct angle bit pattern (so -0.0 and 0.0 stay
    # apart), gathered back to the rows
    bits, inverse = np.unique(np.asarray(theta, dtype=float).view(np.uint64), return_inverse=True)
    distinct = bits.view(float).tolist()
    c = np.array([math.cos(t) for t in distinct])[inverse]
    s = np.array([math.sin(t) for t in distinct])[inverse]
    if c.shape != nu.shape:
        raise ValueError(f"need one angle per row, got {c.size} for {nu.size} rows")
    out = np.empty(len(U))
    for block in row_blocks(len(U), 2 * first.target.dim):
        # the blend goes straight into norms, so no block outlives its iteration
        out[block] = norms(first.target, blend_apply(c[block], s[block], first, second, U[block]))
    return out


def norm_to_dict(spec: NormSpec) -> dict:
    if isinstance(spec, Lp):
        return {"norm": "lp", "p": "inf" if spec.p == math.inf else spec.p}
    if isinstance(spec, WeightedLp):
        return {
            "norm": "weighted_lp",
            "p": "inf" if spec.p == math.inf else spec.p,
            "weights": spec.weights.tolist(),
        }
    return {"norm": "max_abs", "functionals": spec.functionals.tolist()}


def _parse_p(raw) -> float:
    if raw == "inf":
        return math.inf
    return float(raw)


def norm_from_dict(d: dict) -> NormSpec:
    kind = d.get("norm") if isinstance(d, dict) else None
    if kind == "lp":
        return Lp(_parse_p(d["p"]))
    if kind == "weighted_lp":
        return WeightedLp(_parse_p(d["p"]), np.asarray(d["weights"], dtype=float))
    if kind == "max_abs":
        return MaxAbsFunctionals(np.asarray(d["functionals"], dtype=float))
    raise ValueError(f"unknown norm spec {d!r}")


def space_to_dict(space: Space) -> dict:
    return {"dim": space.dim, "norm": norm_to_dict(space.norm)}


def space_from_dict(d: dict) -> Space:
    return Space(int(d["dim"]), norm_from_dict(d["norm"]))
