"""Finite-dimensional normed spaces, vectors, and linear maps.

Norm evaluation is exact and overflow-safe: p-power sums are computed after
rescaling by the largest coordinate, so norms of vectors with entries near
the float range remain finite.

Each rule has one row kernel, and its one-vector call is the one-row case:
`norms` evaluates the rows of a 2-d array and `norm` one vector; `apply` maps
rows by one stacked matrix-vector product and `blend_apply` forms the
two-map blend of rows from it. Batched code bounds each block of rows it
forms by BATCH_ELEMENTS elements via `row_blocks`.

A map stores and multiplies only its hull: the rows from its first to its
last nonzero row, widened to multiples of _HULL_ALIGN. `LinearMap.from_band`
builds a map from its nonzero band alone, so a generated bank never forms a
dense matrix; `LinearMap(matrix, ...)` keeps a copy of a dense matrix's hull,
and `.matrix` forms the dense matrix anew on each read. The rows outside the
hull are zero, so their images are the zeros `apply` starts from. The
images inside it are bit-equal to the full product's because the BLAS
matrix-vector kernel forms outputs in aligned groups (of 4 in OpenBLAS's
dgemv_t), and a row's bits depend on its place in its group; a property
test guards this.

`image_norms` gives the norms of a map's images, as certification needs
them, bit-equal to `norms` of `apply`: one zero buffer of a block of images
is reused for every block, only the hull's columns are ever written, and the
norm's elementwise passes (max, rescaling, power, weights) run in place on
those columns. Only the final reduction (the sum, or the stacked dot of the
l2 norm) runs over every column: its bits depend on the full width, through
numpy's pairwise summation tree and the BLAS dot's grouping, and the zeros
it adds are those `apply` would have written. `blend_apply` and
`direction_gain` still form full-width images.

`distinct_rows` groups rows by bit pattern, exactly, so that a caller can
evaluate each distinct row once and gather the results back: certification
images each distinct nonzero certify row once per map, and the sweep's
sandwich blends each distinct (theta, u) row once. `direction_gain` itself
does not group: selection's level checks never repeat a row. Every kernel
here is row-wise, so the gathered values are the bits of evaluating every
row.
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


# the odd multiplier of distinct_rows' hash (the 64-bit golden ratio); column
# j of a row is weighted by its (j + 1)-th power
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def distinct_rows(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of equal-length 1-d or 2-d float arrays by bit pattern.

    Row i is the concatenation of row i of every array. Returns (take,
    inverse): take holds the first row of each group, ascending, and
    inverse[i] the group of row i, so that each array's `a[take][inverse]`
    has the bits of `a`. Rows of one group have equal bits in every column
    (so -0.0 and 0.0, and NaNs of different payloads, stay apart).

    Each row's bits are folded into a hash (each column's bits xored with
    their high half, times the column's power of _HASH_MULTIPLIER, summed),
    whose top bits, with the row index in the low bits, make one sort key
    per row. Sorting the keys orders the rows by hash and, within a hash,
    by index; a row joins its predecessor's group only when the bits of the
    two rows are equal, so a collision costs a missed merge, never a wrong
    group. Rows are hashed and compared in row blocks, so the extra memory
    is a few arrays of one entry per row."""
    tables = [np.ascontiguousarray(a, dtype=float) for a in arrays]
    rows = len(tables[0])
    if any(t.ndim not in (1, 2) or len(t) != rows for t in tables):
        raise ValueError("distinct_rows needs 1-d or 2-d arrays of equal length")
    bits = [(t if t.ndim == 2 else t[:, None]).view(np.uint64) for t in tables]
    # each row's bits as one item: a gather of items copies one block per row
    items = [b.view(f"V{8 * b.shape[1]}")[:, 0] for b in bits]
    spans = np.cumsum([0] + [b.shape[1] for b in bits])
    width = int(spans[-1])
    weights = np.cumprod(np.full(width, _HASH_MULTIPLIER))
    key = np.zeros(rows, dtype=np.uint64)
    for block in row_blocks(rows, 2 * width):
        for b, start, stop in zip(bits, spans, spans[1:]):
            mixed = b[block] >> np.uint64(32)
            mixed ^= b[block]
            key[block] += mixed @ weights[start:stop]
    shift = np.uint64(max(rows - 1, 1).bit_length())
    key >>= shift
    key <<= shift
    key |= np.arange(rows, dtype=np.uint64)
    key.sort()
    order = (key & ((np.uint64(1) << shift) - np.uint64(1))).astype(np.intp)
    key >>= shift
    new = np.ones(rows, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    # only a row whose hash equals its predecessor's may join its group
    ties = np.flatnonzero(~new)
    for block in row_blocks(len(ties), 2 * width):
        at = ties[block]
        here, before = order[at], order[at - 1]
        differ = np.zeros(len(at), dtype=bool)
        for b, item in zip(bits, items):
            unequal = item[here].view(np.uint64) != item[before].view(np.uint64)
            # a boolean matrix-vector product is the row-wise any
            differ |= unequal.reshape(len(at), b.shape[1]) @ np.ones(b.shape[1], dtype=bool)
        new[at] = differ
    # number the groups by their first rows, which the sort put first
    heads = order[new]
    first = np.zeros(rows, dtype=bool)
    first[heads] = True
    inverse = np.empty(rows, dtype=np.intp)
    inverse[order] = (np.cumsum(first) - 1)[heads][np.cumsum(new) - 1]
    return np.flatnonzero(first), inverse


def cos_sin(angles) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin from math (numpy's may differ in the last ulp) of each
    angle of a 1-d array, evaluated once per distinct bit pattern (so -0.0
    and 0.0 stay apart) and gathered back."""
    bits, inverse = np.unique(
        np.asarray(angles, dtype=float).reshape(-1).view(np.uint64), return_inverse=True
    )
    values = bits.view(float).tolist()
    c = np.array([math.cos(a) for a in values], dtype=float)
    s = np.array([math.sin(a) for a in values], dtype=float)
    return c[inverse], s[inverse]


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


def _abs_norms_block(spec: NormSpec, a: np.ndarray, cols) -> np.ndarray:
    """Row norms of a block `a` of absolute values that are zero outside the
    columns `cols`, for an Lp or weighted Lp norm; `a` is overwritten.

    The row maxima, the division by them, the p-th power and the weights run
    in place on a[:, cols] only; the final sum or stacked dot runs over every
    column. The bits are those of the full-width passes: max is exact, 0/m,
    0**p and w*0 are 0, so the final reduction sees the same array, and its
    bits depend on that array's full width (numpy's pairwise summation tree,
    the BLAS dot's grouping)."""
    h = a[:, cols]
    p = spec.p
    weights = spec.weights[cols] if isinstance(spec, WeightedLp) else None
    if p == math.inf:
        if weights is not None:
            h *= weights
        return h.max(axis=1, initial=0.0)
    if p == 1.0 and weights is None:
        return a.sum(axis=1)
    m = h.max(axis=1, initial=0.0)
    h /= np.where(m > 0.0, m, 1.0)[:, None]
    if p == 2.0 and weights is None:
        # stacked row dot products: the same kernel as np.dot(a, a)
        return m * np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    h **= p
    if weights is not None:
        h *= weights
    return m * _root(a.sum(axis=1), p)


def _norms_block(spec: NormSpec, X: np.ndarray) -> np.ndarray:
    if isinstance(spec, MaxAbsFunctionals):
        # stacked matrix-vector products: the same kernel as functionals @ x
        return np.abs(np.matmul(spec.functionals, X[:, :, None])[:, :, 0]).max(axis=1)
    return _abs_norms_block(spec, np.abs(X), slice(None))


def _block_width(space: Space) -> int:
    """The row width that bounds a block of norms: the dimension, or the
    count of functionals of a max-abs norm when larger."""
    if isinstance(space.norm, MaxAbsFunctionals):
        return max(space.dim, space.norm.functionals.shape[0])
    return space.dim


def norms(space: Space, X) -> np.ndarray:
    """Row-wise norms of a (k, dim) array, evaluated in blocks of at most
    BATCH_ELEMENTS elements with the same floating operations on each row."""
    X = np.ascontiguousarray(as_rows(X, space.dim))
    out = np.empty(X.shape[0])
    for block in row_blocks(X.shape[0], _block_width(space)):
        out[block] = _norms_block(space.norm, X[block])
    return out


def norm(space: Space, x) -> float:
    """Evaluate the norm of x in the given space; zero iff x is the zero vector.
    This is the one-row call of norms."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise DimensionMismatch(f"vector shape {x.shape} != ({space.dim},)")
    return float(norms(space, x[None])[0])


def _hull_rows(band: np.ndarray, start: int = 0, total: int | None = None) -> slice:
    """The hull of a matrix of `total` rows (by default len(band)) whose rows
    start, start + 1, ... are those of `band` and whose other rows are zero:
    the rows [lo, hi) from the first to the last row holding a nonzero bit
    pattern (so -0.0 counts), with lo rounded down and hi rounded up to a
    multiple of _HULL_ALIGN and capped at the row count; empty for a zero band.
    A one-row hull short of the whole matrix takes one more aligned group
    below it: numpy sends a one-row product to dot, not to the matrix-vector
    kernel that forms the full product's rows."""
    total = len(band) if total is None else total
    rows = np.flatnonzero(np.any(band.view(np.uint64) != 0, axis=1))
    if rows.size == 0:
        return slice(0, 0)
    lo = (start + int(rows[0])) // _HULL_ALIGN * _HULL_ALIGN
    hi = min(-(-(start + int(rows[-1]) + 1) // _HULL_ALIGN) * _HULL_ALIGN, total)
    if hi - lo == 1 and total > 1:
        lo -= _HULL_ALIGN
    return slice(lo, hi)


@dataclass(frozen=True, eq=False, init=False)
class LinearMap:
    """A linear map between two spaces, a (target.dim, source.dim) matrix
    stored as its hull: `rows` is the hull's slice of the matrix rows (see
    `_hull_rows`) and `hull` the read-only matrix rows on it; every row outside
    the hull is zero.

    LinearMap(matrix, source, target) takes a dense matrix and keeps a copy of
    its hull; LinearMap.from_band builds a map from its nonzero band alone, so
    no dense matrix is ever formed. `matrix` forms the dense read-only matrix
    anew on each read.
    """

    source: Space
    target: Space
    rows: slice = field(repr=False)
    hull: np.ndarray = field(repr=False)

    def __init__(self, matrix, source: Space, target: Space):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (target.dim, source.dim):
            raise DimensionMismatch(f"matrix shape {m.shape} != ({target.dim}, {source.dim})")
        self._keep(m, 0, source, target)

    @classmethod
    def from_band(cls, band, start: int, source: Space, target: Space) -> LinearMap:
        """The map whose matrix rows start, start + 1, ... are the rows of
        `band` and whose other rows are zero."""
        b = np.asarray(band, dtype=float)
        if b.ndim != 2 or b.shape[1] != source.dim or not 0 <= start <= target.dim - len(b):
            raise DimensionMismatch(
                f"band shape {b.shape} at row {start} does not fit ({target.dim}, {source.dim})"
            )
        lin = cls.__new__(cls)
        lin._keep(b, start, source, target)
        return lin

    def _keep(self, band: np.ndarray, start: int, source: Space, target: Space) -> None:
        if not np.all(np.isfinite(band)):
            raise ValueError("matrix has non-finite entries")
        rows = _hull_rows(band, start, target.dim)
        hull = np.zeros((rows.stop - rows.start, source.dim))
        # the band's rows outside the hull are zero
        lo, hi = max(rows.start, start), min(rows.stop, start + len(band))
        if lo < hi:
            hull[lo - rows.start : hi - rows.start] = band[lo - start : hi - start]
        hull.flags.writeable = False
        for name, value in (("source", source), ("target", target), ("rows", rows), ("hull", hull)):
            object.__setattr__(self, name, value)

    @property
    def matrix(self) -> np.ndarray:
        """The dense (target.dim, source.dim) matrix, read-only, formed on
        each read: zeros with the hull in its rows."""
        m = np.zeros((self.target.dim, self.source.dim))
        m[self.rows] = self.hull
        m.flags.writeable = False
        return m


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


def image_norms(m: LinearMap, X) -> np.ndarray:
    """norms(m.target, apply(m, X)) for the rows of a (k, source.dim) array,
    bit for bit, without forming the images anew per block.

    One zero buffer of a block's images serves every block. The hull's
    stacked product is written into the hull's columns, as absolute values
    (signed for a max-abs norm, which takes its own products); the other
    columns are never written and stay zero, and the norm's elementwise
    passes run on the hull's columns only (see _abs_norms_block)."""
    X = as_rows(X, m.source.dim)
    spec = m.target.norm
    blocks = list(row_blocks(len(X), _block_width(m.target)))
    buffer = np.zeros((blocks[0].stop if blocks else 0, m.target.dim))
    out = np.empty(len(X))
    for block in blocks:
        images = buffer[: block.stop - block.start]
        product = np.matmul(m.hull, X[block, :, None])[:, :, 0]
        if isinstance(spec, MaxAbsFunctionals):
            images[:, m.rows] = product
            out[block] = _norms_block(spec, images)
        else:
            np.abs(product, out=images[:, m.rows])
            out[block] = _abs_norms_block(spec, images, m.rows)
    return out


def image_chunks(rows: int, source: Space, target: Space):
    """row_blocks(rows, source.dim), each cut down to a whole number of the
    blocks in which image_norms images rows into target, where one fits: only
    the last chunk then ends in a short block of images."""
    step = max(1, BATCH_ELEMENTS // source.dim)
    images = max(1, BATCH_ELEMENTS // _block_width(target))
    if images < step:
        step -= step % images
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


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
    cos and sin come from cos_sin, and blend_apply forms the blend images in
    row blocks of twice the target width. The first non-unit row raises
    ValueError. Rows are not grouped here: a caller whose rows repeat groups
    them with distinct_rows and gathers the gains back.
    """
    U = np.asarray(u, dtype=float)
    if U.ndim == 1:
        return float(direction_gain([theta], U[None, :], first, second)[0])
    U = as_rows(U, first.source.dim)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    # a non-unit row is reported before a miscount
    _check_unit(norms(first.source, U))
    if theta.size != len(U):
        raise ValueError(f"need one angle per row, got {theta.size} for {len(U)} rows")
    c, s = cos_sin(theta)
    gains = np.empty(len(U))
    for block in row_blocks(len(U), 2 * first.target.dim):
        # the blend goes straight into norms, so no block outlives its iteration
        gains[block] = norms(first.target, blend_apply(c[block], s[block], first, second, U[block]))
    return gains


def _check_unit(nu: np.ndarray) -> None:
    """Raise ValueError naming the first of the norms nu that is not 1
    within 1e-12."""
    bad = np.flatnonzero(np.abs(nu - 1.0) > 1e-12)
    if bad.size:
        raise ValueError(f"u must be a unit vector, got norm {float(nu[bad[0]])!r}")


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
