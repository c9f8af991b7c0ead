"""Finite-dimensional normed spaces, vectors, and linear maps.

Norm evaluation is exact and overflow-safe: p-power sums are computed after
rescaling by the largest coordinate, so norms of vectors with entries near
the float range remain finite.

Each rule has one row kernel, and its one-vector call is the one-row case:
`norms` evaluates the rows of a 2-d array and `norm` one vector; `apply` maps
rows by one stacked matrix-vector product and `blend_apply` forms the
two-map blend of rows from it. Batched code bounds each block of rows it
forms by BATCH_ELEMENTS elements via `row_blocks`.

`norms` reads its rows and takes the abs of a copy of each block. Every
block formed here, which no one else reads, is normed in place instead by
`_norms_in_place`, the abs running into the block itself, with the same
arithmetic: each row block of `pair_difference_norms`'s differences (the
sweep's source and image differences, from `pair_differences`), of
`blend_norms`' sums, of `image_norms`' images and of `screen_norms`'
products. The max-abs functionals read a block through their products and
leave it as it is.

A map stores and multiplies only its hull: the rows from its first to its
last nonzero row. `LinearMap.from_band` builds a map from its nonzero band
alone, so a generated bank never forms a dense matrix; `LinearMap(matrix,
...)` keeps a copy of a dense matrix's hull, and `.matrix` forms the dense
matrix anew on each read. The rows outside the hull are zero, so their
images are the zeros `apply` starts from.

Images are held on a window of columns too. `apply` and `blend_apply`
take a slice of target columns that holds the maps' hulls (such as
`hull_columns`, the union of the hulls) and form the images on those
columns alone; every other entry of an image is +0.0. So the sweep keeps
its images on the selected maps' columns, and `pair_difference_norms`
takes rows that hold a window of full-width rows, +0.0 elsewhere: it copies
each part's window differences into a reused full-width block, +0.0
outside the window, and norms the block's full rows in place, so that each
norm has the bits of the full-width rows' difference.

Two kernels give the norms of maps' images on the maps' hulls alone.
`image_norms` norms `apply`'s images, as certification needs them: for an
lp or weighted lp norm, each block holds the map's hull columns alone.
`blend_norms` norms the blends of `blend_apply`, as `direction_gain` needs
them: a row of a blend is zero outside the union of the two hulls, so for
an lp or weighted lp norm each block is one zero buffer as wide as the
union, reused for every block, into which both products are written. abs
and the norm's elementwise passes (max, rescaling, power, weights) run on
the whole block in place, and a plain row sum, max or stacked row dot over
the block ends each row. Only the max-abs functionals, which span every
column, take full-width blocks. These norms are the reference arithmetic of
certification, of selection's level checks and of the pair sweep alike.
They may differ from `norms` of the full-width images in the last bits,
since a sum or dot over the hulls groups its terms otherwise than one over
every column; both stay within the summation's forward error bound, which a
property test checks against exact sums.

`screen_norms` is `image_norms` with each block's products taken by one
matrix product (a gemm) instead of stacked matrix-vector products: the same
abs and norm passes, on blocks of its product alone, but a gemm may group a
product's terms otherwise. `screen_bound` bounds the difference of the two
kernels' ratios to a source norm by delta, from the dot product's forward
error bound, which holds for any kernel, summation order or FMA; on a
monomial hull, whose every product is one rounded product plus exact
zeros, delta is 0. Certification screens its rows with it and takes from
`image_norms` every ratio that can be a map's extreme (see
`bank.build_bank`), so every value it reports comes from the reference
arithmetic or, on a monomial hull, has its bits. The max-abs functionals
have no screen.

`distinct_rows` is the one exact grouping of the rows of an array by bit
pattern. A row joins the group of its hash's first row when their bits
are equal, and starts a group of its own otherwise. Decompose groups each
block of a level's unit differences with it alone, and joins the blocks'
groups by their bytes. Certification groups no rows: it folds each block
of certify rows into each map's extreme ratios, screening a repeated row
again (see `bank.build_bank`). The sweep hashes no rows: its repeated
sandwich rows are those of one point (x/|x| at the ramp angle of x, y/|y|
at a clamped angle), whose gains it keeps in per-point tables (see
`verify._sandwich`). `direction_gain` itself does not group: selection's
level checks never repeat a row. Every kernel here is row-wise, so a row's
values have the same bits wherever it sits in a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionMismatch

Vector = np.ndarray

BATCH_ELEMENTS = 1 << 14  # element budget of any batched temporary


def row_blocks(rows: int, width: int):
    """Consecutive slices of range(rows), each covering at most
    BATCH_ELEMENTS elements of a row width `width` (and at least one row)."""
    step = max(1, BATCH_ELEMENTS // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


class RowBlocks:
    """Rows formed a block at a time: len() counts them, and iterating
    calls blocks(), which yields them in order as 2-d arrays."""

    def __init__(self, rows: int, blocks):
        self.rows = rows
        self.blocks = blocks

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return iter(self.blocks())


# the odd multiplier of _row_hashes (the 64-bit golden ratio); column j of a
# row is weighted by its (j + 1)-th power
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _row_hashes(bits: np.ndarray) -> np.ndarray:
    """The 64-bit hash of each row of a 2-d block of rows' bits (uint64):
    each column's bits xored with their high half, times the column's power
    of _HASH_MULTIPLIER, summed; distinct_rows keys the rows by its top
    bits. The rows are hashed in row blocks of half the element budget."""
    weights = np.cumprod(np.full(bits.shape[1], _HASH_MULTIPLIER))
    hashes = np.empty(len(bits), dtype=np.uint64)
    for part in row_blocks(len(bits), 2 * len(weights)):
        mixed = bits[part] >> np.uint64(32)
        mixed ^= bits[part]
        hashes[part] = mixed @ weights
    return hashes


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a 2-d float array by bit pattern.

    Returns (kept, group): kept[g] has the bits of group g's first row, and
    group[i] (an intp) is row i's group, so that kept[group] has the bits
    of the rows. Rows of one group have equal bits in every column (so -0.0
    and 0.0, and NaNs of different payloads, stay apart).

    One rule makes the groups: a row joins the group of its hash's first
    row when their bits are equal, and starts a group of its own otherwise
    (a hash collision), so a collision costs at most a missed merge, never
    a wrong group. Groups are numbered in row order. A row's key is its
    hash's top bits (_row_hashes) with its index in the low bits, so the
    sorted keys order the rows by hash and, within a hash, by index."""
    rows = len(X)
    bits = X.view(np.uint64)
    shift = np.uint64(max(rows - 1, 1).bit_length())
    index_bits = (np.uint64(1) << shift) - np.uint64(1)
    key = _row_hashes(bits)
    key &= ~index_bits
    key |= np.arange(rows, dtype=np.uint64)
    key.sort()
    hashes = key >> shift
    key &= index_bits
    at = key.view(np.intp)
    first = np.empty(rows, dtype=bool)
    first[:1] = True
    np.not_equal(hashes[1:], hashes[:-1], out=first[1:])
    starts = at[first]
    # each row's hash's first row: the first row of its run of the sorted keys
    head = np.empty(rows, dtype=np.intp)
    head[at] = np.repeat(starts, np.diff(np.append(np.flatnonzero(first), rows)))
    new = np.zeros(rows, dtype=bool)
    new[starts] = True
    unequal = bits != np.take(bits, head, axis=0)
    if unequal.any():
        # a hash collision: a row whose bits differ from its hash's first
        # row's is the first row of a group of its own
        new |= unequal.any(axis=1)
        head[new] = np.flatnonzero(new)
    return X[new], (np.cumsum(new) - 1)[head]


def _read_only(a: np.ndarray) -> np.ndarray:
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
        w = _read_only(self.weights)
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
        f = _read_only(self.functionals)
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
    return sums ** (1 / p)


def _abs_norms_block(spec: NormSpec, a: np.ndarray, start: int = 0) -> np.ndarray:
    """Row norms of a block `a` of absolute values, for an Lp or weighted Lp
    norm; `a` holds the target columns start, start + 1, ... (every other
    column is zero) and is overwritten.

    The row maxima, the division by them, the p-th power and the weights run
    in place on the whole block, and a plain row sum, max or stacked row dot
    ends each row."""
    p = spec.p
    weights = None
    if isinstance(spec, WeightedLp):
        weights = spec.weights[start : start + a.shape[1]]
    if p == math.inf:
        if weights is not None:
            a *= weights
        return a.max(axis=1, initial=0.0)
    if p == 1.0 and weights is None:
        return a.sum(axis=1)
    m = a.max(axis=1, initial=0.0)
    a /= np.where(m > 0.0, m, 1.0)[:, None]
    if p == 2.0 and weights is None:
        return m * np.sqrt(_row_dots(a))
    a **= p
    if weights is not None:
        a *= weights
    return m * _root(a.sum(axis=1), p)


def _row_dots(a: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself, as stacked row dot products: the
    same kernel as np.dot(row, row). A block of an odd width first gets a
    zero column, so that every row starts 16-byte aligned: OpenBLAS's
    generic kernel peels a term off a row that does not, which would make a
    row's dot depend on its place in the block."""
    if a.shape[1] % 2:
        a = np.pad(a, ((0, 0), (0, 1)))
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _products(matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    """matrix @ x for each row x of a (k, dim) array, as (k, len(matrix))
    stacked matrix-vector products. numpy takes a one-row matrix's products
    by dot, whose bits under OpenBLAS's generic kernel depend on the row's
    16-byte alignment (rows of an odd width alternate): so they are taken on
    a copy of the rows at an even row stride, where every row starts 16-byte
    aligned, as a row alone does."""
    if len(matrix) == 1:
        X = np.pad(X, ((0, 0), (0, X.shape[1] % 2)))[:, : X.shape[1]]
    return np.matmul(matrix, X[:, :, None])[:, :, 0]


def _norms_block(spec: NormSpec, X: np.ndarray) -> np.ndarray:
    if isinstance(spec, MaxAbsFunctionals):
        # stacked matrix-vector products: the same kernel as functionals @ x
        return np.abs(np.matmul(spec.functionals, X[:, :, None])[:, :, 0]).max(axis=1)
    return _abs_norms_block(spec, np.abs(X))


def _norms_in_place(spec: NormSpec, X: np.ndarray, start: int = 0) -> np.ndarray:
    """_norms_block of a block X that no one else reads, overwritten: the
    abs runs into X itself, so no copy of the block is made. For an lp or
    weighted lp norm, X holds the target columns start, start + 1, ... (see
    _abs_norms_block); the max-abs functionals read every column of X, and
    read it only, through their products."""
    if isinstance(spec, MaxAbsFunctionals):
        return _norms_block(spec, X)
    return _abs_norms_block(spec, np.abs(X, out=X), start)


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


def pair_differences(rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rows[a] - rows[b], bit for bit, for consecutive row-major pairs (a
    slice of a pointset.pair_blocks block): one gather of the a rows, less
    the slice of rows that each run of equal a covers. No b row is gathered,
    and no operand is broadcast (which takes numpy iterator buffers)."""
    differences = rows[a]
    j = 0
    while j < len(a):
        y = int(b[j])
        k = min(len(rows) - y, len(a) - j)
        differences[j : j + k] -= rows[y : y + k]
        j += k
    return differences


def pair_difference_norms(
    space: Space, rows: np.ndarray, a, b, out: np.ndarray, cols: slice
) -> None:
    """out[j] = the norm in space of the difference of full-width rows a[j]
    and b[j], for consecutive row-major pairs (a, b) as pair_differences
    takes them. `rows` holds the columns `cols` of the full-width rows,
    whose other columns are +0.0, so each norm is bit-equal to
    norms(space, full[a] - full[b]).

    Each part's window differences are formed contiguously by
    pair_differences and copied into the window of one reused full-width
    block that is +0.0 elsewhere (a subtraction or take into the strided
    window would take a temporary of the window's size), and the block's
    full rows are normed in place: +0 less +0 is +0, so its rows have the
    bits of the full-width differences. A part's rows are sized so that the
    block and the window differences stay within BATCH_ELEMENTS, at every
    column too. The norm's in-place passes keep the +0.0 columns +0.0 (abs,
    division by a row maximum or by 1, powers and weights), so the block
    needs no zeroing between parts."""
    width = _block_width(space)
    window = cols.stop - cols.start
    block = np.zeros((next(row_blocks(len(a), width + window), slice(0, 0)).stop, space.dim))
    for part in row_blocks(len(a), width + window):
        k = part.stop - part.start
        block[:k, cols] = pair_differences(rows, a[part], b[part])
        out[part] = _norms_in_place(space.norm, block[:k])


def _hull_rows(band: np.ndarray, start: int = 0) -> slice:
    """The hull of a matrix whose rows start, start + 1, ... are those of
    `band` and whose other rows are zero: the rows from the first to the
    last row holding a nonzero bit pattern (so -0.0 counts); empty for a
    zero band."""
    rows = np.flatnonzero(np.any(band.view(np.uint64) != 0, axis=1))
    if rows.size == 0:
        return slice(0, 0)
    return slice(start + int(rows[0]), start + int(rows[-1]) + 1)


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
        rows = _hull_rows(band, start)
        hull = np.array(band[rows.start - start : rows.stop - start] if rows.stop else band[:0])
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


def apply(m: LinearMap, x, cols: slice | None = None) -> Vector:
    """The image of x in the map's target space: m x for a 1-d x, or the
    (k, target.dim) images of the rows of a (k, source.dim) array. With
    cols, a slice of the target columns that holds the map's hull, the
    images on those columns alone: (len(cols),) or (k, len(cols)).

    The images start as zeros, and one stacked matrix-vector product of the
    map's hull writes the hull's columns, so each row's image is bit-equal to
    the one-row call, and on cols to those columns of the full image."""
    x = np.asarray(x, dtype=float)
    X = x[None] if x.ndim == 1 else x
    if X.ndim != 2 or X.shape[1] != m.source.dim:
        raise DimensionMismatch(f"shape {x.shape} != ({m.source.dim},) or (k, {m.source.dim})")
    start = 0 if cols is None else cols.start
    images = np.zeros((len(X), m.target.dim if cols is None else cols.stop - start))
    images[:, m.rows.start - start : m.rows.stop - start] = _products(m.hull, X)
    return images[0] if x.ndim == 1 else images


def hull_columns(maps) -> slice:
    """The union of the maps' hulls, from their first start to their last
    stop: the target columns outside which every sum of the maps' images
    is zero (empty when every map is zero)."""
    hulls = [m.rows for m in maps if m.rows.start < m.rows.stop]
    if not hulls:
        return slice(0, 0)
    return slice(min(h.start for h in hulls), max(h.stop for h in hulls))


def _hull_layout(maps) -> tuple[slice, int]:
    """The target columns that a block of image_norms or blend_norms holds
    for the maps' sums (a map's images, or a blend), and the row width that
    bounds a block.

    An lp or weighted lp norm has a block on hull_columns(maps), and the
    max-abs functionals on every column (whose width counts the
    functionals' products, as in norms). The row width is the block's plus
    every hull's product, and the copy of the rows that a one-row hull's
    products take (see _products), so that these stay within
    BATCH_ELEMENTS."""
    target = maps[0].target
    products = sum(len(m.hull) for m in maps)
    if any(len(m.hull) == 1 for m in maps):
        products += maps[0].source.dim + 1
    if isinstance(target.norm, MaxAbsFunctionals):
        return slice(0, target.dim), _block_width(target) + products
    cols = hull_columns(maps)
    return cols, cols.stop - cols.start + products


def image_norms(m: LinearMap, X) -> np.ndarray:
    """The norms of apply(m, X) for the rows of a (k, source.dim) array: per
    row block of _hull_layout, apply's images on the block's columns (the
    map's hull, or every column for the max-abs functionals), normed in
    place."""
    X = as_rows(X, m.source.dim)
    cols, width = _hull_layout((m,))
    out = np.empty(len(X))
    for block in row_blocks(len(X), width):
        out[block] = _norms_in_place(m.target.norm, apply(m, X[block], cols), cols.start)
    return out


def screen_norms(m: LinearMap, X) -> np.ndarray:
    """The norms of apply(m, X) for the rows of a (k, source.dim) array, for
    an lp or weighted lp target, with each block's products taken by one
    matrix product (X[block] @ hull.T, a gemm) instead of image_norms'
    stacked matrix-vector products. abs and the norm's passes are
    image_norms', on blocks of BATCH_ELEMENTS // len(hull) rows, so that the
    block's product stays within BATCH_ELEMENTS.

    A gemm may group the terms of a product otherwise than a matrix-vector
    product, so these norms may differ from image_norms' in the last bits:
    screen_bound bounds by how much."""
    if isinstance(m.target.norm, MaxAbsFunctionals):
        raise ValueError("screen_norms takes an lp or weighted lp target")
    X = as_rows(X, m.source.dim)
    transposed = m.hull.T
    out = np.empty(len(X))
    for block in row_blocks(len(X), len(m.hull)):
        product = np.matmul(X[block], transposed)
        out[block] = _norms_in_place(m.target.norm, product, m.rows.start)
        # not alive through the next block's product
        del product
    return out


_U = 2.0**-53  # the unit roundoff
_TINY = 2.0**-1074  # the least subnormal, which bounds any rounding below the normal range
_POW_U = 16 * _U  # numpy's power, and so a root, errs by at most 4 ulps; doubled
# the range of source norms on which screen_bound holds; high is divided by
# the map's constants
_SCREEN_LOW, _SCREEN_HIGH = 2.0**-900, 2.0**999


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error of a dot
    product of n terms, or a sum of n + 1 nonnegative terms, in any order,
    with or without FMA."""
    return n * _U / (1.0 - n * _U)


def _unit_weights(spec: NormSpec, start: int, width: int) -> np.ndarray | None:
    """The weights of an lp or weighted lp norm on the columns start, ...,
    start + width - 1, or None for lp (every weight 1)."""
    if isinstance(spec, WeightedLp):
        return spec.weights[start : start + width]
    return None


def _unit_norms(spec: NormSpec, start: int, width: int) -> np.ndarray:
    """The norm of each coordinate's unit vector on the columns start, ...,
    start + width - 1 of an lp or weighted lp norm: 1 for lp, and w^(1/p),
    or w for p = inf, for weighted lp. On the unit ball, a coordinate is at
    most the reciprocal."""
    weights = _unit_weights(spec, start, width)
    if weights is None:
        return np.ones(width)
    return weights if spec.p == math.inf else weights ** (1.0 / spec.p)


def _norm_error(spec: NormSpec, width: int, weights) -> float:
    """A first-order bound on the relative error of _abs_norms_block's norm
    of a row of `width` nonnegative floats, with `weights` the norm's
    weights (None for lp), when nothing overflows. Below the normal range,
    the last product, m * root, may err by a further _TINY.

    The row maximum m is exact. A plain sum errs by gamma_width. A max reads
    exact values, each weighted by one rounding. A stacked row dot divides
    by m (_U each, or _TINY below the normal range, twice in a square),
    sums width + 1 products at most (gamma_(width + 1)), and the square root
    and the product by m round once each. Otherwise, after the division by
    m, the p-th power turns a quotient's _U into (1 + _U)^p - 1 and adds
    _POW_U, a weight adds _U, the sum gamma_width, the root _POW_U (the root
    of S(1 + t) errs by at most t, as 1/p <= 1) and m * root _U. A quotient
    or power below the normal range errs by _TINY, which the power and the
    weight take to (p + 2) max(1, w) _TINY. Since the maximum's term is its
    weight times 1, the sum is at least min(w) / 2, so these add 2 (p + 2)
    width max(1, w) / min(w) _TINY relative to it."""
    p = spec.p
    if p == math.inf:
        return 0.0 if weights is None else _U
    if weights is None and p == 1.0:
        return _gamma(width)
    if weights is None and p == 2.0:
        return 2 * _U + _gamma(width + 1) + 3 * width * _TINY + 2 * _U
    w_max, w_min = (1.0, 1.0) if weights is None else (weights.max(), weights.min())
    underflow = 2 * (p + 2) * width * max(1.0, w_max) / w_min * _TINY
    # (1 + _U)^p - 1, held at e - 1, which screen_bound refuses, for a huge p
    power = math.expm1(min(p * math.log1p(_U), 1.0)) + _POW_U
    weighting = 0.0 if weights is None else _U
    return power + weighting + _gamma(width) + underflow + _POW_U + 2 * _U


def screen_bound(m: LinearMap) -> tuple[float, float, float] | None:
    """(delta, low, high): on every row x whose source norm n (as norms
    gives it) lies in [low, high], screen_norms(m, x) / n and
    image_norms(m, x) / n differ by at most delta, and for delta > 0 both
    are finite. None where no bound is derived: for max-abs functionals on
    either side, and where a constant below is too large to be of use.

    A monomial hull, each row of which holds at most one nonzero entry (a
    -0.0 counts as zero), has delta = 0, low = 0 and high = inf. Each of its
    products is one rounded product a x_j plus exact zeros, under any kernel
    and with or without FMA, so both kernels' products have the same values
    up to the sign of a zero, which abs removes. A zero map, a block-shift
    band and a rotation band (cos a x, sin a x) are monomial.

    For any other hull A, with d = source.dim and u = 2^-53: any kernel
    takes a product y_i = sum_j A_ij x_j, in any order and with or without
    FMA, to within gamma_d sum_j |A_ij| |x_j| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3), and within
    a further d 2^-1074 for products below the normal range. Let t_i be the
    target norm of hull row i's unit vector and s_j the bound of |x_j| on
    the source unit ball (both 1 for lp; see _unit_norms), and

        C = sum_i t_i sum_j |A_ij| s_j,   T = sum_i t_i.

    Since N(e) <= sum_i t_i |e_i| for the target norm N, N(y) <= C |x|, and
    the error of either kernel's product has N at most gamma_d C |x| + a,
    where a = 2 d T 2^-1074. So their norms differ by at most
    2 gamma_d C |x| + 2 a before each norm kernel's own rounding (rho, of
    _norm_error on the hull's width, relative to a norm of at most
    B |x| + a with B = (1 + gamma_d) C, and 2^-1074 for m * root) and the
    division's (u on each quotient, and 2^-1074 below the normal range).
    The source norm n errs by rho_s (of _norm_error on the source), so
    |x| <= n / (1 - rho_s), and with n >= low:

        delta = [2 gamma_d C + 2 rho B + 2 u (1 + rho) B] / (1 - rho_s)
                + (3 a + 3 * 2^-1074) / low + 2 * 2^-1074.

    These terms are first-order. With rho, rho_s and gamma_(r d) (for r
    hull rows, which bounds the rounding of C) at most 2^-24, the products
    of two of them and the rounding of this formula stay below 2^-20 of
    delta, by which delta is enlarged. low = 2^-900 keeps the underflow
    terms below 2^-170. high = 2^999 / max(1, C, R), with R = max_i sum_j
    |A_ij| s_j, keeps every product, partial sum and norm of a row finite in
    either kernel; a weighted target's sum of the hull's weights must stay
    below 2^900 too. A row with a non-finite entry has a source norm that is
    not finite, so outside [low, high]."""
    source, target = m.source, m.target
    if isinstance(source.norm, MaxAbsFunctionals) or isinstance(target.norm, MaxAbsFunctionals):
        return None
    A = np.abs(m.hull)
    if np.all(np.count_nonzero(A, axis=1) <= 1):
        return 0.0, 0.0, math.inf
    d, r = source.dim, len(A)
    t = _unit_norms(target.norm, m.rows.start, r)
    row_sums = A @ (1.0 / _unit_norms(source.norm, 0, d))
    C, R, T = float(t @ row_sums), float(row_sums.max()), float(t.sum())
    target_weights = _unit_weights(target.norm, m.rows.start, r)
    rho = _norm_error(target.norm, r, target_weights)
    rho_s = _norm_error(source.norm, d, _unit_weights(source.norm, 0, d))
    weight_sum = 0.0 if target_weights is None else float(target_weights.sum())
    if not (max(rho, rho_s, _gamma(r * d)) <= 2.0**-24 and max(C, R, T, weight_sum) <= 2.0**900):
        return None
    gamma = _gamma(d)
    B = (1.0 + gamma) * C
    a = 2 * d * T * _TINY
    delta = (2 * gamma * C + 2 * rho * B + 2 * _U * (1.0 + rho) * B) / (1.0 - rho_s)
    delta += (3 * a + 3 * _TINY) / _SCREEN_LOW + 2 * _TINY
    return delta * (1.0 + 2.0**-20), _SCREEN_LOW, _SCREEN_HIGH / max(1.0, C, R)


def blend_apply(c, s, first: LinearMap, second: LinearMap, x, cols: slice | None = None) -> Vector:
    """c*(first x) + s*(second x): floats c and s for a 1-d x, or one (c, s)
    pair per row of a (k, source.dim) array; with cols, a slice of the
    target columns that holds both hulls, on those columns alone (see
    apply), each entry bit-equal to the full blend's.

    The glued embedding (embed and level_map) and the decomposition
    residual blend through this function, so the images file prints its
    signs: `blend += other` turns a -0.0 (a negative product times c = 0)
    plus +0.0 into +0.0. blend_norms does not: it forms the same sums in its
    reused buffer, equal up to the sign of a zero, which no norm reads.
    """
    blend = apply(first, x, cols)
    other = apply(second, x, cols)
    if blend.ndim == 2:
        c, s = np.asarray(c)[:, None], np.asarray(s)[:, None]
    blend *= c
    other *= s
    blend += other
    return blend


def blend_norms(c, s, first: LinearMap, second: LinearMap, U) -> np.ndarray:
    """The norms of blend_apply(c, s, first, second, U) for the rows of a
    (k, source.dim) array with one (c, s) pair per row, in the blocks of
    _hull_layout, with the norm's passes on the union of the hulls alone
    (see the module docstring).

    One zero buffer of a block is reused for every block: per block, the
    first map's hull product, times c, is written into its hull's columns,
    and the second's, times s, is added to its hull's columns of the buffer
    (zeroed first) and written back; the columns outside the hulls are never
    written and stay zero. The whole block is then normed in place, abs
    running on the contiguous block (a ufunc writing into strided columns
    takes a buffer of up to a block's size)."""
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    U = as_rows(U, first.source.dim)
    cols, width = _hull_layout((first, second))
    # each hull's columns of the block (an empty hull's are empty)
    at = [slice(m.rows.start - cols.start, m.rows.stop - cols.start) for m in (first, second)]
    buffer = np.zeros((next(row_blocks(len(U), width), slice(0, 0)).stop, cols.stop - cols.start))
    out = np.empty(len(U))
    for block in row_blocks(len(U), width):
        sums = buffer[: block.stop - block.start]
        sums[:, at[1]] = 0.0
        for k, (coefficient, m) in enumerate(((c, first), (s, second))):
            # each product is dropped once written, so that it is not alive
            # through the next product or the norm's passes
            product = _products(m.hull, U[block])
            product *= coefficient[block, None]
            if k:
                # added into the contiguous product, which only reads the
                # buffer's strided columns: numpy takes half the iterator
                # buffers of an add into them, and a + b == b + a
                product += sums[:, at[k]]
            sums[:, at[k]] = product
            del product
        out[block] = _norms_in_place(first.target.norm, sums, cols.start)
    return out


def direction_gain(theta, u, first: LinearMap, second: LinearMap):
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u) for unit u.

    A 1-d u with one angle gives a float. A (k, dim) array of rows with k
    angles gives the k gains as an array, each bit-equal to the one-row call:
    cos and sin come from numpy's, and blend_norms takes the norms of the
    blends. The first non-unit row raises ValueError. Rows are not grouped
    here: a caller whose rows repeat passes each once and gathers the gains
    back.
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
    return blend_norms(np.cos(theta), np.sin(theta), first, second, U)


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
