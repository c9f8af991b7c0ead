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

One kernel, `_hull_norms`, gives the norms of sums of maps' images,
bit-equal to `norms` of the same sums formed by `apply`: `image_norms` is
its one-term call, the norms of a map's images, as certification needs
them, and `blend_norms` its two-term call, the norms of `blend_apply`'s
blends, as `direction_gain` needs them. numpy reduces each row over its
pairwise summation tree from column 0; every subtree that holds only
zeros sums to +0.0, and adding +0.0 to a non-negative sum is exact, so a
sum of a row that is zero outside the hulls can skip those subtrees and
keep the full-width sum's bits, in the same order. For a norm that ends
in a sum (lp with p other than 2, every weighted lp) or in a max
(l-infinity), a block holds the union of the hulls alone: a lone map's
contiguous hull product, or else one zero buffer as wide as the union,
reused for every block, into which the terms' products are written. abs
and the norm's elementwise passes (max, rescaling, power, weights) run on
the whole block in place, the max is exact over any columns, and the sum
adds the union's parts of the tree's leaves in the tree's order
(`_leaf_plan`), each with the bits of its whole leaf. The l2 norm's
stacked dot groups its terms in blocks of _DOT_ALIGN columns from column
0, so its block is the union widened to multiples of _DOT_ALIGN
(`_dot_window`), whose dot has the full width's bits; its passes run on
the whole block as well. Only the max-abs functionals and an l2 norm wider
than _DOT_WINDOW_MAX (where OpenBLAS splits a dot across threads) keep a
full-width buffer, whose passes run on the union's columns. Outside a
term's hull the full-width sum adds c*0, which changes at most the sign of
a zero, and abs removes it.

`distinct_rows` groups rows by bit pattern, exactly, so that a caller can
evaluate each distinct row once and gather the results back: decompose
groups a level's unit differences with it. Its keys (`row_keys`) can be
formed a block at a time: certification, which images each distinct
nonzero certify row once per map, keys a `RowBlocks` stream in one pass
and keeps each group's first row in a second (see `bank._certify_rows`),
and neither pass holds more than a block of rows. The sweep hashes no
rows: its repeated sandwich rows are those of one point (x/|x| at the
ramp angle of x, y/|y| at a clamped angle), whose gains it keeps in
per-point tables (see `verify._sandwich`). `direction_gain` itself does
not group: selection's level checks never repeat a row. Every kernel here
is row-wise, so the gathered values are the bits of evaluating every row.
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
# the column alignment of an l2 norm's window: a multiple of the BLAS dot
# kernel's block of terms (32 in OpenBLAS's SkylakeX ddot), so that a row's
# dot over a window holding its nonzeros has the bits of its dot over the
# whole row. OpenBLAS 0.3.31's Nehalem, Sandybridge, Haswell and SkylakeX
# kernels keep these bits; its generic Katmai kernel does not (see README)
_DOT_ALIGN = 32
# the widest l2 target whose norms take a window: above 10 000 terms OpenBLAS
# splits a dot across threads, which groups the terms by the whole width
_DOT_WINDOW_MAX = 10_000


def row_blocks(rows: int, width: int):
    """Consecutive slices of range(rows), each covering at most
    BATCH_ELEMENTS elements of a row width `width` (and at least one row)."""
    step = max(1, BATCH_ELEMENTS // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


class RowBlocks:
    """Rows formed a block at a time: len() counts them, and each iteration
    calls blocks() anew, which yields them in order as 2-d arrays."""

    def __init__(self, rows: int, blocks):
        self.rows = rows
        self.blocks = blocks

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return iter(self.blocks())


# the odd multiplier of distinct_rows' hash (the 64-bit golden ratio); column
# j of a row is weighted by its (j + 1)-th power
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def row_keys(blocks, rows: int) -> tuple[np.ndarray, np.uint64]:
    """The sorted keys by which distinct_rows groups `rows` rows, given a
    block at a time, and the number of low bits holding the row index.

    Each block of `blocks` is a sequence of equal-length 1-d or 2-d float
    arrays, whose i-th rows together make the block's i-th row; the blocks
    follow each other in row order. Each row's bits are folded into a hash
    (each column's bits xored with their high half, times the column's
    power of _HASH_MULTIPLIER, summed), whose top bits, with the row index
    in the low `shift` bits, make the row's key. Sorted, the keys order the
    rows by hash and, within a hash, by index. Rows are hashed in row
    blocks, so the only array of one entry per row is the keys."""
    key = np.zeros(rows, dtype=np.uint64)
    start, weights = 0, None
    for tables in blocks:
        bits = [(t if t.ndim == 2 else t[:, None]).view(np.uint64) for t in tables]
        count = len(bits[0])
        if weights is None:
            weights = np.cumprod(np.full(sum(b.shape[1] for b in bits), _HASH_MULTIPLIER))
        into = key[start : start + count]
        if len(into) != count:
            raise ValueError(f"blocks hold more than {rows} rows")
        for block in row_blocks(count, 2 * len(weights)):
            col = 0
            for b in bits:
                mixed = b[block] >> np.uint64(32)
                mixed ^= b[block]
                into[block] += mixed @ weights[col : col + b.shape[1]]
                col += b.shape[1]
        start += count
    if start != rows:
        raise ValueError(f"blocks hold {start} rows, not {rows}")
    shift = np.uint64(max(rows - 1, 1).bit_length())
    key >>= shift
    key <<= shift
    for block in row_blocks(rows, 1):
        key[block] |= np.arange(block.start, block.stop, dtype=np.uint64)
    key.sort()
    return key, shift


def distinct_rows(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of equal-length 1-d or 2-d float arrays by bit pattern.

    Row i is the concatenation of row i of every array. Returns (take,
    inverse): take holds the first row of each group, ascending, and
    inverse[i] the group of row i, so that each array's `a[take][inverse]`
    has the bits of `a`. Rows of one group have equal bits in every column
    (so -0.0 and 0.0, and NaNs of different payloads, stay apart).

    The rows are sorted by their keys (row_keys): by hash and, within a
    hash, by index. A row joins its predecessor's group only when the bits
    of the two rows are equal, so a collision costs a missed merge, never a
    wrong group. Rows are hashed and compared in row blocks, so the extra
    memory is a few arrays of one entry per row."""
    tables = [np.ascontiguousarray(a, dtype=float) for a in arrays]
    rows = len(tables[0])
    if any(t.ndim not in (1, 2) or len(t) != rows for t in tables):
        raise ValueError("distinct_rows needs 1-d or 2-d arrays of equal length")
    key, shift = row_keys([tables], rows)
    bits = [(t if t.ndim == 2 else t[:, None]).view(np.uint64) for t in tables]
    # each row's bits as one item: a gather of items copies one block per row
    items = [b.view(f"V{8 * b.shape[1]}")[:, 0] for b in bits]
    width = sum(b.shape[1] for b in bits)
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


def _abs_norms_block(
    spec: NormSpec, a: np.ndarray, cols: slice, start: int = 0, plan=None
) -> np.ndarray:
    """Row norms of a block `a` of absolute values that are zero outside the
    columns `cols`, for an Lp or weighted Lp norm; `a` holds the target
    columns start, start + 1, ... and is overwritten.

    The row maxima, the division by them, the p-th power and the weights run
    in place on a[:, cols] only; the final max or stacked dot runs over every
    column of `a`, and the final sum too, or by `plan` where one is given
    (see _plan_sum). The bits are those of the full-width passes: max is
    exact, 0/m, 0**p and w*0 are 0, so the final reduction sees the same
    entries. A sum or a max runs on the union of the hulls alone, summed by
    its leaf plan (see _leaf_plan), and an l2 norm on the union's
    _dot_window, whose stacked dot has the bits of the full width's: `cols`
    is then every column of `a`, and the passes are contiguous. Only an l2
    norm wider than _DOT_WINDOW_MAX has an `a` on every target column (its
    dot groups the terms by the full width), whose passes run on the
    strided view of `cols`."""
    h = a[:, cols]
    p = spec.p
    weights = None
    if isinstance(spec, WeightedLp):
        weights = spec.weights[start + cols.start : start + cols.stop]
    if p == math.inf:
        if weights is not None:
            h *= weights
        return h.max(axis=1, initial=0.0)
    if p == 1.0 and weights is None:
        return _plan_sum(a, plan)
    m = h.max(axis=1, initial=0.0)
    h /= np.where(m > 0.0, m, 1.0)[:, None]
    if p == 2.0 and weights is None:
        return m * np.sqrt(_row_dots(a))
    h **= p
    if weights is not None:
        h *= weights
    return m * _root(_plan_sum(a, plan), p)


def _row_dots(a: np.ndarray) -> np.ndarray:
    """Each row's dot product with itself, as stacked row dot products: the
    same kernel as np.dot(row, row)."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _norms_block(spec: NormSpec, X: np.ndarray) -> np.ndarray:
    if isinstance(spec, MaxAbsFunctionals):
        # stacked matrix-vector products: the same kernel as functionals @ x
        return np.abs(np.matmul(spec.functionals, X[:, :, None])[:, :, 0]).max(axis=1)
    return _abs_norms_block(spec, np.abs(X), slice(0, X.shape[1]))


def _block_width(space: Space) -> int:
    """The row width that bounds a block of norms: the dimension, or the
    count of functionals of a max-abs norm when larger."""
    if isinstance(space.norm, MaxAbsFunctionals):
        return max(space.dim, space.norm.functionals.shape[0])
    return space.dim


# numpy's pairwise summation: a range of at most _PAIRWISE_LEAF entries is
# summed as a leaf; a longer one splits after half its length, rounded down to
# a multiple of _PAIRWISE_UNROLL
_PAIRWISE_LEAF = 128
_PAIRWISE_UNROLL = 8


def _pairwise_split(lo: int, hi: int) -> int:
    """Where numpy's pairwise summation splits the range [lo, hi) of more
    than _PAIRWISE_LEAF entries."""
    half = (hi - lo) // 2
    return lo + half - half % _PAIRWISE_UNROLL


def _leaf_plan(width: int, cols: slice):
    """How a row of `width` non-negative entries that is zero outside the
    columns `cols` is summed from those columns alone, with the bits of
    numpy's sum of the whole row. `cols` starts at a multiple of
    _PAIRWISE_UNROLL and stops at one or at `width`, as every hull does.

    A plan is a leaf part, the columns where `cols` meets a leaf of numpy's
    pairwise summation tree, counted from cols.start, or a pair (left,
    right) of the plans of a node's two subtrees, added left + right as
    numpy adds them. A subtree outside `cols` is dropped: it sums to +0.0,
    which adds exactly. Every node of the tree starts at a multiple of
    _PAIRWISE_UNROLL, so a part starts a multiple of _PAIRWISE_UNROLL from
    its leaf's start and ends at the leaf's end or after a multiple of
    _PAIRWISE_UNROLL entries. numpy sums a leaf of fewer than
    _PAIRWISE_UNROLL entries one by one from zero; it sums a longer one in
    _PAIRWISE_UNROLL interleaved accumulators, adds them in a fixed tree and
    then adds the ragged end one by one. A part of at least
    _PAIRWISE_UNROLL entries meets the same accumulators after exact zeros,
    and the same ragged end; a shorter part is the whole leaf, or its
    ragged end, which numpy adds one by one to the +0.0 of the zeros before
    it. Either way the part's sum has the bits of the leaf's."""
    return _node_plan(cols, 0, width) if cols.start < cols.stop else slice(0, 0)


def _node_plan(cols: slice, lo: int, hi: int):
    """_leaf_plan's plan for the node [lo, hi) of the tree, which meets the
    non-empty columns `cols`."""
    if hi - lo > _PAIRWISE_LEAF:
        mid = _pairwise_split(lo, hi)
        if cols.stop <= mid:
            return _node_plan(cols, lo, mid)
        if cols.start >= mid:
            return _node_plan(cols, mid, hi)
        return _node_plan(cols, lo, mid), _node_plan(cols, mid, hi)
    return slice(max(lo, cols.start) - cols.start, min(hi, cols.stop) - cols.start)


def _plan_sum(a: np.ndarray, plan) -> np.ndarray:
    """The row sums of a block: over every column for plan None, or else
    each leaf part of the plan (see _leaf_plan) summed on its own and the
    parts added in the tree's order."""
    if plan is None:
        return a.sum(axis=1)
    if isinstance(plan, slice):
        return a[:, plan].sum(axis=1)
    left, right = plan
    return _plan_sum(a, left) + _plan_sum(a, right)


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


def _shifted(cols: slice, start: int) -> slice:
    """The columns cols of a buffer whose column 0 is target column start."""
    return slice(cols.start - start, cols.stop - start) if cols.start < cols.stop else slice(0, 0)


def _reads_every_column(spec: NormSpec) -> bool:
    """Whether a norm's final reduction reads every column of its block, with
    no leaf plan: the l2 norm's stacked dot, whose bits depend on the BLAS
    dot's grouping of the terms (see _dot_window), and the max-abs
    functionals. Every other norm ends in a sum or a max."""
    return isinstance(spec, MaxAbsFunctionals) or isinstance(spec, Lp) and spec.p == 2.0


def _full_width(target: Space) -> bool:
    """Whether a block of _hull_norms spans every target column: a max-abs
    norm's, whose functionals span every column, and an l2 norm's wider than
    _DOT_WINDOW_MAX, whose dot groups its terms by the whole width."""
    spec = target.norm
    return isinstance(spec, MaxAbsFunctionals) or (
        _reads_every_column(spec) and target.dim > _DOT_WINDOW_MAX
    )


def _union(maps) -> slice:
    """The target columns from the maps' first hull start to their last hull
    stop: empty when every map is zero."""
    hulls = [m.rows for m in maps if m.rows.start < m.rows.stop]
    return slice(min(h.start for h in hulls), max(h.stop for h in hulls)) if hulls else slice(0, 0)


def _dot_window(cols: slice, width: int) -> slice:
    """The columns of an l2 norm's block for rows of `width` entries that are
    zero outside `cols`: cols widened to multiples of _DOT_ALIGN, capped at
    width; empty for empty cols. OpenBLAS's ddot (SkylakeX kernel) sums
    each block of _DOT_ALIGN terms in fixed accumulators and then the
    ragged end one term at a time, so a window that starts at a multiple of
    _DOT_ALIGN gives every nonzero term the accumulator it has in the whole
    row, and the terms it leaves out are zeros, which add exactly: the
    window's dot has the bits of the whole row's (a property test guards
    this)."""
    if cols.start >= cols.stop:
        return slice(0, 0)
    lo = cols.start // _DOT_ALIGN * _DOT_ALIGN
    return slice(lo, min(-(-cols.stop // _DOT_ALIGN) * _DOT_ALIGN, width))


def _hull_layout(maps) -> tuple[slice, int]:
    """The target columns that a block of _hull_norms holds for the maps'
    sums, and the row width that bounds a block.

    A norm that ends in a sum or a max has a block on the union of the
    hulls, and an l2 norm one on the union's _dot_window: a lone map's abs
    hull product when its hull is those columns, or else a buffer on them.
    The max-abs functionals and an l2 norm wider than _DOT_WINDOW_MAX have a
    buffer on every column (whose width counts the functionals' products).
    The row width is the buffer's, if any, plus every hull's product, so
    that the buffer and the products stay within BATCH_ELEMENTS."""
    target = maps[0].target
    products = sum(len(m.hull) for m in maps)
    if _full_width(target):
        return slice(0, target.dim), _block_width(target) + products
    cols = _union(maps)
    if _reads_every_column(target.norm):
        cols = _dot_window(cols, target.dim)
    own = len(maps) == 1 and maps[0].rows == cols
    return cols, products + (0 if own else cols.stop - cols.start)


def _hull_product(c, m: LinearMap, U: np.ndarray, block: slice) -> np.ndarray:
    """The images of the rows U[block] on m's hull, times c (None for 1, or
    one coefficient per row): a contiguous (rows, len(m.hull)) array."""
    product = np.matmul(m.hull, U[block, :, None])[:, :, 0]
    if c is not None:
        product *= c[block, None]
    return product


def _hull_norms(terms, U) -> np.ndarray:
    """norms(target, sum of c * apply(m, U) over the terms (c, m)) for the
    rows of a (k, source.dim) array, bit for bit, where c is None (for 1) or
    one coefficient per row, in the blocks of _hull_layout.

    A lone term whose hull is the block's columns has its contiguous hull
    product for the block. Otherwise one zero buffer of a block is reused
    for every block: per block, the first term's hull product, times c, is
    written into its hull's columns, and each later term's is added to its
    hull's columns of the buffer (zeroed first) and written back; the
    columns outside the hulls are never written and stay zero. Outside a
    hull the full-width sum adds c*0, which changes at most the sign of a
    zero: abs removes it, and a max-abs dot passes it only to an all-zero
    sum. abs runs on the smallest contiguous array, a lone term's product or
    else the whole block (a ufunc writing into strided columns takes a
    buffer of up to a block's size), and a max-abs norm takes its own
    products of the signed sums. The norm's elementwise passes run on the
    whole block, but for a full-width buffer on the union's columns, and a
    sum adds the block's leaf parts in the tree's order (see
    _abs_norms_block)."""
    maps = [m for _, m in terms]
    U = as_rows(U, maps[0].source.dim)
    target = maps[0].target
    spec = target.norm
    signed = isinstance(spec, MaxAbsFunctionals)
    lone = len(terms) == 1
    cols, width = _hull_layout(maps)
    own = lone and maps[0].rows == cols
    at = [_shifted(m.rows, cols.start) for m in maps]
    if _full_width(target):
        passes = _shifted(_union(maps), cols.start)
    else:
        passes = slice(0, cols.stop - cols.start)
    plan = None if _reads_every_column(spec) else _leaf_plan(target.dim, cols)
    rows = next(row_blocks(len(U), width), slice(0, 0)).stop
    buffer = None if own else np.zeros((rows, cols.stop - cols.start))
    out = np.empty(len(U))
    for block in row_blocks(len(U), width):
        if not own:
            sums = buffer[: block.stop - block.start]
            for later in at[1:]:
                sums[:, later] = 0.0
        for k, ((c, m), into) in enumerate(zip(terms, at)):
            # each product is dropped once written, so that it is not alive
            # through the next product or the norm's passes
            product = _hull_product(c, m, U, block)
            if lone and not signed:
                np.abs(product, out=product)
            if own:
                sums = product
            elif k == 0:
                sums[:, into] = product
            else:
                # added into the contiguous product, which only reads the
                # buffer's strided columns: numpy takes half the iterator
                # buffers of an add into them, and a + b == b + a
                product += sums[:, into]
                sums[:, into] = product
            del product
        if signed:
            out[block] = _norms_block(spec, sums)
        else:
            if not lone:
                np.abs(sums, out=sums)
            out[block] = _abs_norms_block(spec, sums, passes, cols.start, plan)
        # a lone term's product is not alive through the next block's product
        del sums
    return out


def image_norms(m: LinearMap, X) -> np.ndarray:
    """norms(m.target, apply(m, X)) for the rows of a (k, source.dim) array,
    bit for bit, without forming the images anew per block: the one-term
    call of _hull_norms."""
    return _hull_norms(((None, m),), X)


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


def blend_norms(c, s, first: LinearMap, second: LinearMap, U) -> np.ndarray:
    """norms(first.target, blend_apply(c, s, first, second, U)) for the rows
    of a (k, source.dim) array with one (c, s) pair per row, bit for bit:
    the two-term call of _hull_norms."""
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    return _hull_norms(((c, first), (s, second)), U)


def direction_gain(theta, u, first: LinearMap, second: LinearMap):
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u) for unit u.

    A 1-d u with one angle gives a float. A (k, dim) array of rows with k
    angles gives the k gains as an array, each bit-equal to the one-row call:
    cos and sin come from cos_sin, and blend_norms takes the norms of the
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
    return blend_norms(*cos_sin(theta), first, second, U)


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
