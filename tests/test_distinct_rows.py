"""Exact grouping of rows by bit pattern, and the kernels built on it.

`spaces.distinct_rows` reads a stream of row blocks twice: it keys every
row in one pass and keeps each group's first row in a second. It must put
two rows in one group only when every bit of them is equal, give the
groups of one block however the rows are cut into blocks, also when hashes
collide, and keep each group's first row with its bits. Decompose groups
its unit differences with it, and must find the directions of
`tests/oracles.py` through any collision. Certification keeps the groups of
positive norm and evaluates each distinct row once; it and the row gain
must match `tests/oracles.py`, which evaluates every row (the row gain's
bit-equality on repeated rows is held in `tests/test_batched.py`).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiralglue as sg
import spiralglue.bank
import spiralglue.pointset
import spiralglue.spaces
from spiralglue.errors import CertificationFailed
from spiralglue.bank import _certify_rows
from spiralglue.spaces import RowBlocks, distinct_rows, norms, row_blocks

from oracles import (
    certify_all_rows,
    decompose_first_match,
    direction_gain_all_rows,
    directions_bytes,
)

# floats whose bits tell apart what == does not: signed zeros, NaNs of
# different payloads and signs, and infinities
_SPECIAL = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    math.inf,
    -math.inf,
    *np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
    .view(float)
    .tolist(),
]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(-3.0, 3.0))


@st.composite
def _row_arrays(draw, max_rows=40):
    """One 2-d array of one to four columns, its rows drawn from a small
    pool so that rows repeat."""
    width = draw(st.integers(1, 4))
    pool = draw(
        st.lists(
            st.lists(_FLOATS, min_size=width, max_size=width), min_size=1, max_size=5
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_rows))
    return np.array([pool[k] for k in picks], dtype=float).reshape(len(picks), width)


def _row_keys(X) -> list[bytes]:
    """Each row's bits, as bytes."""
    return [row.tobytes() for row in X.view(np.uint64)]


def _grouped(X):
    """distinct_rows on the rows of X as one block."""
    return distinct_rows([X], len(X), X.shape[1])


def _check_groups(X, kept, take, group, merged: bool):
    keys = _row_keys(X)
    n = len(keys)
    assert take.shape == (len(take),) and group.shape == (n,)
    assert kept.shape == (len(take), X.shape[1])
    # take is ascending, each group's first row, kept holds their bits, and
    # gathering kept by group gives every row's bits back
    assert np.all(np.diff(take) > 0)
    assert group[take].tolist() == list(range(len(take)))
    assert all(take[group[i]] <= i for i in range(n))
    assert kept.view(np.uint64).tobytes() == X[take].view(np.uint64).tobytes()
    assert kept[group].view(np.uint64).tobytes() == X.view(np.uint64).tobytes()
    # one group holds one bit pattern; with merged, one bit pattern one group
    for i in range(n):
        assert keys[i] == keys[take[group[i]]]
    if merged:
        assert len(take) == len(set(keys))


@settings(max_examples=300, deadline=None)
@given(X=_row_arrays())
def test_distinct_rows_groups_by_bit_pattern(X):
    _check_groups(X, *_grouped(X), merged=True)


@settings(max_examples=200, deadline=None)
@given(X=_row_arrays())
def test_distinct_rows_exact_under_forced_collisions(X):
    # with the multiplier 0 every row hashes to 0: the grouping then rests on
    # the bit comparison alone, and only consecutive repeats merge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "_HASH_MULTIPLIER", np.uint64(0))
        kept, take, group = _grouped(X)
    _check_groups(X, kept, take, group, merged=False)
    keys = _row_keys(X)
    runs = 1 + sum(a != b for a, b in zip(keys, keys[1:])) if keys else 0
    assert len(take) == runs


def _stream(X, cuts):
    """The rows of X as a RowBlocks stream, cut into blocks at the row
    indices cuts."""
    bounds = list(zip([0, *cuts], [*cuts, len(X)]))
    return RowBlocks(len(X), lambda: (X[lo:hi] for lo, hi in bounds))


@st.composite
def _cut_rows(draw):
    """Rows of one to three columns drawn from a small pool (signed zeros,
    NaNs of different payloads and infinities among their entries, and a
    zero row of either sign), so that rows repeat within and across blocks,
    and the cuts of a RowBlocks stream of them."""
    width = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(_FLOATS, min_size=width, max_size=width), min_size=1, max_size=5))
    pool += [[0.0] * width, [-0.0] * width]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
    X = np.array([pool[k] for k in picks], dtype=float).reshape(len(picks), width)
    cuts = sorted(draw(st.lists(st.integers(0, len(X)), max_size=8)))
    return X, cuts


@np.errstate(invalid="ignore")  # the norm of a row with an inf or a NaN may be NaN
def _check_certify_rows_in_blocks(X, cuts):
    # the groups of one call on every row, those of positive norm (each row
    # normed on its own), with their first rows' index among such rows
    source = sg.Space(X.shape[1])
    nonzero = norms(source, X) > 0.0
    if not nonzero.any():
        with pytest.raises(ValueError, match="nonzero"):
            _certify_rows(source, _stream(X, cuts))
        return
    _, take, _ = _grouped(X)
    take = take[nonzero[take]]
    rows, first, source_norms = _certify_rows(source, _stream(X, cuts))
    assert first.tolist() == (np.cumsum(nonzero) - 1)[take].tolist()
    assert rows.view(np.uint64).tobytes() == X[take].view(np.uint64).tobytes()
    assert source_norms.tobytes() == norms(source, X[take]).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_cut_rows())
def test_certify_rows_in_blocks_match_one_call(case):
    # blocks cut anywhere (empty blocks, one-row blocks, repeats across
    # blocks) give the groups of one call, with their first rows' bits,
    # indices among the nonzero rows, and norms
    _check_certify_rows_in_blocks(*case)


@settings(max_examples=200, deadline=None)
@given(case=_cut_rows())
def test_certify_rows_in_blocks_match_one_call_under_forced_collisions(case):
    # every row hashes to 0, so only the bit comparison separates groups and
    # only consecutive repeats merge: in a block, among the blocks' first
    # rows (zero rows among them) and in one call alike
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "_HASH_MULTIPLIER", np.uint64(0))
        _check_certify_rows_in_blocks(*case)


def _three_hashes(row_keys):
    """row_keys with each row's hash cut to its value mod 3: rows of other
    bits share a hash often, beside rows whose hashes still differ."""

    def keys(blocks, rows):
        key, shift = row_keys(blocks, rows)
        index = key & ((np.uint64(1) << shift) - np.uint64(1))
        key = ((key >> shift) % np.uint64(3)) << shift | index
        key.sort()
        return key, shift

    return keys


@settings(max_examples=200, deadline=None)
@given(case=_cut_rows())
def test_certify_rows_in_blocks_match_one_call_under_partial_collisions(case):
    # three hashes: several groups each, some split by collisions and some
    # not, their first rows and splits interleaved within and across blocks;
    # with 64-element batches the stream is read twice and its blocks are
    # compared a few rows at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "BATCH_ELEMENTS", 64)
        mp.setattr(spiralglue.spaces, "row_keys", _three_hashes(spiralglue.spaces.row_keys))
        _check_certify_rows_in_blocks(*case)


# the spaces attribute patched, and its value
_COLLISIONS = {
    "one-hash": ("_HASH_MULTIPLIER", np.uint64(0)),
    "three-hashes": ("row_keys", _three_hashes(spiralglue.spaces.row_keys)),
}


@pytest.mark.parametrize("collision", sorted(_COLLISIONS))
@pytest.mark.parametrize(
    "dim, p, placement", [(3, 1.0, "mixed"), (16, 2.0, "plateau"), (2, 2.0, "mixed")]
)
def test_decompose_exact_under_hash_collisions(collision, dim, p, placement, wide_ws):
    # with one hash for every row, or three, rows of other bits share a hash
    # and the grouping rests on the bit comparison: decompose still finds
    # the directions and checks of the unpatched run and of the oracle, and
    # distinct_rows gives its unit differences the groups of one block
    # however they are cut
    pts = sg.generate_annular(7, wide_ws, 8, dim, placement, sg.Lp(p))
    want = directions_bytes(sg.decompose(pts, wide_ws))
    assert want == directions_bytes(decompose_first_match(pts, wide_ws))
    seen = []

    def recorded(blocks, rows, width):
        seen.extend(blocks)
        return distinct_rows(blocks, rows, width)

    name, value = _COLLISIONS[collision]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, name, value)
        mp.setattr(spiralglue.pointset, "distinct_rows", recorded)
        assert directions_bytes(sg.decompose(pts, wide_ws)) == want
        # four distinct rows among three hashes, or two among one, collide
        assert any(len(set(_row_keys(units))) >= 4 for units in seen)
        for units in seen:
            kept, take, group = _grouped(units)
            for size in (1, 2, 3, 5):
                blocks = [units[lo : lo + size] for lo in range(0, len(units), size)]
                got = distinct_rows(blocks, len(units), dim)
                assert got[1].tolist() == take.tolist()
                assert got[2].tolist() == group.tolist()
                assert got[0].tobytes() == kept.tobytes()


def test_distinct_rows_edge_cases():
    kept, take, group = _grouped(np.empty((0, 3)))
    assert kept.shape == (0, 3) and take.shape == group.shape == (0,)
    kept, take, group = _grouped(np.array([[1.0, -0.0]]))
    assert take.tolist() == [0] and group.tolist() == [0]
    assert kept.view(np.uint64).tolist() == [[np.float64(1.0).view(np.uint64), 1 << 63]]
    kept, take, group = _grouped(np.tile([0.5, -2.0, math.pi], (7, 1)))
    assert take.tolist() == [0] and group.tolist() == [0] * 7
    # -0.0 and 0.0 compare equal but stay apart; NaN payloads too
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(float)
    X = np.array([0.0, -0.0, 0.0, nans[0], nans[1], nans[0]])[:, None]
    kept, take, group = _grouped(X)
    assert take.tolist() == [0, 1, 3, 4] and group.tolist() == [0, 1, 0, 2, 3, 2]
    # a stream of another row count than it claims
    with pytest.raises(ValueError, match="blocks hold 3 rows, not 4"):
        distinct_rows([np.zeros((1, 2)), np.ones((2, 2))], 4, 2)
    with pytest.raises(ValueError, match="blocks hold more than 2 rows"):
        distinct_rows([np.zeros((1, 2)), np.ones((2, 2))], 2, 2)


# ---------------------------------------------------------------- certification


@st.composite
def _certification(draw):
    """Near-identity matrices, and certify rows drawn from a small pool with
    zero rows (of either sign) at the front, in the middle and at the end."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(2, 4))
    scales = draw(
        st.lists(st.sampled_from([0.999, 1.0, 1.0, 1.001, 1.01]), min_size=count, max_size=count)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [
        scale * (np.eye(2 * dim, dim) + 1e-4 * rng.standard_normal((2 * dim, dim)))
        for scale in scales
    ]
    pool = rng.standard_normal((draw(st.integers(1, 6)), dim))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    zero = np.zeros(dim)
    rows = [pool[k] for k in picks]
    for place in draw(st.lists(st.sampled_from(["front", "middle", "end"]), max_size=4)):
        z = -zero if draw(st.booleans()) else zero
        rows.insert({"front": 0, "middle": len(rows) // 2, "end": len(rows)}[place], z)
    return dim, matrices, np.array(rows)


def _certify(dim, matrices, vectors, gamma, in_blocks=False):
    """(build_bank's margins or failure, the oracle's) on the vectors, passed
    to build_bank as an array, or in_blocks as a RowBlocks stream in the
    blocks of row_blocks."""
    source, target = sg.Space(dim), sg.Space(2 * dim, sg.Lp(1.0))
    certify_set = vectors
    if in_blocks:
        certify_set = RowBlocks(
            len(vectors), lambda: (vectors[b] for b in row_blocks(len(vectors), dim))
        )
    try:
        bank = sg.build_bank(
            sg.UserMatrices(tuple(matrices)), source, target, gamma, len(matrices), certify_set
        )
        got = (bank.cert_lower_margin, bank.cert_upper_margin)
    except CertificationFailed as exc:
        got = (exc.map_index, exc.vector_index, exc.ratio)
    try:
        want = certify_all_rows(matrices, source, target, gamma, vectors)
    except CertificationFailed as exc:
        want = (exc.map_index, exc.vector_index, exc.ratio)
    return got, want


@settings(max_examples=200, deadline=None)
@given(case=_certification(), gamma=st.sampled_from([0.01, 0.5, 4.0]))
def test_build_bank_matches_all_rows_oracle(case, gamma):
    # margins, or the failing (map, nonzero-row index, ratio), bit for bit
    got, want = _certify(*case, gamma)
    assert repr(got) == repr(want)


def test_build_bank_failure_index_counts_repeated_and_zero_rows():
    # the failing row comes after zero rows and repeats, and repeats itself:
    # its index is that of its first occurrence among all nonzero rows
    good = np.eye(4, 2)
    bad = np.eye(4, 2) * [1.0, 0.5]
    rows = [np.zeros(2), [1.0, 0.0], [1.0, 0.0], -np.zeros(2), [2.0, 0.0], [0.0, 3.0]]
    rows += [[0.0, 3.0], np.zeros(2)]
    got, want = _certify(2, [good, bad], np.array(rows, dtype=float), 0.1)
    assert got == want == (1, 3, 0.5)


@settings(max_examples=100, deadline=None)
@given(case=_certification())
def test_certification_images_each_distinct_nonzero_row_once(case):
    dim, matrices, vectors = case
    seen = []

    def counted(lin, X):
        seen.append(np.array(X))
        return sg.image_norms(lin, X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.bank, "image_norms", counted)
        _certify(dim, matrices, vectors, 4.0)
    distinct = {row.tobytes() for row in vectors if np.any(row != 0.0)}
    assert seen
    for X in seen:
        assert len(X) == len(distinct)
        assert {row.tobytes() for row in X} == distinct


def test_certification_chunks_are_whole_image_blocks(monkeypatch):
    # at 64 elements image_norms images 6 rows of the 10-wide target a
    # block (the 10-row hull's products, summed by its leaf plan);
    # certification images the 100 distinct rows in one call a map, so only
    # the last block of each map is short
    source, target = sg.Space(2, sg.Lp(1.0)), sg.Space(10, sg.Lp(1.0))
    vectors = np.random.default_rng(3).standard_normal((100, 2))
    want = sg.build_bank(sg.BlockShift(), source, target, 0.01, 4, vectors)
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    seen, blocks = [], []
    matmul = np.matmul

    def counted(lin, X):
        seen.append(len(X))
        return sg.image_norms(lin, X)

    def products(a, b, *args, **kwargs):
        if a.shape == (10, 2):
            blocks.append(len(b))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(spiralglue.bank, "image_norms", counted)
    monkeypatch.setattr(np, "matmul", products)
    got = sg.build_bank(sg.BlockShift(), source, target, 0.01, 4, vectors)
    assert seen == [100] * 4
    assert blocks == ([6] * 16 + [4]) * 4
    margins = (want.cert_lower_margin, want.cert_upper_margin)
    assert repr((got.cert_lower_margin, got.cert_upper_margin)) == repr(margins)


@st.composite
def _certification_in_blocks(draw):
    """Certify rows across many blocks of 64 elements (64 // dim rows): rows
    of a small pool, so that repeats span blocks, with zero rows of either
    sign among them, and one map that halves the last coordinate, so that
    the pool's rows along it fail certification; each is placed after zero
    rows, and repeated later."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [np.eye(2 * dim, dim) + 1e-6 * rng.standard_normal((2 * dim, dim)) for _ in range(count)]
    if draw(st.booleans()):
        matrices[draw(st.integers(0, count - 1))][dim - 1, dim - 1] = 0.5
    pool = rng.standard_normal((draw(st.integers(1, 6)), dim))
    if draw(st.booleans()):
        pool[0] = 0.0
        pool[0, -1] = 1.0 + rng.random()
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=150))
    rows = [pool[k] for k in picks]
    zero = np.zeros(dim)
    for place in draw(st.lists(st.integers(0, len(rows)), max_size=12)):
        rows.insert(place, -zero if draw(st.booleans()) else zero)
    return dim, matrices, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(case=_certification_in_blocks(), gamma=st.sampled_from([0.01, 4.0]))
def test_build_bank_in_many_blocks_matches_all_rows_oracle(case, gamma):
    # margins, or the failing (map, nonzero-row index, ratio), bit for bit,
    # with the certify rows grouped a few at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
        got, want = _certify(*case, gamma, in_blocks=True)
    assert repr(got) == repr(want)


def test_build_bank_failure_index_counts_rows_of_earlier_blocks(monkeypatch):
    # 32 rows of 2 a block: the failing row first comes in the third block,
    # after zero rows of either sign and repeats that span blocks, and again
    # in the fourth; its index counts the nonzero rows of every block
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    good = np.eye(4, 2)
    bad = np.eye(4, 2) * [1.0, 0.5]
    pool = [[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]]
    rows = [pool[k % 3] for k in range(100)]
    for k in (5, 33, 40, 66, 68, 69):
        rows[k] = [-0.0 if k % 2 else 0.0, 0.0]
    rows[70] = rows[99] = [0.0, 3.0]
    got, want = _certify(2, [good, bad], np.array(rows, dtype=float), 0.1, in_blocks=True)
    assert got == want == (1, 64, 0.5)


# ---------------------------------------------------------------- row gain


def test_row_gain_reports_first_non_unit_row_after_repeats():
    rng = np.random.default_rng(5)
    source, target = sg.Space(3), sg.Space(6, sg.Lp(1.0))
    first, second = (sg.LinearMap(rng.standard_normal((6, 3)), source, target) for _ in range(2))
    unit = np.array([0.6, 0.0, 0.8])
    long, longer = 1.5 * unit, 2.5 * unit
    # repeated unit rows, then two non-unit rows, interleaved: the first in
    # row order is named
    U = np.array([unit, unit, -unit, longer, long, longer, long])
    theta = [0.0, -0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    with pytest.raises(ValueError) as want:
        direction_gain_all_rows(theta, U, first, second)
    with pytest.raises(ValueError) as got:
        sg.direction_gain(theta, U, first, second)
    assert str(got.value) == str(want.value) == f"u must be a unit vector, got norm {2.5!r}"
