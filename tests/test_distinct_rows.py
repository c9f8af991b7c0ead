"""Exact grouping of rows by bit pattern, and the two kernels built on it.

`spaces.distinct_rows` must put two rows in one group only when every bit
of them is equal, and gathering each group's first row back must give the
input's bits. Certification and the row gain evaluate each distinct row once
and must match `tests/oracles.py`, which evaluates every row (the row gain's
bit-equality on repeated rows is held in `tests/test_batched.py`).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiralglue as sg
import spiralglue.bank
import spiralglue.spaces
from spiralglue.errors import CertificationFailed
from spiralglue.spaces import distinct_rows

from oracles import certify_all_rows, direction_gain_all_rows

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


def _bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    return (a if a.ndim == 2 else a[:, None]).view(np.uint64)


@st.composite
def _row_arrays(draw, max_rows=40):
    """One to three equal-length arrays (1-d or 2-d), their rows drawn from
    a small pool so that rows repeat."""
    widths = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=3))
    total = sum(max(w, 1) for w in widths)
    pool = draw(
        st.lists(
            st.lists(_FLOATS, min_size=total, max_size=total), min_size=1, max_size=5
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_rows))
    rows = np.array([pool[k] for k in picks], dtype=float).reshape(len(picks), total)
    arrays, start = [], 0
    for w in widths:
        part = rows[:, start : start + max(w, 1)]
        arrays.append(np.ascontiguousarray(part[:, 0] if w == 0 else part))
        start += max(w, 1)
    return arrays


def _row_keys(arrays) -> list[bytes]:
    """Each row's bits, as bytes."""
    bits = np.concatenate([_bits(a) for a in arrays], axis=1)
    return [row.tobytes() for row in bits]


def _check_groups(arrays, take, inverse, merged: bool):
    keys = _row_keys(arrays)
    n = len(keys)
    assert take.shape == (len(take),) and inverse.shape == (n,)
    # take is ascending, each group's first row, and gathers every array back
    assert np.all(np.diff(take) > 0)
    assert inverse[take].tolist() == list(range(len(take)))
    assert all(take[inverse[i]] <= i for i in range(n))
    for a in arrays:
        assert _bits(np.asarray(a)[take][inverse]).tobytes() == _bits(a).tobytes()
    # one group holds one bit pattern; with merged, one bit pattern one group
    for i in range(n):
        assert keys[i] == keys[take[inverse[i]]]
    if merged:
        assert len(take) == len(set(keys))


@settings(max_examples=300, deadline=None)
@given(arrays=_row_arrays())
def test_distinct_rows_groups_by_bit_pattern(arrays):
    take, inverse = distinct_rows(*arrays)
    _check_groups(arrays, take, inverse, merged=True)


@settings(max_examples=200, deadline=None)
@given(arrays=_row_arrays())
def test_distinct_rows_exact_under_forced_collisions(arrays):
    # with the multiplier 0 every row hashes to 0: the grouping then rests on
    # the bit comparison alone, and only consecutive repeats merge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "_HASH_MULTIPLIER", np.uint64(0))
        take, inverse = distinct_rows(*arrays)
    _check_groups(arrays, take, inverse, merged=False)
    keys = _row_keys(arrays)
    runs = 1 + sum(a != b for a, b in zip(keys, keys[1:])) if keys else 0
    assert len(take) == runs


def test_distinct_rows_edge_cases():
    empty_take, empty_inverse = distinct_rows(np.empty(0), np.empty((0, 3)))
    assert empty_take.shape == empty_inverse.shape == (0,)
    take, inverse = distinct_rows(np.array([[1.0, -0.0]]))
    assert take.tolist() == [0] and inverse.tolist() == [0]
    same = np.tile([0.5, -2.0], (7, 1))
    take, inverse = distinct_rows(same, np.full(7, math.pi))
    assert take.tolist() == [0] and inverse.tolist() == [0] * 7
    # -0.0 and 0.0 compare equal but stay apart; NaN payloads too
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(float)
    take, inverse = distinct_rows(np.array([0.0, -0.0, 0.0, nans[0], nans[1], nans[0]]))
    assert take.tolist() == [0, 1, 3, 4] and inverse.tolist() == [0, 1, 0, 2, 3, 2]
    with pytest.raises(ValueError, match="equal length"):
        distinct_rows(np.zeros(3), np.zeros((2, 2)))


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


def _certify(dim, matrices, vectors, gamma):
    source, target = sg.Space(dim), sg.Space(2 * dim, sg.Lp(1.0))
    try:
        bank = sg.build_bank(
            sg.UserMatrices(tuple(matrices)), source, target, gamma, len(matrices), vectors
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
    # at 64 elements a chunk gathers at most 32 rows of the 2-wide source,
    # and image_norms images 3 rows of the 20-wide target a block: chunks of
    # 30 rows leave only the last chunk's last block short
    source, target = sg.Space(2, sg.Lp(1.0)), sg.Space(20, sg.Lp(1.0))
    vectors = np.random.default_rng(3).standard_normal((100, 2))
    want = sg.build_bank(sg.BlockShift(), source, target, 0.01, 4, vectors)
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    seen = []

    def counted(lin, X):
        seen.append(len(X))
        return sg.image_norms(lin, X)

    monkeypatch.setattr(spiralglue.bank, "image_norms", counted)
    got = sg.build_bank(sg.BlockShift(), source, target, 0.01, 4, vectors)
    assert seen == [30, 30, 30, 10] * 4
    margins = (want.cert_lower_margin, want.cert_upper_margin)
    assert repr((got.cert_lower_margin, got.cert_upper_margin)) == repr(margins)


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
