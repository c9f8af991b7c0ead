"""Exact grouping of rows by bit pattern, and the kernels built on it.

`spaces.distinct_rows` groups the rows of one array by one rule: a row
joins the group of its hash's first row when their bits are equal, and
starts a group of its own otherwise. It must put two rows in one group only
when every bit of them is equal, follow the rule when hashes collide (tests
patch the hash, `spaces._row_hashes`, to one value or three), and keep each
group's first row with its bits. Decompose groups each block of its unit
differences with it, and must find the directions of `tests/oracles.py`
through any collision. Certification groups no rows: it screens each
nonzero row once per distinct map hull, a block at a time, images again
those whose ratio may be an extreme, and keeps each map's extreme ratios
(the screen's own tests are in `tests/test_screen.py`); it and the row
gain must match `tests/oracles.py`, which evaluates every row under every
map at once (the row gain's bit-equality on repeated rows is held in
`tests/test_batched.py`).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spiralglue as sg
import spiralglue.bank
import spiralglue.pointset
import spiralglue.spaces
from spiralglue.errors import CertificationFailed
from spiralglue.bank import _image_key
from spiralglue.spaces import RowBlocks, distinct_rows, row_blocks, screen_bound, screen_norms

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


def _row_bits(X) -> list[bytes]:
    """Each row's bits, as bytes."""
    return [row.tobytes() for row in X.view(np.uint64)]


def _check_groups(X, kept, group, merged: bool):
    keys = _row_bits(X)
    n = len(keys)
    assert group.shape == (n,) and group.dtype == np.intp
    # the groups are 0 to len(kept) - 1, numbered in the order of their
    # first rows (take), kept holds those rows' bits, and gathering kept by
    # group gives every row's bits back
    numbers, take = np.unique(group, return_index=True)
    assert numbers.tolist() == list(range(len(kept)))
    assert kept.shape == (len(take), X.shape[1])
    assert np.all(np.diff(take) > 0)
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
    _check_groups(X, *distinct_rows(X), merged=True)


def _cut_hashes(count):
    """_row_hashes cut to its value mod count, in the top bits, which the
    grouping keys rows by: with one hash every row's hash's first row is
    row 0; with three, rows of other bits share a hash often, beside rows
    whose hashes still differ."""
    row_hashes = spiralglue.spaces._row_hashes

    def hashes(bits):
        return row_hashes(bits) % np.uint64(count) << np.uint64(62)

    return hashes


# the patched hashes of spaces._row_hashes, by name
_COLLISIONS = {"one-hash": _cut_hashes(1), "three-hashes": _cut_hashes(3)}


def _rule_groups(X, hashes):
    """Each row's group by the rule, row by row: a row joins the group of
    its hash's first row when their bits are equal, and starts a group
    otherwise."""
    keys = _row_bits(X)
    firsts, group, groups = {}, [], 0
    for i, h in enumerate(hashes.tolist()):
        j = firsts.setdefault(h, i)
        if j < i and keys[j] == keys[i]:
            group.append(group[j])
        else:
            group.append(groups)
            groups += 1
    return group


@settings(max_examples=200, deadline=None)
@given(X=_row_arrays())
def test_distinct_rows_exact_under_forced_collisions(X):
    # every row hashes to 0, so row 0 is every row's hash's first row: the
    # rows of its bits join it, and every other row starts a group
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "_row_hashes", _COLLISIONS["one-hash"])
        kept, group = distinct_rows(X)
    _check_groups(X, kept, group, merged=False)
    keys = _row_bits(X)
    assert len(kept) == (1 + sum(key != keys[0] for key in keys) if keys else 0)


# rows whose bits == does not tell apart: signed zeros and NaNs of
# different payloads, each repeated
_SIGNED_ZEROS_AND_NANS = np.array(
    [0.0, -0.0, *_SPECIAL[-3:], 0.0, -0.0, *_SPECIAL[-3:]], dtype=float
)[:, None]


@pytest.mark.parametrize("collision", sorted(_COLLISIONS))
@settings(max_examples=150, deadline=None)
@given(case=st.tuples(_row_arrays(max_rows=60), st.sampled_from([64, 1 << 14])))
@example(case=(_SIGNED_ZEROS_AND_NANS, 64))
def test_distinct_rows_follows_the_rule_in_any_blocks_under_collisions(collision, case):
    # the groups are those of the rule, row by row, in a dict of each
    # hash's first row and its bytes, whether the rows are hashed in one
    # row block or (at 64 elements) a few rows at a time
    X, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "_row_hashes", _COLLISIONS[collision])
        mp.setattr(spiralglue.spaces, "BATCH_ELEMENTS", budget)
        kept, group = distinct_rows(X)
        hashes = spiralglue.spaces._row_hashes(X.view(np.uint64))
    _check_groups(X, kept, group, merged=False)
    assert group.tolist() == _rule_groups(X, hashes)


@pytest.mark.parametrize("collision", sorted(_COLLISIONS))
@pytest.mark.parametrize(
    "dim, p, placement", [(3, 1.0, "mixed"), (16, 2.0, "plateau"), (2, 2.0, "mixed")]
)
def test_decompose_exact_under_hash_collisions(collision, dim, p, placement, wide_ws):
    # with one hash for every row, or three, rows of other bits share a hash
    # and the grouping rests on the bit comparison: decompose still finds
    # the directions and checks of the unpatched run and of the oracle, and
    # distinct_rows gives each block of its unit differences the groups of
    # the rule
    pts = sg.generate_annular(7, wide_ws, 8, dim, placement, sg.Lp(p))
    want = directions_bytes(sg.decompose(pts, wide_ws))
    assert want == directions_bytes(decompose_first_match(pts, wide_ws))
    seen = []

    def recorded(units):
        seen.append(units)
        return distinct_rows(units)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "_row_hashes", _COLLISIONS[collision])
        mp.setattr(spiralglue.pointset, "distinct_rows", recorded)
        assert directions_bytes(sg.decompose(pts, wide_ws)) == want
        # four distinct rows among three hashes, or two among one, collide
        assert any(len(set(_row_bits(units))) >= 4 for units in seen)
        for units in seen:
            kept, group = distinct_rows(units)
            hashes = spiralglue.spaces._row_hashes(units.view(np.uint64))
            _check_groups(units, kept, group, merged=False)
            assert group.tolist() == _rule_groups(units, hashes)


def test_decompose_rejoins_directions_split_across_blocks():
    # with 64-element batches decompose groups its unit differences in
    # blocks of 21 rows, and with one hash for every row each block's rows
    # collide with its first row: a direction that first occurred in an
    # earlier block is kept again in a later one, where it differs from
    # that block's first row. The np.unique on the kept rows' bytes rejoins
    # it, and the directions and checks are the oracle's. One level, so
    # that every block is of the same level
    sched = sg.build_schedule(sg.Params(0.01, 0.01, 0.01, 0.01), 1.0, 1)
    pts = sg.generate_annular(7, sched, 30, 3, "mixed", sg.Lp(1.0))
    want = directions_bytes(decompose_first_match(pts, sched))
    seen = []

    def recorded(units):
        seen.append(units)
        return distinct_rows(units)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.spaces, "BATCH_ELEMENTS", 64)
        mp.setattr(spiralglue.spaces, "_row_hashes", _COLLISIONS["one-hash"])
        mp.setattr(spiralglue.pointset, "distinct_rows", recorded)
        assert directions_bytes(sg.decompose(pts, sched)) == want
    assert len(seen) > 1 and max(map(len, seen)) == 21
    earlier, split = set(), 0
    for units in seen:
        bits = _row_bits(units)
        split += sum(key in earlier and key != bits[0] for key in bits)
        earlier.update(bits)
    assert split > 0


def test_distinct_rows_edge_cases():
    kept, group = distinct_rows(np.empty((0, 3)))
    assert kept.shape == (0, 3) and group.shape == (0,)
    assert group.dtype == np.intp
    kept, group = distinct_rows(np.array([[1.0, -0.0]]))
    assert group.tolist() == [0]
    assert kept.view(np.uint64).tolist() == [[np.float64(1.0).view(np.uint64), 1 << 63]]
    kept, group = distinct_rows(np.tile([0.5, -2.0, math.pi], (7, 1)))
    assert kept.tolist() == [[0.5, -2.0, math.pi]] and group.tolist() == [0] * 7
    # -0.0 and 0.0 compare equal but stay apart; NaN payloads too
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(float)
    X = np.array([0.0, -0.0, 0.0, nans[0], nans[1], nans[0]])[:, None]
    kept, group = distinct_rows(X)
    assert kept.view(np.uint64).tobytes() == X[[0, 1, 3, 4]].view(np.uint64).tobytes()
    assert group.tolist() == [0, 1, 0, 2, 3, 2]
    # 128 distinct rows: groups 0 to 127, in intp
    kept, group = distinct_rows(np.arange(128.0)[:, None])
    assert group.dtype == np.intp
    assert kept.ravel().tolist() == group.tolist() == list(range(128))


# ---------------------------------------------------------------- certification


def _spaces(kind: str, dim: int, rng, p: float, weights) -> tuple[sg.Space, sg.Space]:
    """A source of dim and a target of twice its dim, under a target norm of
    the given kind: lp, weighted lp with one weight per block of dim rows,
    or max-abs functionals (the coordinates and two small seeded rows). The
    source norm is lp of the same p (of p = inf for max-abs), so that
    near-identity maps pass or fail about as often."""
    if kind == "lp":
        return sg.Space(dim, sg.Lp(p)), sg.Space(2 * dim, sg.Lp(p))
    if kind == "weighted":
        weighted = sg.WeightedLp(p, np.repeat(weights, dim))
        return sg.Space(dim, sg.Lp(p)), sg.Space(2 * dim, weighted)
    functionals = np.vstack([np.eye(2 * dim), 0.25 / dim * rng.standard_normal((2, 2 * dim))])
    return sg.Space(dim, sg.Lp(math.inf)), sg.Space(2 * dim, sg.MaxAbsFunctionals(functionals))


@st.composite
def _certification(draw):
    """Near-identity maps between the spaces of _spaces, with an lp (p = 1,
    2, inf), weighted lp (p = 1, 2, 3) or max-abs target, and certify rows
    drawn from a small pool with zero rows (of either sign) at the front,
    in the middle and at the end.

    A map is a band of near-identity rows, dense on every target row or on
    one block of half of them, with some entries left zero. After the first,
    a map may repeat an earlier one's hull: bit for bit, moved to the other
    block of target rows, or with one of its zeros made -0.0 (which counts
    as nonzero, so it may widen the hull)."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lp", "weighted", "max_abs"]))
    p = draw(st.sampled_from([1.0, 2.0, math.inf] if kind == "lp" else [1.0, 2.0, 3.0]))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 1.0, 2.0]), min_size=2, max_size=2))
    spaces = _spaces(kind, dim, rng, p, weights)
    matrices, bands = [], []
    for n in range(count):
        how = draw(st.sampled_from(["fresh"] + ["repeat", "moved", "signed-zero"] * (n > 0)))
        if how == "fresh":
            rows = draw(st.sampled_from([dim, 2 * dim]))
            scale = draw(st.sampled_from([0.999, 1.0, 1.0, 1.001, 1.01]))
            noise = rng.standard_normal((rows, dim)) * (rng.random((rows, dim)) < 0.5)
            band = scale * (np.eye(rows, dim) + 1e-4 * noise)
            start = draw(st.sampled_from([0, 2 * dim - rows]))
        else:
            band, start = bands[draw(st.integers(0, n - 1))]
            if how == "moved":
                start = 2 * dim - len(band) - start
        m = np.zeros((2 * dim, dim))
        m[start : start + len(band)] = band
        if how == "signed-zero":
            zeros = np.flatnonzero(m.view(np.uint64) == 0)
            if len(zeros):
                m.flat[zeros[draw(st.integers(0, len(zeros) - 1))]] = -0.0
        matrices.append(m)
        bands.append((band, start))
    pool = rng.standard_normal((draw(st.integers(1, 6)), dim))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    zero = np.zeros(dim)
    rows = [pool[k] for k in picks]
    for place in draw(st.lists(st.sampled_from(["front", "middle", "end"]), max_size=4)):
        z = -zero if draw(st.booleans()) else zero
        rows.insert({"front": 0, "middle": len(rows) // 2, "end": len(rows)}[place], z)
    return dim, matrices, np.array(rows), spaces


def _certify(dim, matrices, vectors, gamma, in_blocks=False, spaces=None):
    """(build_bank's margins or failure, the oracle's) on the vectors, passed
    to build_bank as an array, or in_blocks as a RowBlocks stream in the
    blocks of row_blocks; the spaces are (source, target), by default l2 of
    dim and l1 of twice dim."""
    source, target = spaces or (sg.Space(dim), sg.Space(2 * dim, sg.Lp(1.0)))
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


# an identity band on the l1 target's first row, where the weight is 1, and
# the same band moved to its second, where it is 0.5: the copy fails, at
# ratio 0.5, where its twin passed; keyed by its bytes alone, the copy
# would take its twin's margins and pass
_MOVED_FAILS = (
    1,
    [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])],
    np.array([[0.0], [2.0], [-1.0]]),
    (sg.Space(1, sg.Lp(1.0)), sg.Space(2, sg.WeightedLp(1.0, np.array([1.0, 0.5])))),
)


@settings(max_examples=300, deadline=None)
@given(case=_certification(), gamma=st.sampled_from([0.01, 0.5, 4.0]))
@example(case=_MOVED_FAILS, gamma=0.01)
def test_build_bank_matches_all_rows_oracle(case, gamma):
    # margins, or the failing (map, nonzero-row index, ratio), bit for bit,
    # with hulls repeated, moved and signed under every kind of target norm
    dim, matrices, vectors, spaces = case
    got, want = _certify(dim, matrices, vectors, gamma, spaces=spaces)
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


def _recording(mp, screen=screen_norms) -> list:
    """Patch build_bank's screen_norms (by `screen`) and image_norms to
    record each call as (kernel, _image_key, rows, norms) in the list
    returned."""
    calls = []

    def recorded(kind, kernel):
        def call(lin, X):
            out = kernel(lin, X)
            calls.append((kind, _image_key(lin), np.array(X), out))
            return out

        return call

    mp.setattr(spiralglue.bank, "screen_norms", recorded("screen", screen))
    mp.setattr(spiralglue.bank, "image_norms", recorded("image", sg.image_norms))
    return calls


def _picked(lin, X, screened) -> np.ndarray:
    """The rows of X that certification images again after the screen
    gave their norms `screened`: none for a monomial hull; otherwise the
    rows whose ratio is not finite or whose source norm lies outside the
    bound's range (every row when that leaves none), and those within 2
    delta of the least or largest ratio of the others."""
    delta, low, high = screen_bound(lin)
    n = sg.norms(lin.source, X)
    s = screened / n
    bounded = np.isfinite(s) & (n >= low) & (n <= high)
    if not delta or not bounded.any():
        return np.full(len(X), bool(delta))
    lo, hi = s[bounded].min(), s[bounded].max()
    return ~bounded | (s <= lo + 2 * delta) | (s >= hi - 2 * delta)


def _taken(calls, maps) -> tuple[list, dict]:
    """Check the recorded calls of a certification of the maps: the first
    map of each _image_key takes each block's rows in turn, by screen_norms
    when it has a screen_bound, and then images again by image_norms
    exactly the rows _picked (no call when none is), or else by image_norms
    alone. Returns the keys in the order they took blocks, and per key the
    bytes of the rows it took."""
    first = {}
    for lin in maps:
        first.setdefault(_image_key(lin), lin)
    order, taken, k = [], {}, 0
    while k < len(calls):
        kind, key, X, out = calls[k]
        lin = first[key]
        order.append(key)
        taken[key] = taken.get(key, b"") + X.tobytes()
        k += 1
        if screen_bound(lin) is None:
            assert kind == "image"
            continue
        assert kind == "screen"
        picked = _picked(lin, X, out)
        if picked.any():
            assert calls[k][:2] == ("image", key)
            assert calls[k][2].tobytes() == X[picked].tobytes()
            k += 1
    return order, taken


@settings(max_examples=100, deadline=None)
@given(case=_certification(), in_blocks=st.booleans())
def test_certification_images_each_nonzero_row_once_per_hull(case, in_blocks):
    # per block (one for an array, or the 64-element blocks of a RowBlocks
    # stream), the first map of each distinct _image_key, in map order,
    # screens the block's nonzero rows, and images again on the reference
    # kernel exactly the rows that may hold an extreme ratio (none for a
    # monomial hull); a max-abs target has no screen and images every row.
    # So each key takes every nonzero row once, repeats included, in stream
    # order, and no other map images; the margins, or the failure, are the
    # default batch's, bit for bit
    dim, matrices, vectors, spaces = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", 64 if in_blocks else 1 << 14)
        calls = _recording(mp)
        got, _ = _certify(dim, matrices, vectors, 4.0, in_blocks, spaces)
    want, _ = _certify(dim, matrices, vectors, 4.0, spaces=spaces)
    assert repr(got) == repr(want)
    maps = [sg.LinearMap(m, *spaces) for m in matrices]
    order, taken = _taken(calls, maps)
    keys = list(dict.fromkeys(_image_key(lin) for lin in maps))
    assert order and order == keys * (len(order) // len(keys))
    nonzero = b"".join(row.tobytes() for row in vectors if np.any(row != 0.0))
    assert taken == {key: nonzero for key in keys}


def _counted_blocks(*args):
    """build_bank(*args) at 64 elements a block, with its recorded calls
    (see _recording) and the rows of each block that screen_norms norms."""
    blocks, screening = [], []
    abs_norms_block = sg.spaces._abs_norms_block

    def screen(lin, X):
        screening.append(True)
        try:
            return screen_norms(lin, X)
        finally:
            screening.pop()

    def counted(spec, a, start=0):
        if screening:
            blocks.append(len(a))
        return abs_norms_block(spec, a, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
        mp.setattr(sg.spaces, "_abs_norms_block", counted)
        calls = _recording(mp, screen)
        bank = sg.build_bank(*args)
    return bank, calls, blocks


def test_certification_chunks_are_whole_image_blocks():
    # at 64 elements the screen norms 32 rows a block (the 2-row hull's
    # products), and certification screens the 100 rows in one call per
    # distinct hull, so only the last block of each call is short: the four
    # identity bands of a block-shift bank into l1 are screened once, four
    # bands of other scales once each, and neither images a row again
    # (monomial hulls); four rotations once each, imaging again the rows
    # that the rule picks, in one call. The margins are the default
    # batch's, bit for bit
    source, target = sg.Space(2), sg.Space(10, sg.Lp(1.0))
    vectors = np.random.default_rng(3).standard_normal((100, 2))
    scaled = [np.zeros((10, 2)) for _ in range(4)]
    rotated = [np.zeros((10, 2)) for _ in range(4)]
    for n in range(4):
        scaled[n][2 * n : 2 * n + 2] = (1.0 + 5e-4 * n) * np.eye(2)
        c, s = math.cos(0.1 + n), math.sin(0.1 + n)
        rotated[n][2 * n : 2 * n + 2] = [[c, -s], [s, c]]
    for strategy, calls, again in (
        (sg.BlockShift(), 1, False),
        (sg.UserMatrices(tuple(scaled)), 4, False),
        (sg.UserMatrices(tuple(rotated)), 4, True),
    ):
        args = (strategy, source, target, 4.0, 4, vectors)
        want = sg.build_bank(*args)
        got, seen, blocks = _counted_blocks(*args)
        assert [len(X) for kind, _, X, _ in seen if kind == "screen"] == [100] * calls
        assert blocks == ([32] * 3 + [4]) * calls
        assert sum(kind == "image" for kind, *_ in seen) == (calls if again else 0)
        _taken(seen, got.maps)
        margins = (want.cert_lower_margin, want.cert_upper_margin)
        assert repr((got.cert_lower_margin, got.cert_upper_margin)) == repr(margins)


@pytest.mark.parametrize(
    "strategy, source, target, calls",
    [
        (sg.BlockShift(), sg.Space(2, sg.Lp(1.0)), sg.Space(12, sg.Lp(1.0)), 1),
        (sg.BlockShift(), sg.Space(2), sg.Space(12), 1),
        (sg.BlockShift(), sg.Space(2, sg.Lp(math.inf)), sg.Space(12, sg.Lp(math.inf)), 1),
        (sg.BlockShift(), sg.Space(2), sg.Space(12, sg.WeightedLp(2.0, np.ones(12))), 6),
        (
            sg.BlockShift(),
            sg.Space(2, sg.Lp(math.inf)),
            sg.Space(12, sg.MaxAbsFunctionals(np.eye(12))),
            6,
        ),
        (sg.QuadratureL2toL1(directions=8), sg.Space(2), sg.Space(48, sg.Lp(1.0)), 6),
    ],
    ids=["l1", "l2", "linf", "weighted-l2", "max-abs", "quadrature"],
)
def test_certification_images_each_distinct_hull_once(strategy, source, target, calls):
    # six maps: a block-shift bank's identity bands into lp are one hull,
    # screened once; a weighted lp target reads where a hull sits, so each
    # band is screened (though this norm equals l2). These bands are
    # monomial: no row is imaged again. A max-abs target has no screen:
    # each band images every row. Each of a quadrature bank's six hulls,
    # whose seeded rotations differ, is screened, and images again only the
    # rows that the rule picks
    vectors = np.random.default_rng(4).standard_normal((50, 2))
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording(mp)
        bank = sg.build_bank(strategy, source, target, 4.0, 6, vectors)
    _taken(seen, bank.maps)
    taking = "image" if isinstance(target.norm, sg.MaxAbsFunctionals) else "screen"
    assert [len(X) for kind, _, X, _ in seen if kind == taking] == [50] * calls
    again = [len(X) for kind, _, X, _ in seen if kind == "image" and taking == "screen"]
    if isinstance(strategy, sg.QuadratureL2toL1):
        assert len(again) == calls and all(0 < k < 50 for k in again)
    else:
        assert again == []


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


def test_build_bank_needs_a_nonzero_row():
    # no rows, zero rows of either sign, or a stream of empty and zero
    # blocks: no ratio to certify by; rows of another width are refused
    zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]])
    stream = RowBlocks(5, lambda: iter([zeros[:0], zeros, zeros[:2]]))
    for certify_set in (np.empty((0, 2)), zeros, [np.zeros(2)], stream):
        with pytest.raises(ValueError, match="at least one nonzero vector"):
            sg.build_bank(sg.BlockShift(), sg.Space(2), sg.Space(8), 0.1, 4, certify_set)
    with pytest.raises(sg.DimensionMismatch):
        sg.build_bank(sg.BlockShift(), sg.Space(2), sg.Space(8), 0.1, 4, np.ones((3, 3)))


def _nan_rows():
    """An l1 case whose rows 70 and 99 have norm inf and a NaN ratio: the
    spaces, the maps and the rows."""
    spaces = (sg.Space(2, sg.Lp(1.0)), sg.Space(4, sg.Lp(1.0)))
    maps = [np.eye(4, 2), np.eye(4, 2) * [1.0, 1.001]]
    rows = np.tile([[1.0, 0.0], [0.0, 1.0]], (50, 1))
    rows[70] = rows[99] = [math.inf, 0.0]
    return spaces, maps, rows


@np.errstate(invalid="ignore")  # an infinite row's image and ratio are NaN
def test_build_bank_keeps_the_first_nan_ratio_across_blocks(monkeypatch):
    # 32 rows of 2 a block: the NaN ratio comes first in the third block
    # and again in the fourth, after finite rows: a NaN replaces a finite
    # extreme of an earlier block, as argmin and argmax over every ratio
    # give, and a NaN extreme fails certification (it used to pass, with
    # NaN margins, as no comparison with NaN holds): the first map fails
    # at the first NaN row, 70
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    spaces, maps, rows = _nan_rows()
    got, want = _certify(2, maps, rows, 0.1, in_blocks=True, spaces=spaces)
    assert repr(got) == repr(want) == repr((0, 70, math.nan))


@np.errstate(invalid="ignore")
def test_build_bank_fails_a_nan_ratio_of_an_array():
    # the same rows passed as one array: one block, the same failure
    spaces, maps, rows = _nan_rows()
    got, want = _certify(2, maps, rows, 0.1, spaces=spaces)
    assert repr(got) == repr(want) == repr((0, 70, math.nan))


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
