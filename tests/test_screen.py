"""The certification screen.

`spaces.screen_norms` takes the norms of a map's images with one matrix
product per row block, and `spaces.screen_bound` gives delta, by which its
ratios may differ from those of the reference kernel, `spaces.image_norms`,
on the rows whose source norms lie in [low, high]. `bank.build_bank` images
again on the reference kernel every row whose ratio may be a block's lowest
or highest. The screen must stay within delta on every row the bound covers,
be the reference bit for bit on a monomial hull, and leave certification
equal to `tests/oracles.py`'s `certify_all_rows`: with the real screen, and
with an adversarial one that errs by nearly delta in the worst direction.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spiralglue as sg
import spiralglue.bank
from spiralglue.errors import CertificationFailed
from spiralglue.spaces import image_norms, screen_bound, screen_norms

from oracles import certify_all_rows

_P = [1.0, 1.5, 2.0, 3.0, math.inf]
_WEIGHTS = [1e-3, 0.5, 1.0, 2.0, 1e3]


@st.composite
def _norm(draw, dim):
    """lp with p in _P, or weighted lp of the same p."""
    p = draw(st.sampled_from(_P))
    if draw(st.booleans()):
        return sg.Lp(p)
    weights = draw(st.lists(st.sampled_from(_WEIGHTS), min_size=dim, max_size=dim))
    return sg.WeightedLp(p, np.array(weights))


def _hull(kind, d, rng, rows):
    """A hull of the given kind on a source of dim d."""
    if kind == "quadrature" and d == 2:
        # the rows of a quadrature map in dimension 2, at a random offset
        phi = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(rows) / rows
        return math.tan(math.pi / rows) / 2.0 * np.column_stack([np.cos(phi), np.sin(phi)])
    if kind == "quadrature":
        # seeded unit directions, as a quadrature map in higher dimension
        theta = rng.standard_normal((rows, d))
        return theta / np.linalg.norm(theta, axis=1, keepdims=True) / rows
    if kind == "cancel":
        # rows of entries of both signs and equal size, up to an ulp or so:
        # a row along (1, 1, ...) makes their products cancel
        signs = np.where(np.arange(d) % 2, -1.0, 1.0)
        return signs * (1.0 + 2.0**-50 * rng.integers(-4, 5, (rows, d)))
    if kind == "monomial":
        hull = np.zeros((rows, d))
        at = rng.integers(0, d, rows)
        hull[np.arange(rows), at] = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], rows)
        return hull
    return rng.standard_normal((rows, d))


@st.composite
def _screened(draw):
    """(source, target, matrices, rows): one to four maps on a source of dim
    1 to 4, each of a hull of quadrature rows (d = 2 or 3), dense rows with
    cancellation, dense random rows or a monomial band, of 1, 2, 3, 5 or 8
    rows (odd widths and one-row hulls among them), scaled, with signs
    flipped, and some entries set to -0.0, at an offset in the target; lp
    and weighted lp norms of several p on either side. The rows are drawn
    from a pool, repeats and exact ties among them, with rows scaled by an
    ulp or so (near ties), rows along a hull row's orthogonal complement
    (cancellation), zeros of both signs, tiny and huge rows, and rows with
    an infinite entry (NaN ratios). A map may be scaled so that its least
    reference ratio is 1, so that certification passes more often."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 4))
    hulls = []
    for _ in range(count):
        kinds = ["dense", "cancel", "monomial"] + ["quadrature"] * (d in (2, 3))
        kind = draw(st.sampled_from(kinds))
        hull = _hull(kind, d, rng, draw(st.sampled_from([1, 2, 3, 5, 8])))
        hull *= 10.0 ** draw(st.sampled_from([0, 0, 0, -150, -20, 20, 150]))
        if draw(st.booleans()):
            hull *= rng.choice([-1.0, 1.0], hull.shape)
        if draw(st.booleans()):
            hull[rng.random(hull.shape) < 0.3] = 0.0
            hull[hull == 0.0] = -0.0
        hulls.append(hull)
    width = max(map(len, hulls)) + draw(st.integers(0, 2))
    source = sg.Space(d, draw(_norm(d)))
    target = sg.Space(width, draw(_norm(width)))
    matrices = []
    for hull in hulls:
        m = np.zeros((width, d))
        start = draw(st.integers(0, width - len(hull)))
        m[start : start + len(hull)] = hull
        matrices.append(m)
    pool = list(rng.standard_normal((draw(st.integers(1, 5)), d)))
    for _ in range(draw(st.integers(0, 3))):
        # orthogonal to a hull row up to rounding
        a, v = hulls[0][rng.integers(len(hulls[0]))], rng.standard_normal(d)
        if np.any(a != 0.0):
            a = a / np.abs(a).max()
            pool.append(v - (v @ a) / (a @ a) * a)
    for _ in range(draw(st.integers(0, 3))):
        pool.append(pool[rng.integers(len(pool))] * (1.0 + 2.0**-52 * rng.integers(1, 4)))
    scales = [0] * 6 + [-310, -290, -260, -100, 100, 260, 290, 305]
    rows = [
        pool[k] * 10.0 ** draw(st.sampled_from(scales)) if draw(st.booleans()) else pool[k]
        for k in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    ]
    zero = np.zeros(d)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), -zero if draw(st.booleans()) else zero)
    if draw(st.integers(0, 4)) == 0:
        row = rng.standard_normal(d)
        row[rng.integers(d)] = math.inf
        rows.insert(draw(st.integers(0, len(rows))), row)
    rows = np.array(rows)
    if draw(st.booleans()):
        matrices = [_calibrated(m, source, target, rows) for m in matrices]
    return source, target, matrices, rows


@np.errstate(all="ignore")
def _calibrated(matrix, source, target, rows):
    """The matrix scaled so that its least finite reference ratio over the
    nonzero rows is about 1 (the matrix itself where there is none)."""
    n = sg.norms(source, rows)
    keep = n > 0.0
    ratios = image_norms(sg.LinearMap(matrix, source, target), rows[keep]) / n[keep]
    ratios = ratios[np.isfinite(ratios) & (ratios > 0.0)]
    if not ratios.size or not 0.0 < 1.0 / ratios.min() < math.inf:
        return matrix
    return matrix / ratios.min()


def _outcome(call):
    """call()'s (lower, upper) margins, or its failure's (map, index, ratio)."""
    try:
        return call()
    except CertificationFailed as exc:
        return exc.map_index, exc.vector_index, exc.ratio


def _certified(source, target, matrices, rows, gamma):
    """(build_bank's outcome, the oracle's)."""
    strategy = sg.UserMatrices(tuple(matrices))

    def bank():
        b = sg.build_bank(strategy, source, target, gamma, len(matrices), rows)
        return b.cert_lower_margin, b.cert_upper_margin

    oracle = _outcome(lambda: certify_all_rows(matrices, source, target, gamma, rows))
    return _outcome(bank), oracle


def _adversary(lin, X):
    """Screen norms that err by 0.95 delta against the reference, in the
    direction that hides each block's extremes: a row at the least (or
    largest) reference ratio seems higher (lower), and every other row
    seems nearer the extreme it is nearer to. A row outside [low, high]
    seems to have norm 0. Where rounding would take a ratio further than
    delta, the row keeps its reference norm."""
    delta, low, high = screen_bound(lin)
    n = sg.norms(lin.source, X)
    reference = image_norms(lin, X)
    r = reference / n
    inside = (n >= low) & (n <= high)
    norms = np.where(inside, reference, 0.0)
    if not inside.any():
        return norms
    lo, hi = r[inside].min(), r[inside].max()
    sign = np.where(r - lo <= hi - r, -1.0, 1.0)
    sign[r == lo], sign[r == hi] = 1.0, -1.0
    moved = (r + sign * 0.95 * delta) * n
    good = inside & (np.abs(moved / n - r) <= delta)
    norms[good] = moved[good]
    return norms


# a quadrature band of 8 rows and rows at angles that step by 2^-48 from one
# where a band row's product is zero: their ratios climb from the least in
# steps of about a quarter of delta, so the rows within 2 delta of it are
# more than those within delta; a second map scaled by 1 + 2^-30
_PHI = 0.3 + 2.0 * math.pi * np.arange(8) / 8
_BAND = math.tan(math.pi / 8) / 2.0 * np.column_stack([np.cos(_PHI), np.sin(_PHI)])
_ANGLES = _PHI[0] + math.pi / 2 + 2.0**-48 * np.arange(-20, 21)
_LADDER = (
    sg.Space(2),
    sg.Space(8, sg.Lp(1.0)),
    [_BAND, _BAND * (1.0 + 2.0**-30)],
    np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)]),
)


@settings(max_examples=300, deadline=None)
@given(case=_screened(), gamma=st.sampled_from([0.01, 4.0, 1e300]))
@example(case=_LADDER, gamma=4.0)
@np.errstate(all="ignore")  # infinite rows, and huge and tiny ones, are the point
def test_screen_is_sound(case, gamma):
    source, target, matrices, rows = case
    n = sg.norms(source, rows)
    assume(np.any(n > 0.0))  # certification needs a nonzero row
    for matrix in matrices:
        lin = sg.LinearMap(matrix, source, target)
        bound = screen_bound(lin)
        if bound is None:
            continue
        delta, low, high = bound
        inside = (n > 0.0) & (n >= low) & (n <= high)
        screened = screen_norms(lin, rows[inside]) / n[inside]
        reference = image_norms(lin, rows[inside]) / n[inside]
        if delta:
            assert np.isfinite(screened).all() and np.isfinite(reference).all()
            assert np.all(np.abs(screened - reference) <= delta)
        else:
            # a monomial hull: every row, an infinite one too
            assert np.array_equal(screened, reference, equal_nan=True)
    # certification, bit for bit: with the screen, and with the adversary
    got, want = _certified(source, target, matrices, rows, gamma)
    assert repr(got) == repr(want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.bank, "screen_norms", _adversary)
        got, _ = _certified(source, target, matrices, rows, gamma)
    assert repr(got) == repr(want)


def test_ladder_has_rows_between_delta_and_twice_delta():
    # the example above holds rows whose screened ratio lies between delta
    # and 2 delta above the least, which a rule of delta would not image
    # again: so the adversary fails such a rule there
    source, target, (band, _), rows = _LADDER
    lin = sg.LinearMap(band, source, target)
    delta, _, _ = screen_bound(lin)
    s = screen_norms(lin, rows) / sg.norms(source, rows)
    above = s - s.min()
    assert delta > 0.0 and np.any((above > delta) & (above <= 2 * delta))


def test_max_abs_functionals_have_no_screen():
    # the max-abs functionals, on either side, keep the reference kernel
    functionals = sg.Space(2, sg.MaxAbsFunctionals(np.eye(2)))
    dense = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert screen_bound(sg.LinearMap(dense, functionals, sg.Space(2))) is None
    lin = sg.LinearMap(dense, sg.Space(2), functionals)
    assert screen_bound(lin) is None
    with pytest.raises(ValueError, match="lp or weighted lp target"):
        screen_norms(lin, dense)


@st.composite
def _monomial(draw):
    """(hull, rows): a monomial hull on a source of dim 1 to 4, each row
    holding at most one nonzero entry: an identity band, a signed
    permutation, a band with scaled rows, or one row; zeros of either sign
    among its entries. Rows of the source dim with zeros of both signs."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["identity", "permutation", "scaled", "one-row"]))
    if kind == "one-row":
        hull = np.zeros((1, d))
        hull[0, rng.integers(d)] = rng.standard_normal()
    else:
        hull = np.eye(d)
        if kind != "identity":
            hull = hull[rng.permutation(d)] * rng.choice([-1.0, 1.0], (d, 1))
        if kind == "scaled":
            hull *= 10.0 ** rng.integers(-5, 6, (d, 1)) * rng.random((d, 1))
    zeros = hull == 0.0
    hull[zeros & (rng.random(hull.shape) < 0.5)] = -0.0
    rows = rng.standard_normal((draw(st.integers(1, 30)), d))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[rng.random(rows.shape) < 0.3] = -0.0
    return hull, rows


@pytest.mark.parametrize("p", _P)
@pytest.mark.parametrize("weighted", [False, True], ids=["lp", "weighted"])
@settings(max_examples=40, deadline=None)
@given(case=_monomial(), start=st.integers(0, 2))
def test_monomial_screen_is_exact(p, weighted, case, start):
    # every product of a monomial hull is one rounded product plus exact
    # zeros under any kernel: the screen's norms are the reference's, bit
    # for bit, and its bound is 0 on every row
    hull, rows = case
    d, width = hull.shape[1], len(hull) + 2
    norm = sg.WeightedLp(p, np.linspace(0.5, 2.0, width)) if weighted else sg.Lp(p)
    source, target = sg.Space(d), sg.Space(width, norm)
    matrix = np.zeros((width, d))
    matrix[start : start + len(hull)] = hull
    lin = sg.LinearMap(matrix, source, target)
    assert screen_bound(lin) == (0.0, 0.0, math.inf)
    assert screen_norms(lin, rows).tobytes() == image_norms(lin, rows).tobytes()
