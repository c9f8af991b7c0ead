"""Batched kernels against the scalar computations they replace.

The row kernel `norms`, the certification kernel `image_norms` and the blend
kernel `blend_norms` on the leaves of the pairwise sum that the hulls meet,
the batched
`decompose` with its sort-and-sweep direction grouping, the certification
blocks, the row gain with cos and sin once per distinct angle, the selection's level judge, the array ramp angle
and weight evaluator, the one-call weight table, the row embedding with the
images file written from the report, and the block judge of the pair sweep
with its column reductions and block CSV writer must reproduce the
one-at-a-time results. The scalar code kept in this file (decompose's
direction scan, the per-pair judge, the per-check level loop, the float
ramp angle and weight evaluator, the per-radius weight row, the per-point
embedding and images writer, numpy's log of the norms, the first-wins stats
loop and the csv.writer loop over PairCheck objects) serves as oracles, with
the one-vector norm, map image and blend, the full-width row norms and the
per-difference decompose and leader scan of `tests/oracles.py`.
"""

import csv
import dataclasses
import functools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spiralglue as sg
import spiralglue.bank
import spiralglue.cli
import spiralglue.glue
import spiralglue.pointset
import spiralglue.verify
from spiralglue.bank import _level_ok, blend_threshold
from spiralglue.cli import (
    _certify_vectors,
    _write_json,
    main,
    parse_config,
    run_pipeline,
)
from spiralglue.errors import (
    BoundViolated,
    CertificationFailed,
    DimensionMismatch,
    OutOfScheduleRange,
)
from spiralglue.pointset import _DIR_TOL, PLACEMENTS, _leaders
from spiralglue.schedule import (
    HALF_PI,
    active_weights_log,
    check_log_radius,
    log_radius,
    ramp_angle_log,
)
from spiralglue.verify import DEFAULT_TOL, SQRT2

from oracles import (
    apply_scalar,
    blend_apply_scalar,
    decompose_first_match,
    direction_gain_all_rows,
    directions_bytes,
    leaders_scan,
    norm_scalar,
    norms_full_width,
    sandwich_angles,
)

# ---------------------------------------------------------------- norms


def _close(got: float, want: float, rel: float = 1e-15) -> bool:
    return abs(got - want) <= rel * abs(want)


_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.floats(1e299, 1e300),
    st.floats(-1e300, -1e299),
)


@st.composite
def _spaces(draw):
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["lp", "weighted_lp", "max_abs"]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    if kind == "lp":
        return sg.Space(dim, sg.Lp(p))
    if kind == "weighted_lp":
        w = draw(hnp.arrays(float, dim, elements=st.floats(1e-3, 1e3)))
        return sg.Space(dim, sg.WeightedLp(p, w))
    extra = draw(st.integers(0, 3))
    rows = draw(hnp.arrays(float, (extra, dim), elements=st.floats(-2.0, 2.0)))
    return sg.Space(dim, sg.MaxAbsFunctionals(np.vstack([np.eye(dim), rows])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_norms_match_scalar_norm(data):
    space = data.draw(_spaces())
    k = data.draw(st.integers(0, 5))
    X = data.draw(hnp.arrays(float, (k, space.dim), elements=_ENTRIES))
    if data.draw(st.booleans()):
        X = np.vstack([X, np.zeros(space.dim)])
    got = sg.norms(space, X)
    assert got.shape == (len(X),)
    for row, value in zip(X, got):
        assert _close(value, norm_scalar(space, row))
    # the in-place passes give the bits of the passes over new arrays
    assert got.tobytes() == norms_full_width(space, X).tobytes()


_SPECS = [
    sg.Lp(1.0),
    sg.Lp(2.0),
    sg.Lp(3.5),
    sg.Lp(math.inf),
    sg.WeightedLp(2.5, np.array([0.5, 2.0, 1.0])),
    sg.WeightedLp(math.inf, np.array([0.5, 2.0, 1.0])),
    sg.MaxAbsFunctionals(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])),
]


@pytest.mark.parametrize("spec", _SPECS, ids=repr)
def test_norms_edge_rows(spec):
    space = sg.Space(3, spec)
    assert sg.norms(space, np.empty((0, 3))).shape == (0,)
    X = np.array(
        [[0.0, 0.0, 0.0], [1e300, -1.3e300, 0.7e300], [-0.0, 2.0, -3.0], [5e-324, 0.0, 0.0]]
    )
    got = sg.norms(space, X)
    assert got[0] == 0.0
    for row, value in zip(X, got):
        assert _close(value, norm_scalar(space, row))
    assert got.tobytes() == norms_full_width(space, X).tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_norms_across_row_blocks(p):
    # wide rows: the kernel works through several blocks of BATCH_ELEMENTS
    space = sg.Space(1536, sg.Lp(p))
    X = np.random.default_rng(3).standard_normal((40, 1536))
    assert 40 * 1536 > 2 * sg.spaces.BATCH_ELEMENTS
    got = sg.norms(space, X)
    assert [norm_scalar(space, row) for row in X] == got.tolist()
    assert got.tobytes() == norms_full_width(space, X).tobytes()


def test_norms_reject_wrong_width():
    space = sg.Space(3, sg.Lp(2.0))
    for bad in (np.ones((2, 4)), np.ones(3), np.ones((1, 2, 3)), [np.ones(3), np.ones(2)]):
        with pytest.raises(DimensionMismatch):
            sg.norms(space, bad)


# ---------------------------------------------------------------- certification


def test_build_bank_rejects_wrong_width_vectors():
    src = sg.Space(3, sg.Lp(2.0))
    tgt = sg.Space(12, sg.Lp(2.0))
    for bad in (np.ones((5, 4)), np.ones(15), [np.ones(3), np.ones(4)]):
        with pytest.raises(DimensionMismatch):
            sg.build_bank(sg.BlockShift(), src, tgt, 0.1, 4, bad)


def test_certification_failure_names_nonzero_vector_index():
    # zero vectors are skipped, and the index counts only the nonzero ones;
    # the wide target splits the vectors over many row blocks
    src = sg.Space(2, sg.Lp(1.0))
    tgt = sg.Space(2048, sg.Lp(1.0))
    good = np.zeros((2048, 2))
    good[0, 0] = good[1, 1] = 1.0
    bad = good.copy()
    bad[1, 1] = 0.5
    certify = []
    for k in range(60):
        certify.append(np.zeros(2))
        certify.append(np.array([0.0, 3.0]) if k == 37 else np.array([k + 1.0, 0.0]))
    with pytest.raises(CertificationFailed) as exc:
        sg.build_bank(sg.UserMatrices((good, bad)), src, tgt, 0.1, 2, np.array(certify))
    assert (exc.value.map_index, exc.value.vector_index, exc.value.ratio) == (1, 37, 0.5)


def _certify_list(cfg, pts, decomp):
    """The list construction that the certification array replaced."""
    vecs = [row for row in pts.coords]
    n = len(pts)
    for a in range(n):
        for b in range(a + 1, n):
            vecs.append(pts.coords[a] - pts.coords[b])
    for level_dirs in decomp.directions:
        vecs.extend(level_dirs)
    rng = np.random.default_rng(cfg.certify_seed)
    for _ in range(cfg.certify_random):
        vecs.append(rng.standard_normal(cfg.source.dim))
    return vecs


def _config(dim, norm, strategy, per_level, certify_random=40, **extra):
    return parse_config(
        {
            **extra,
            "source": {"dim": dim, "norm": norm},
            "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
            "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
            "points": {
                "generator": {"seed": 7, "per_level": per_level, "placement": "mixed"}
            },
            "bank": {"certify_random": certify_random, "certify_seed": 3, **strategy},
        }
    )


def _certify_case():
    cfg = _config(3, {"norm": "lp", "p": 1.0}, {"strategy": "block_shift"}, 12)
    sched = sg.build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    pts = sg.generate_annular(7, sched, 12, 3, "mixed", cfg.source.norm)
    return cfg, pts, sg.decompose(pts, sched)


def _assert_blocks_are_list(cfg, pts, decomp):
    """The certify blocks, concatenated, are the list's rows."""
    certify = _certify_vectors(cfg, pts, decomp)
    blocks = list(certify)
    want = np.array(_certify_list(cfg, pts, decomp))
    assert len(certify) == len(want)
    assert max(len(b) for b in blocks) <= sg.spaces.BATCH_ELEMENTS // 3
    got = np.concatenate(blocks)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a second pass forms the same blocks anew
    assert np.concatenate(list(certify)).tobytes() == want.tobytes()


def test_certify_array_bit_equal_to_list():
    _assert_blocks_are_list(*_certify_case())


@pytest.mark.parametrize("batch", [64, 100])
def test_certify_blocks_bit_equal_to_list_in_small_blocks(batch, monkeypatch):
    # blocks of 21 and 33 rows straddle the points, differences, directions
    # and random rows, whose draws then come a few at a time
    case = _certify_case()
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
    _assert_blocks_are_list(*case)


def test_certify_stream_iterates_twice_with_the_same_blocks(monkeypatch):
    # certification reads the stream twice, for the rows' keys and then for
    # the rows: each iteration forms its blocks anew, random rows included,
    # and both yield the same blocks, bit for bit
    cfg, pts, decomp = _certify_case()
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    certify = _certify_vectors(cfg, pts, decomp)
    once, again = list(certify), list(certify)
    assert len(once) == len(again) > 30
    assert cfg.certify_random >= len(once[-1])  # the last block holds random rows only
    assert sum(map(len, once)) == len(certify)
    for a, b in zip(once, again):
        assert a is not b
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cuts", [[], [1], [5, 6, 40], list(range(1, 40))])
def test_random_rows_drawn_in_blocks_are_one_draw(cuts):
    # the certify stream draws its random rows a block at a time, which must
    # consume the generator exactly as one draw of all of them
    want = np.random.default_rng(3).standard_normal((40, 3))
    rng = np.random.default_rng(3)
    got = np.empty((40, 3))
    for lo, hi in zip([0, *cuts], [*cuts, 40]):
        rng.standard_normal(out=got[lo:hi])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- decompose


def decompose_scan(pts, sched):
    """The pair-by-pair decompose: a scalar norm per difference and a linear
    scan over the directions found so far."""
    m = sched.levels
    logs = sg.log_norms(pts)
    for ln in logs:
        check_log_radius(sched, ln)
    order = np.argsort(np.asarray(pts.ids))
    members, dirs = [], []
    for level in range(1, m + 1):
        shell_lo = sched.log_R[level - 2] if level >= 2 else -math.inf
        shell_hi = sched.log_r[level] if level < m else sched.log_coverage
        ids_here, rows_here, logs_here = [], [], []
        for k in order:
            ln = logs[k]
            in_shell = (shell_lo < ln <= shell_hi) if ln != -math.inf else False
            if in_shell or ln == -math.inf:
                ids_here.append(int(pts.ids[k]))
                rows_here.append(pts.coords[k])
                logs_here.append(ln)
        if not pts.includes_origin:
            rows_here.append(np.zeros(pts.space.dim))
            logs_here.append(-math.inf)
        found = []
        log_ri = sched.log_r[level - 1]
        log_Ri = sched.log_R[level - 1]
        for a, xa in enumerate(rows_here):
            if not logs_here[a] > log_ri:
                continue
            angle = ramp_angle_log(sched, level, logs_here[a])
            for b, yb in enumerate(rows_here):
                if a == b:
                    continue
                if logs_here[b] > log_Ri or logs_here[b] > logs_here[a]:
                    continue
                diff = xa - yb
                u = diff / sg.norm(pts.space, diff)
                for vec, angles in found:
                    if np.max(np.abs(vec - u)) <= _DIR_TOL:
                        angles.append(angle)
                        break
                else:
                    found.append((u, [angle]))
        members.append(tuple(ids_here))
        dirs.append(
            tuple((u, tuple(np.unique(np.asarray(angles)).tolist())) for u, angles in found)
        )
    return tuple(members), tuple(dirs)


def _assert_decompositions_agree(pts, sched):
    dec = sg.decompose(pts, sched)
    members, dirs = decompose_scan(pts, sched)
    assert dec.member_ids == members
    assert [len(level) for level in dec.directions] == [len(level) for level in dirs]
    for units, (direction, angle), want_level in zip(dec.directions, dec.checks, dirs):
        # the checks list each direction's angles in turn, sorted
        assert direction.tolist() == [k for k, (_, angles) in enumerate(want_level) for _ in angles]
        assert angle.tolist() == [a for _, angles in want_level for a in angles]
        for got, (u, _) in zip(units, want_level):
            assert np.max(np.abs(got - u)) <= 1e-15 * max(1.0, np.max(np.abs(u)))
    # the sort-and-sweep grouping reproduces the per-difference loop bit for bit
    want = decompose_first_match(pts, sched)
    assert dec.member_ids == want.member_ids
    assert directions_bytes(dec) == directions_bytes(want)
    for units, (direction, angle) in zip(dec.directions, dec.checks):
        assert units.shape == (len(units), pts.space.dim)
        assert not (units.flags.writeable or direction.flags.writeable or angle.flags.writeable)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decompose_matches_scan(data, small_ws, wide_ws):
    sched = data.draw(st.sampled_from([small_ws, wide_ws]))
    space = data.draw(_spaces())
    placement = data.draw(st.sampled_from(["plateau", "ramp", "mixed"]))
    per_level = data.draw(st.integers(1, 10))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pts = sg.generate_annular(seed, sched, per_level, space.dim, placement, space.norm)
    if data.draw(st.booleans()):
        # without the origin in the input, decompose adjoins it to every shell
        pts = sg.make_point_set(space, pts.coords[1:], pts.ids[1:])
    _assert_decompositions_agree(pts, sched)


def test_decompose_matches_scan_on_collinear_points(small_ws):
    # differences along one ray agree only up to rounding, which exercises
    # the tolerance match rather than bitwise repeats
    sched = small_ws
    base = np.array([0.3, -0.7, 1.1])
    radii = np.exp(np.linspace(sched.log_r[0] - 1.0, sched.log_R[2], 25))
    coords = np.vstack([np.zeros(3), np.outer(radii, base), np.outer(radii[::3], -base[::-1])])
    pts = sg.make_point_set(sg.Space(3, sg.Lp(2.0)), coords)
    _assert_decompositions_agree(pts, sched)


def test_decompose_matches_first_match_at_481_points(wide_ws):
    # about 7000 directions over three levels, most differences bitwise repeats
    pts = sg.generate_annular(7, wide_ws, 160, 3, "mixed", sg.Lp(1.0))
    dec = sg.decompose(pts, wide_ws)
    want = decompose_first_match(pts, wide_ws)
    assert dec.member_ids == want.member_ids
    assert directions_bytes(dec) == directions_bytes(want)


def test_decompose_matches_first_match_in_a_coordinate_plane(wide_ws):
    # every difference has coordinate 0 equal to 0.0, so the grouping sweeps
    # another coordinate
    pts = sg.generate_annular(7, wide_ws, 40, 3, "mixed", sg.Lp(1.0))
    coords = pts.coords.copy()
    coords[:, 0] = 0.0
    pts = sg.make_point_set(pts.space, coords)
    dec = sg.decompose(pts, wide_ws)
    assert directions_bytes(dec) == directions_bytes(decompose_first_match(pts, wide_ws))


def test_decompose_temporaries_stay_within_batch(l1_pipeline, monkeypatch):
    # every array of differences decompose forms is blocked: only the point
    # norms, the 1-d per-difference columns and the distinct rows are not
    g, pts, _ = l1_pipeline
    want = directions_bytes(decompose_first_match(pts, g.schedule))
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    sizes = []

    def sized(space, rows):
        if rows is not pts.coords:
            sizes.append(np.asarray(rows).size)
        return sg.norms(space, rows)

    monkeypatch.setattr(spiralglue.pointset, "norms", sized)
    dec = sg.decompose(pts, g.schedule)
    assert sizes and max(sizes) <= 64
    # the running dedup and the grouping hold across many blocks
    assert len(sizes) > 3 * len(dec.directions) // 2
    assert directions_bytes(dec) == want


_HALF_TOL = _DIR_TOL / 2


@st.composite
def _clustered_rows(draw):
    """Rows near a few centres, jittered by multiples of _DIR_TOL / 2.

    Where a coordinate's centre is 0.0 its gaps are exact multiples of
    _DIR_TOL / 2, so draws hold gaps of exactly _DIR_TOL (close), twice that
    (not close) and, with the one-ulp nudge of coordinate 0, one ulp above
    _DIR_TOL; chains A~B~C with A, C apart, and rows close to two leaders,
    follow."""
    dim = draw(st.integers(1, 3))
    centres = draw(
        st.lists(
            hnp.arrays(float, dim, elements=st.sampled_from([0.0, 0.5, -0.75, 1e-3])),
            min_size=1,
            max_size=3,
        )
    )
    n = draw(st.integers(0, 24))
    rows = []
    for _ in range(n):
        centre = draw(st.sampled_from(centres))
        steps = draw(hnp.arrays(np.int64, dim, elements=st.integers(-4, 4)))
        row = centre + steps * _HALF_TOL
        if draw(st.booleans()):
            row[0] = np.nextafter(row[0], math.inf)
        rows.append(row)
    rows = np.array(rows).reshape(n, dim)
    # decompose groups distinct rows only, in order of first occurrence
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


@settings(max_examples=300, deadline=None)
@given(rows=_clustered_rows())
def test_leaders_match_scan(rows):
    assert _leaders(rows).tolist() == leaders_scan(rows)


def test_leaders_chain_and_first_leader():
    t = _DIR_TOL
    # B is within tol of A and of C, A and C are 2 tol apart: B joins A and
    # C leads, since its only close earlier row does not lead; D lies within
    # tol of both leaders and joins the first
    rows = np.array([[0.0, 1.0], [t, 1.0], [2 * t, 1.0], [t, 1.0 + t / 2]])
    assert _leaders(rows).tolist() == leaders_scan(rows) == [0, 0, 2, 0]
    # a gap of exactly tol is close; one ulp above it is not
    above = np.nextafter(t, math.inf)
    assert above - 0.0 > t
    rows = np.array([[0.0], [t], [above]])
    assert _leaders(rows).tolist() == leaders_scan(rows) == [0, 0, 2]
    rows = np.array([[above], [0.0], [t]])
    assert _leaders(rows).tolist() == leaders_scan(rows) == [0, 1, 0]


# ---------------------------------------------------------------- sweep


def _check_pairs(g, pts) -> list:
    """check_pair on every pair in the sweep's order: row-major, larger own
    norm first, the smaller id on ties."""
    logs = sg.log_norms(pts)
    ids, coords = pts.ids, pts.coords
    checks = []
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = (a, b) if (logs[a], -ids[a]) >= (logs[b], -ids[b]) else (b, a)
            checks.append(sg.check_pair(g, coords[x], coords[y], ids[x], ids[y]))
    return checks


def _assert_sweep_matches_check_pair(g, pts):
    rep = sg.distortion_report(g, pts)
    expected = _check_pairs(g, pts)
    assert len(rep.pair_checks) == len(expected)
    for got, want in zip(rep.pair_checks, expected):
        assert (got.x_id, got.y_id, got.kind) == (want.x_id, want.y_id, want.kind)
        assert (got.sigma, got.theta) == (want.sigma, want.theta)
        assert (got.g_sigma_w, got.g_theta_v) == (want.g_sigma_w, want.g_theta_v)
        assert _close(got.ratio, want.ratio)
        for name in ("lower_slack", "upper_slack"):
            g_val, w_val = getattr(got, name), getattr(want, name)
            assert abs(g_val - w_val) <= 1e-15 * max(1.0, abs(w_val))


def test_sweep_matches_check_pair(l1_pipeline):
    g, pts, _ = l1_pipeline
    _assert_sweep_matches_check_pair(g, pts)


def test_sweep_matches_check_pair_on_wide_target():
    # a 3072-wide target splits every row of the sweep into several blocks
    cfg = _config(
        2,
        {"norm": "lp", "p": 2.0},
        {"strategy": "quadrature_l2_to_l1", "count": 6, "directions": 512, "seed": 3},
        8,
        certify_random=200,
        target={"norm": {"norm": "lp", "p": 1.0}},
    )
    assert cfg.target.dim == 3072
    _, _, g, pts = run_pipeline(cfg)
    _assert_sweep_matches_check_pair(g, pts)


# ---------------------------------------------------------------- pair judge


def _level_interval(sched, log_t):
    """Contiguous 1-based range of shells containing a point of log norm log_t."""
    check_log_radius(sched, log_t)
    m = sched.levels
    if log_t == -math.inf:
        return 1, m
    lo = 1 + int(np.searchsorted(sched.log_r[1:], log_t, side="left"))
    hi = 1 + int(np.searchsorted(sched.log_R[: m - 1], log_t, side="left"))
    return lo, hi


def _plateau_index(sched, log_t):
    """1-based plateau index k with log radius in [log R_{k-1}, log r_k], else None."""
    m = sched.levels
    if log_t <= sched.log_r[0]:
        return 1
    if log_t >= sched.log_R[m - 1]:
        return m + 1
    for k in range(2, m + 1):
        if sched.log_R[k - 2] <= log_t <= sched.log_r[k - 1]:
            return k
    return None


def direction_gain_scalar(theta, u, first, second):
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u) for unit u."""
    nu = norm_scalar(first.source, u)
    if abs(nu - 1.0) > 1e-12:
        raise ValueError(f"u must be a unit vector, got norm {nu!r}")
    return norm_scalar(
        first.target, blend_apply_scalar(math.cos(theta), math.sin(theta), first, second, u)
    )


def judge_pair(g, bounds, x, y, nx, ny, ndiff, nimage, x_id, y_id, tol):
    """The per-pair judge that the batched judge replaced: check_pair's verdict,
    given the embedding's bounds, the source norms of x, y and x - y and the
    target norm of embed(x) - embed(y)."""
    sched = g.schedule
    if ny > nx:
        raise ValueError("caller must order the pair so that norm(x) >= norm(y)")
    log_nx = log_radius(nx)
    log_ny = log_radius(ny)
    check_log_radius(sched, log_nx)
    if ndiff == 0.0:
        raise ValueError("points must be distinct")
    ratio = nimage / ndiff

    gamma = g.bank.gamma
    delta = sched.params.delta

    lo_x, hi_x = _level_interval(sched, log_nx)
    lo_y, hi_y = _level_interval(sched, log_ny)
    checks = []
    sigma = theta = gsw = gtv = None

    if max(lo_x, lo_y) <= min(hi_x, hi_y):
        level = max(lo_x, lo_y)
        kind = f"same:{level}"
        kx = _plateau_index(sched, log_nx)
        ky = _plateau_index(sched, log_ny)
        if kx is not None and (kx == ky or ny == 0.0):
            kind = f"plateau:{kx}"
            checks.append(("plateau_bracket", 1.0, 1.0 + gamma))
        if ny > 0.0:
            sigma, _, theta = sandwich_angles(sched, level, nx, ny)
            first, second = g.map_at(level), g.map_at(level + 1)
            gsw = direction_gain_scalar(sigma, (x - y) / ndiff, first, second)
            gtv = direction_gain_scalar(theta, np.asarray(y) / ny, first, second)
            eps = sched.params.eps
            checks.append(("pair_sandwich", gsw - eps * gtv, gsw + eps * gtv))
            if log_ny <= sched.log_R[level - 1] and log_nx > sched.log_r[level - 1]:
                checks.append(("shell_bracket", bounds.l_same, bounds.u_same))
        elif kx is None:
            kind = f"ray:{level}"
            checks.append(
                ("ray_bracket", blend_threshold(g.selection.zeta), SQRT2 * (1.0 + gamma))
            )
    else:
        kind = f"far:{hi_y}-{lo_x - 1}"
        gap = delta * nx - ny
        if gap < -tol * nx:
            raise BoundViolated(
                "far_norm_gap", gap / nx, f"pair ({x_id}, {y_id}): |y| > delta |x|"
            )
        lo_gap = ndiff - nx * (1.0 - delta)
        hi_gap = nx * (1.0 + delta) - ndiff
        if min(lo_gap, hi_gap) < -tol * nx:
            raise BoundViolated(
                "far_norm_bracket",
                min(lo_gap, hi_gap) / nx,
                f"pair ({x_id}, {y_id}): |x-y| outside (1 +- delta)|x|",
            )
        checks.append(("far_bracket", bounds.l_far, bounds.u_far))

    lower_slack = math.inf
    upper_slack = math.inf
    for name, lo, hi in checks:
        sl, su = ratio - lo, hi - ratio
        if sl < -tol:
            raise BoundViolated(name, sl, f"pair ({x_id}, {y_id}): ratio {ratio!r} below {lo!r}")
        if su < -tol:
            raise BoundViolated(name, su, f"pair ({x_id}, {y_id}): ratio {ratio!r} above {hi!r}")
        lower_slack = min(lower_slack, sl)
        upper_slack = min(upper_slack, su)

    return sg.PairCheck(
        x_id, y_id, kind, ratio, sigma, theta, gsw, gtv, lower_slack, upper_slack
    )


def sweep_oracle(g, pts, tol=DEFAULT_TOL):
    """judge_pair on every pair in row-major order, larger own norm first (the
    smaller id on ties), fed the norms the sweep computes; a ValueError is
    prefixed with the pair, as `pair (x_id, y_id): `."""
    bounds = sg.embedding_bounds(g)
    coords, ids = pts.coords, pts.ids
    source_norms = sg.norms(g.source, coords).tolist()
    own = sg.norms(pts.space, coords).tolist()
    images = np.array([sg.embed(g, row) for row in coords])
    out = []
    for a in range(len(pts) - 1):
        diff_norms = sg.norms(g.source, coords[a] - coords[a + 1 :]).tolist()
        image_norms = sg.norms(g.target, images[a] - images[a + 1 :]).tolist()
        for b, ndiff, nimage in zip(range(a + 1, len(pts)), diff_norms, image_norms):
            x, y = (a, b) if (own[a], -ids[a]) >= (own[b], -ids[b]) else (b, a)
            try:
                pc = judge_pair(
                    g, bounds, coords[x], coords[y], source_norms[x], source_norms[y],
                    ndiff, nimage, ids[x], ids[y], tol,
                )
            except ValueError as exc:
                raise ValueError(f"pair ({ids[x]}, {ids[y]}): {exc}") from exc
            out.append(pc)
    return out


def _outcome(run):
    """run()'s result, or the type, message and fields of the error it raised."""
    try:
        return run()
    except (BoundViolated, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "name", None), getattr(exc, "slack", None))


def _fields(pc):
    # repr tells -0.0 from 0.0, None from a value and a numpy scalar from a float
    return tuple(repr(v) for v in dataclasses.astuple(pc))


def _assert_sweep_matches_oracle(g, pts):
    want = _outcome(lambda: sweep_oracle(g, pts))
    got = _outcome(lambda: list(sg.distortion_report(g, pts).pair_checks))
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        assert _outcome(lambda: sg.distortion_report(g, pts, keep_pairs=False)) == want
        return
    assert [_fields(pc) for pc in got] == [_fields(pc) for pc in want]


def _block_glue(space, sched, pts):
    """A certified block-shift embedding of the space into `levels + 2` blocks
    normed like the space itself, with its selected subsequence."""
    count = sched.levels + 2
    spec = space.norm
    if isinstance(spec, sg.WeightedLp):
        spec = sg.WeightedLp(spec.p, np.tile(spec.weights, count))
    elif isinstance(spec, sg.MaxAbsFunctionals):
        spec = sg.MaxAbsFunctionals(np.kron(np.eye(count), spec.functionals))
    target = sg.Space(count * space.dim, spec)
    decomp = sg.decompose(pts, sched)
    n = len(pts)
    first, second = np.triu_indices(n, 1)
    certify = np.vstack([pts.coords, pts.coords[first] - pts.coords[second], *decomp.directions])
    bank = sg.build_bank(sg.BlockShift(), space, target, sched.params.gamma, count, certify)
    return sg.GlueEmbedding(sched, bank, sg.select_subsequence(bank, decomp, sched.params.zeta))


def test_sweep_on_shared_rays_matches_check_pair(plateau_pipeline):
    # the sweep blends each (theta, point) of a row block once: on the
    # plateau points and each of y, 2y and 4y, whose unit rows are bit-equal,
    # every column of the sweep's table has the bits of check_pair's
    g, pts = plateau_pipeline
    coords = np.vstack([pts.coords, 2.0 * pts.coords[1:5], 4.0 * pts.coords[1:5]])
    rays = sg.make_point_set(pts.space, coords)
    got = sg.distortion_report(g, rays).pair_checks
    assert [_fields(pc) for pc in got] == [_fields(pc) for pc in _check_pairs(g, rays)]


def test_sweep_reports_a_non_unit_theta_row_as_the_per_pair_judge(plateau_pipeline):
    # a subnormal y = (t, t, 0, ...) has the norm t (sqrt(2) t rounds to t),
    # so its unit row y/|y| = (1, 1, 0, ...) has the norm sqrt(2): its first
    # shared-shell pair raises the per-pair judge's ValueError, named by the
    # sweep, with and without a kept table, and by check_pair; the sweep
    # prefixes it with the pair (point 0 and y). The origin is left out: its
    # pair with y, a plateau pair, would be judged first
    g, pts = plateau_pipeline
    source_norms = sg.norms(g.source, pts.coords)
    points = pts.coords[source_norms > 0.0]
    tiny = np.zeros(g.source.dim)
    tiny[:2] = 5e-324
    assert sg.norm(g.source, tiny) == 5e-324
    bad = sg.make_point_set(pts.space, np.vstack([points, tiny, 2.0 * points[:2]]))
    text = f"u must be a unit vector, got norm {math.sqrt(2.0)!r}"
    named = f"pair (0, {len(points)}): {text}"
    assert _outcome(lambda: sweep_oracle(g, bad))[:2] == (ValueError, named)
    _assert_sweep_matches_oracle(g, bad)
    # the smallest point shares the first level's shell with y
    x = pts.coords[np.argmin(np.where(source_norms > 0.0, source_norms, math.inf))]
    assert _outcome(lambda: sg.check_pair(g, x, tiny))[:2] == (ValueError, text)


def test_sandwich_tables_are_exact_in_every_row_case(l1_pipeline, monkeypatch):
    # at 64 elements a pair block holds 4 pairs, so the per-point gain tables
    # fill across many blocks. The mixed points, with each of the three
    # smallest nonzero points y also as 2y and 4y on its ray, hit every row
    # case: a difference with the bits of x, sigma 0, sigma pi/2 and sigma
    # on the ramp. Every column has the bits of check_pair's and the oracle's
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts, _ = l1_pipeline
    source_norms = sg.norms(g.source, pts.coords)
    small = pts.coords[np.argsort(np.where(source_norms > 0.0, source_norms, math.inf))[:3]]
    coords = np.vstack([pts.coords, 2.0 * small, 4.0 * small])
    rays = sg.make_point_set(pts.space, coords)
    table = sg.distortion_report(g, rays).pair_checks
    rows = np.flatnonzero(~np.isnan(table.sigma))
    sigma = table.sigma[rows]
    assert (sigma == 0.0).any() and (sigma == HALF_PI).any()
    assert ((sigma > 0.0) & (sigma < HALF_PI)).any()
    x, y = coords[table.x_id[rows]], coords[table.y_id[rows]]
    at_x = ((x - y).view(np.uint64) == x.view(np.uint64)).all(axis=1)
    assert at_x.any() and not at_x.all()
    got = [_fields(pc) for pc in table]
    assert got == [_fields(pc) for pc in _check_pairs(g, rays)]
    assert got == [_fields(pc) for pc in sweep_oracle(g, rays)]


def test_sweep_and_check_pair_group_no_rows(l1_pipeline, plateau_pipeline, monkeypatch):
    def grouped(*arrays):
        raise AssertionError("distinct_rows called")

    monkeypatch.setattr(sg.spaces, "distinct_rows", grouped)
    monkeypatch.setattr(spiralglue.verify, "distinct_rows", grouped, raising=False)
    for g, pts in (l1_pipeline[:2], plateau_pipeline):
        for keep_pairs in (True, False):
            sg.distortion_report(g, pts, keep_pairs=keep_pairs)
        order = np.argsort(sg.norms(g.source, pts.coords))
        x, y = pts.coords[order[-1]], pts.coords[order[-2]]
        assert sg.check_pair(g, x, y).sigma is not None


@pytest.mark.parametrize("keep_pairs", [True, False])
def test_non_unit_point_raises_at_its_first_pair_after_tables_fill(
    plateau_pipeline, monkeypatch, keep_pairs
):
    # the subnormal y of the test above comes last, after 38 points: its
    # first pair, with point 0, is the sweep's pair 37, in the tenth block of
    # 4 pairs, after earlier blocks filled the level's tables. y never
    # enters a table, and the sweep raises the oracle's error
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts = plateau_pipeline
    points = pts.coords[sg.norms(g.source, pts.coords) > 0.0]
    tiny = np.zeros(g.source.dim)
    tiny[:2] = 5e-324
    bad = sg.make_point_set(pts.space, np.vstack([points, 2.0 * points[:2], tiny]))
    want = _outcome(lambda: sweep_oracle(g, bad))
    assert want[:2] == (
        ValueError,
        f"pair (0, {len(points) + 2}): u must be a unit vector, got norm {math.sqrt(2.0)!r}",
    )
    calls = []
    gain = spiralglue.verify.direction_gain

    def counted(theta, u, first, second):
        calls.append(len(u))
        return gain(theta, u, first, second)

    monkeypatch.setattr(spiralglue.verify, "direction_gain", counted)
    assert _outcome(lambda: sg.distortion_report(g, bad, keep_pairs=keep_pairs)) == want
    # earlier blocks evaluated gains before the failing one
    assert len(calls) > 2


_MID_WS = sg.build_schedule(sg.Params(0.1, 0.1, 0.01, 0.01), 1.0, 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweep_matches_scalar_judge(data, wide_ws):
    sched = data.draw(st.sampled_from([wide_ws, _MID_WS]))
    space = data.draw(_spaces())
    placement = data.draw(st.sampled_from(["plateau", "ramp", "mixed"]))
    per_level = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pts = sg.generate_annular(seed, sched, per_level, space.dim, placement, space.norm)
    if data.draw(st.booleans()):
        pts = sg.make_point_set(space, pts.coords[1:], pts.ids[1:])
    _assert_sweep_matches_oracle(_block_glue(space, sched, pts), pts)


def test_sweep_matches_scalar_judge_in_small_blocks(l1_pipeline, monkeypatch):
    # 64 elements hold 3 image differences or 1 blend row of the 18-wide
    # target, so every row of the sweep splits into many blocks
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts, _ = l1_pipeline
    assert len(list(sg.spaces.row_blocks(len(pts) - 1, 2 * g.target.dim))) == len(pts) - 1
    _assert_sweep_matches_oracle(g, pts)


def _negated_glue(sched):
    """Two maps x -> x and x -> -x on an l2 plane, glued as the identity
    selection: their blend cancels where the ramp angle is pi/4."""
    src = sg.Space(2, sg.Lp(2.0))
    bank = sg.build_bank(
        sg.UserMatrices((np.eye(2), -np.eye(2))), src, src, 0.01, 2, [np.ones(2)]
    )
    sel = sg.SelectionResult((0, 1), (math.inf,), 0.0, blend_threshold(0.0))
    return sg.GlueEmbedding(sched, bank, sel)


def _negated_case(own_norm):
    """The negated glue with a point at ramp angle pi/4, whose image vanishes,
    and three more points in a point set of the given norm."""
    sched = sg.build_schedule(sg.Params(0.1, 0.1, 0.01, 0.01), 1.0, 1)
    quarter = math.exp(0.25 * math.pi / 0.1)
    coords = [
        quarter * np.array([1.0, 1.0]) / math.sqrt(2.0),
        math.exp(5.0) * np.array([0.6, -0.8]),
        np.zeros(2),
        # larger than the first point in l2, smaller in l1: ordered by an l1
        # point set, this pair fails the order check after the rows above
        1.2 * quarter * np.array([1.0, 0.0]),
    ]
    return _negated_glue(sched), sg.make_point_set(sg.Space(2, own_norm), coords)


@pytest.mark.parametrize("own_norm", [sg.Lp(2.0), sg.Lp(1.0)], ids=["l2", "l1"])
def test_failure_matches_scalar_judge(own_norm):
    g, pts = _negated_case(own_norm)
    want = _outcome(lambda: sweep_oracle(g, pts))
    assert want[0] is BoundViolated and want[3] < 0.0
    with pytest.raises(BoundViolated) as exc:
        sg.distortion_report(g, pts)
    assert (type(exc.value), str(exc.value), exc.value.name, exc.value.slack) == want
    # the single pair through check_pair raises the same
    x, y = (pts.coords[0], pts.coords[1])
    assert _outcome(lambda: sg.check_pair(g, x, y, 0, 1)) == want


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0], ids=repr)
def test_tolerance_must_be_finite_and_non_negative(tol):
    # a NaN or infinite tolerance would let the vanishing image pass every check
    g, pts = _negated_case(sg.Lp(2.0))
    with pytest.raises(BoundViolated):
        sg.distortion_report(g, pts, tol=DEFAULT_TOL)
    x, y = pts.coords[0], pts.coords[1]
    for judge in (
        lambda: sg.distortion_report(g, pts, tol=tol),
        lambda: sg.check_pair(g, x, y, 0, 1, tol=tol),
    ):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            judge()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_apply_and_blend_bit_equal_to_scalar_bodies(data):
    source = sg.Space(data.draw(st.integers(1, 6)))
    target = sg.Space(data.draw(st.integers(1, 8)))
    entries = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    first, second = (
        sg.LinearMap(
            data.draw(hnp.arrays(float, (target.dim, source.dim), elements=entries)),
            source,
            target,
        )
        for _ in range(2)
    )
    k = data.draw(st.integers(0, 6))
    X = data.draw(hnp.arrays(float, (k, source.dim), elements=entries))
    angles = data.draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=k, max_size=k))
    c = [math.cos(t) for t in angles]
    s = [math.sin(t) for t in angles]
    want_images = [apply_scalar(first, x).tobytes() for x in X]
    want_blends = [blend_apply_scalar(*cs, first, second, x).tobytes() for *cs, x in zip(c, s, X)]
    images = sg.apply(first, X)
    blends = sg.blend_apply(np.array(c), np.array(s), first, second, X)
    assert images.shape == blends.shape == (k, target.dim)
    assert [row.tobytes() for row in images] == want_images
    assert [row.tobytes() for row in blends] == want_blends
    # the 1-d call is the one-row case
    assert [sg.apply(first, x).tobytes() for x in X] == want_images
    one = [sg.blend_apply(*cs, first, second, x).tobytes() for *cs, x in zip(c, s, X)]
    assert one == want_blends


_POWERS = (1.0, 1.5, 2.0, 3.0, math.inf)


def _target_norms(dim: int, max_abs: bool = True) -> list:
    """A norm of every kind on a dim-wide target: lp and weighted lp at each
    of _POWERS, and, unless max_abs is False, the max of the coordinates and
    two more functionals."""
    rng = np.random.default_rng(dim)
    lp = [sg.Lp(p) for p in _POWERS]
    weighted = [sg.WeightedLp(p, rng.uniform(1e-3, 1e3, dim)) for p in _POWERS]
    if not max_abs:
        return lp + weighted
    functionals = np.vstack([np.eye(dim), rng.standard_normal((2, dim))])
    return lp + weighted + [sg.MaxAbsFunctionals(functionals)]


def _assert_image_norms_bit_equal(m, X):
    """image_norms gives the bits of the norms of apply's images for a target
    norm of every kind, also in blocks of three rows with a short last one."""
    for spec in _target_norms(m.target.dim):
        lin = sg.LinearMap(m.matrix, m.source, sg.Space(m.target.dim, spec))
        want = sg.norms(lin.target, sg.apply(lin, X)).tobytes()
        assert sg.image_norms(lin, X).tobytes() == want
        assert sg.image_norms(lin, X[:0]).shape == (0,)
        width = m.target.dim
        if isinstance(spec, sg.MaxAbsFunctionals):
            width = max(width, len(spec.functionals))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sg.spaces, "BATCH_ELEMENTS", 3 * width)
            assert sg.image_norms(lin, X).tobytes() == want


def _assert_hull_bit_equal(first, second, X, c, s):
    """apply and blend_apply on the maps' hulls give the bits of the full
    stacked product, of the one-vector product and of its blend, and
    image_norms the bits of the norms of those images."""
    for m in (first, second):
        lo, hi = m.rows.start, m.rows.stop
        assert not m.matrix[:lo].any() and not m.matrix[hi:].any()
        assert m.matrix[m.rows].tobytes() == m.hull.tobytes()
        full = np.matmul(m.matrix, X[:, :, None])[:, :, 0]
        images = sg.apply(m, X)
        assert images.tobytes() == full.tobytes()
        assert [row.tobytes() for row in images] == [apply_scalar(m, x).tobytes() for x in X]
        _assert_image_norms_bit_equal(m, X)
    want = [blend_apply_scalar(*cs, first, second, x).tobytes() for *cs, x in zip(c, s, X)]
    blends = sg.blend_apply(np.array(c), np.array(s), first, second, X)
    assert [row.tobytes() for row in blends] == want
    # blend_norms gives the bits of the norms of those blends
    for spec in _target_norms(first.target.dim):
        target = sg.Space(first.target.dim, spec)
        maps = _retarget(target, first, second)
        want = sg.norms(target, sg.blend_apply(np.array(c), np.array(s), *maps, X)).tobytes()
        assert sg.blend_norms(np.array(c), np.array(s), *maps, X).tobytes() == want


def _retarget(target: sg.Space, *maps) -> list:
    """Each map's hull as a map into target."""
    return [sg.LinearMap.from_band(m.hull, m.rows.start, m.source, target) for m in maps]


def _banded(target_dim: int, source_dim: int, lo: int, rows: np.ndarray) -> sg.LinearMap:
    m = np.zeros((target_dim, source_dim))
    m[lo : lo + len(rows)] = rows
    return sg.LinearMap(m, sg.Space(source_dim), sg.Space(target_dim))


@pytest.mark.parametrize("offset", range(16))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_apply_on_hull_bit_equal_to_full_product(offset, data):
    # the hull's rows keep their place mod 16 in the BLAS kernel's groups of
    # outputs, so each band start mod 16 is its own case; the entries are
    # seeded normal draws (with exact zeros), whose products round
    source_dim = data.draw(st.integers(1, 8))
    target_dim = data.draw(st.integers(offset + 1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def normal(*shape):
        return np.where(rng.random(shape) < 0.1, 0.0, rng.standard_normal(shape))

    maps = []
    for _ in range(2):
        lo = offset + 16 * data.draw(st.integers(0, (target_dim - 1 - offset) // 16))
        width = data.draw(st.integers(1, min(target_dim - lo, 40)))
        maps.append(_banded(target_dim, source_dim, lo, normal(width, source_dim)))
    X = normal(data.draw(st.integers(1, 5)), source_dim)
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X)).tolist()
    _assert_hull_bit_equal(*maps, X, [math.cos(t) for t in angles], [math.sin(t) for t in angles])


@pytest.mark.parametrize(
    "target_dim, support",
    [
        (1, [0]),
        (1, []),
        (17, [16]),
        (33, [32]),
        (273, [272]),
        (273, [271]),
        (40, [0]),
        (40, [39]),
        (16, [15]),
        (97, []),
        (97, range(97)),
        (18, range(18)),
    ],
)
def test_apply_on_hull_edge_cases(target_dim, support):
    # one-row supports (the last row of a dim = 1 mod 16 is a one-row aligned
    # group), the empty hull of a zero matrix and the full matrix
    rng = np.random.default_rng(target_dim)
    maps = []
    for _ in range(2):
        m = np.zeros((target_dim, 3))
        m[list(support)] = rng.standard_normal((len(support), 3))
        maps.append(sg.LinearMap(m, sg.Space(3), sg.Space(target_dim)))
    X = rng.standard_normal((200, 3))
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X)).tolist()
    _assert_hull_bit_equal(*maps, X, [math.cos(t) for t in angles], [math.sin(t) for t in angles])
    if not support:
        assert maps[0].hull.shape == (0, 3)


def _sized(sizes, fn):
    """fn, recording the size of every array it returns in sizes."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sizes.append(out.size)
        return out

    return wrapper


def _temporaries_case(wide: bool):
    """(budget, maps, rows): a lone map whose norm ends in a sum or a max
    has its hull's products for a block, four rows of the 16-row hull in 64
    elements and sixteen rows of a 256-row quadrature hull in 4096. A blend
    of two such maps has a buffer as wide as the union of the hulls beside
    their products: one row of the 16-column union in 64, and two to four
    rows of a union of 512 to 1536 columns in 4096. Any other norm has a
    full-width buffer beside the hulls' products: one row of the 18-wide
    target (20 wide for the functionals' products) in 64, and one or two
    rows of the 1536-wide target in 4096."""
    if wide:
        source = sg.Space(2, sg.Lp(2.0))
        quadrature = spiralglue.bank._quadrature_maps(
            source, sg.Space(1536, sg.Lp(1.0)), 6, sg.QuadratureL2toL1(256, seed=3)
        )
        maps = [m for target in _targets(1536) for m in _retarget(target, *quadrature)]
        return 4096, maps, np.random.default_rng(2).standard_normal((40, 2))
    target_dim = 18
    m = np.zeros((target_dim, 3))
    m[4:10] = np.random.default_rng(1).standard_normal((6, 3))
    X = np.random.default_rng(2).standard_normal((40, 3))
    maps = [
        sg.LinearMap(m, sg.Space(3), sg.Space(target_dim, spec))
        for spec in _target_norms(target_dim)
    ]
    assert len(maps[-1].target.norm.functionals) == 20
    return 64, maps, X


def _assert_temporaries_within_batch(norms_of):
    """norms_of(maps, X) on each case of _temporaries_case at its budget:
    every array of np.matmul and np.zeros stays within the budget, and the
    bits are those of the default blocks."""
    for wide in (False, True):
        budget, maps, X = _temporaries_case(wide)
        want = norms_of(maps, X)
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sg.spaces, "BATCH_ELEMENTS", budget)
            mp.setattr(np, "matmul", _sized(sizes, np.matmul))
            mp.setattr(np, "zeros", _sized(sizes, np.zeros))
            got = norms_of(maps, X)
        assert got == want
        assert sizes and max(sizes) <= budget


def test_image_norms_temporaries_stay_within_batch():
    # the one image buffer and every product of a block
    _assert_temporaries_within_batch(
        lambda maps, X: [sg.image_norms(lin, X).tobytes() for lin in maps]
    )


def _hull_products(hull, rows, fn):
    """fn, recording in rows the row count of every product of `hull`."""

    def wrapper(a, b, *args, **kwargs):
        if a is hull:
            rows.append(len(b))
        return fn(a, b, *args, **kwargs)

    return wrapper


@pytest.mark.parametrize("wide", [False, True])
def test_image_norms_blocks_are_whole_but_the_last(wide):
    # for a target norm of every kind, on the quadrature bank too,
    # image_norms forms the blocks of _hull_layout's row width: only the
    # last block is short
    budget, maps, X = _temporaries_case(wide)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", budget)
        for m in maps:
            images = budget // sg.spaces._hull_layout([m])[1]
            assert images >= 1
            blocks = []
            with pytest.MonkeyPatch.context() as counted:
                counted.setattr(np, "matmul", _hull_products(m.hull, blocks, np.matmul))
                sg.image_norms(m, np.resize(X, (2 * images + 1, X.shape[1])))
            assert blocks == [images, images, 1]


def test_blend_norms_temporaries_stay_within_batch():
    # the one blend buffer and both hulls' products of a block
    def blend_norms(maps, X):
        angles = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, len(X)).tolist()
        c, s = np.cos(angles), np.sin(angles)
        pairs = zip(maps, maps[1:] + maps[:1])
        return [sg.blend_norms(c, s, *pair, X).tobytes() for pair in pairs]

    _assert_temporaries_within_batch(blend_norms)


# ----------------------------------------- the leaves of the pairwise sum


def _pairwise_nodes(width: int) -> list[tuple[int, int]]:
    """Every node (lo, hi) of numpy's pairwise summation tree over `width`
    entries: a range of at most 128 is a leaf, a longer one of n entries
    splits after n // 2 rounded down to a multiple of 8."""
    nodes, todo = [], [(0, width)]
    while todo:
        lo, hi = todo.pop()
        nodes.append((lo, hi))
        if hi - lo > 128:
            mid = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
            todo += [(lo, mid), (mid, hi)]
    return nodes


def _magnitudes(rng, kind: str, shape) -> np.ndarray:
    """Non-negative entries of one kind: below 1, subnormal, near overflow,
    or each entry of a kind drawn at random."""
    if kind == "mixed":
        pick = rng.integers(0, 3, shape)
        parts = [_magnitudes(rng, k, shape) for k in ("unit", "subnormal", "huge")]
        return np.choose(pick, parts)
    if kind == "subnormal":
        return rng.integers(1, 1 << 52, shape, dtype=np.uint64).view(float)
    if kind == "huge":
        return rng.random(shape) * np.finfo(float).max
    return rng.random(shape)


def _leaf_parts(plan) -> list[slice]:
    """The leaf parts of a plan of spaces._leaf_plan, left to right."""
    if isinstance(plan, slice):
        return [plan]
    return [part for half in plan for part in _leaf_parts(half)]


def _leaf_widths(width: int, cols: slice) -> list[int]:
    """The widths of the leaf parts of spaces._leaf_plan(width, cols)."""
    return [p.stop - p.start for p in _leaf_parts(sg.spaces._leaf_plan(width, cols))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_leaf_plan_sum_has_the_bits_of_the_full_width_sum(data):
    # columns as hulls have them: starting at a multiple of 8 (a hull's at a
    # multiple of 16) and stopping at one or capped at the width, so that
    # short leaf parts, a whole narrow row or a leaf's ragged end, are met
    width = data.draw(st.integers(1, 5000))
    align = data.draw(st.sampled_from([16, 8]))
    lo = align * data.draw(st.integers(0, (width - 1) // align))
    hi = min(lo + align * data.draw(st.integers(1, 640 // align)), width)
    rows = data.draw(st.integers(0, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["unit", "subnormal", "huge", "mixed"]))
    a = np.zeros((rows, width))
    a[:, lo:hi] = _magnitudes(rng, kind, (rows, hi - lo))
    a[:, lo:hi][rng.random((rows, hi - lo)) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    if rows:
        a[rng.integers(0, rows)] = 0.0
    plan = sg.spaces._leaf_plan(width, slice(lo, hi))
    # each leaf the columns meet, cut to them, counted from their start
    leaves = [(a0, b0) for a0, b0 in _pairwise_nodes(width) if b0 - a0 <= 128]
    met = sorted((max(a0, lo), min(b0, hi)) for a0, b0 in leaves if a0 < hi and lo < b0)
    assert [(p.start + lo, p.stop + lo) for p in _leaf_parts(plan)] == met
    with np.errstate(over="ignore"):
        got = sg.spaces._plan_sum(np.ascontiguousarray(a[:, lo:hi]), plan)
        assert got.tobytes() == a.sum(axis=1).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dot_window_has_the_bits_of_the_full_width_dot(data):
    # an l2 norm's block holds only the _dot_window of the hulls' union: a
    # row's stacked dot over columns that start at a multiple of 32 and hold
    # every nonzero has the bits of its dot over the whole row, at every
    # width that takes a window (a 16-aligned start fails under OpenBLAS's
    # SkylakeX kernel; OpenBLAS's generic Katmai kernel fails 32 as well)
    width = data.draw(st.integers(1, sg.spaces._DOT_WINDOW_MAX))
    lo = data.draw(st.integers(0, width - 1))
    hi = data.draw(st.integers(lo + 1, width))
    window = sg.spaces._dot_window(slice(lo, hi), width)
    assert window.start % 32 == 0 and window.start <= lo < hi <= window.stop <= width
    assert window.stop == width or window.stop % 32 == 0
    rows = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["unit", "subnormal"]))
    a = np.zeros((rows, width))
    a[:, lo:hi] = _magnitudes(rng, kind, (rows, hi - lo))
    a[:, lo:hi][rng.random((rows, hi - lo)) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
    got = sg.spaces._row_dots(np.ascontiguousarray(a[:, window]))
    assert got.tobytes() == sg.spaces._row_dots(a).tobytes()


@pytest.mark.parametrize("width", [10_000, 10_048])
def test_l2_hull_norms_at_the_window_bound(width):
    # up to 10 000 columns an l2 norm's block is the 32-aligned window of the
    # hulls' union; wider, OpenBLAS splits the dot across threads, and the
    # block keeps every column: either way the norms have the bits of norms
    # of apply's images and of blend_apply's blends
    rng = np.random.default_rng(width)
    source, target = sg.Space(3), sg.Space(width, sg.Lp(2.0))
    # hulls [5008, 5056) and [5056, 5088): the first's window is wider than
    # its hull, the second's is its hull, whose product is then the block
    first = sg.LinearMap.from_band(rng.standard_normal((40, 3)), 5010, source, target)
    second = sg.LinearMap.from_band(rng.standard_normal((24, 3)), 5056, source, target)
    layouts = [sg.spaces._hull_layout(maps)[0] for maps in ([first, second], [first], [second])]
    full = slice(0, width)
    if width <= sg.spaces._DOT_WINDOW_MAX:
        assert layouts == [slice(4992, 5088), slice(4992, 5056), second.rows]
    else:
        assert layouts == [full, full, full]
    X = _rows_with_signed_zeros(rng, 30, 3)
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X))
    c, s = np.cos(angles), np.sin(angles)
    for m in (first, second):
        assert sg.image_norms(m, X).tobytes() == sg.norms(target, sg.apply(m, X)).tobytes()
    want = sg.norms(target, sg.blend_apply(c, s, first, second, X))
    assert sg.blend_norms(c, s, first, second, X).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "width, rows",
    [
        (7, slice(0, 7)),  # a target narrower than 8: one leaf summed entry by entry
        (133, slice(128, 133)),  # the 5-entry ragged end of the leaf [64, 133)
        (1029, slice(1024, 1029)),  # the same at the end of a wider tree
    ],
)
def test_short_leaf_parts_keep_the_bits_of_the_full_width_sum(width, rows):
    # a part shorter than 8 is a whole leaf or a leaf's ragged end, which
    # numpy adds entry by entry after the leaf's zeros: a lone map's norms
    # on its product alone have the bits of norms of its images
    plan = sg.spaces._leaf_plan(width, rows)
    assert _leaf_parts(plan) == [slice(0, rows.stop - rows.start)]
    rng = np.random.default_rng(width)
    a = np.zeros((200, width))
    for k, kind in enumerate(("unit", "subnormal", "huge", "mixed")):
        a[50 * k : 50 * k + 50, rows] = _magnitudes(rng, kind, (50, rows.stop - rows.start))
    with np.errstate(over="ignore"):
        got = sg.spaces._plan_sum(np.ascontiguousarray(a[:, rows]), plan)
        assert got.tobytes() == a.sum(axis=1).tobytes()
    band = rng.standard_normal((rows.stop - rows.start, 2))
    weights = rng.uniform(0.5, 2.0, width)
    specs = (sg.Lp(1.0), sg.Lp(3.0), sg.WeightedLp(1.5, weights), sg.Lp(math.inf))
    for spec in specs:
        target = sg.Space(width, spec)
        m = sg.LinearMap.from_band(band, rows.start, sg.Space(2), target)
        assert m.rows == rows
        assert sg.spaces._hull_layout([m]) == (rows, len(m.hull))
        X = _rows_with_signed_zeros(rng, 40, 2)
        assert sg.image_norms(m, X).tobytes() == sg.norms(target, sg.apply(m, X)).tobytes()


@functools.cache
def _targets(dim: int, max_abs: bool = True) -> list:
    """A dim-wide space for each of _target_norms(dim, max_abs), built once:
    the rank check of a wide max-abs norm takes about a second."""
    return [sg.Space(dim, spec) for spec in _target_norms(dim, max_abs)]


def _assert_hull_norms_bit_equal(first, second, X, angles, max_abs: bool = True):
    """image_norms and blend_norms give the bits of the norms of apply's
    images and of blend_apply's blends, for a target norm of every kind,
    also in blocks of at least three rows with a short last one."""
    c = np.array([math.cos(t) for t in angles])
    s = np.array([math.sin(t) for t in angles])
    for target in _targets(first.target.dim, max_abs):
        maps = _retarget(target, first, second)
        want = [sg.norms(target, sg.apply(m, X)).tobytes() for m in maps]
        want_blend = sg.norms(target, sg.blend_apply(c, s, *maps, X)).tobytes()
        width = sg.spaces._block_width(target) + len(first.hull) + len(second.hull)
        for budget in (sg.spaces.BATCH_ELEMENTS, 3 * width):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sg.spaces, "BATCH_ELEMENTS", budget)
                assert [sg.image_norms(m, X).tobytes() for m in maps] == want
                assert sg.blend_norms(c, s, *maps, X).tobytes() == want_blend


def _rows_with_signed_zeros(rng, k: int, dim: int) -> np.ndarray:
    X = rng.standard_normal((k, dim))
    X[rng.random((k, dim)) < 0.2] = 0.0
    X[rng.random((k, dim)) < 0.2] = -0.0
    X[0] = 0.0
    return X


def test_hull_norms_on_a_wide_quadrature_bank():
    # six 256-row maps in a 1536-wide target, whose tree has leaves of 96
    # columns: a map's hull meets three or four of them, and the union of
    # two hulls, the columns of a blend's block, up to all sixteen, those
    # between two hulls apart holding only zeros
    source, target = sg.Space(2, sg.Lp(2.0)), sg.Space(1536, sg.Lp(1.0))
    spec = sg.QuadratureL2toL1(256, seed=3)
    maps = spiralglue.bank._quadrature_maps(source, target, 6, spec)
    parts = [_leaf_widths(1536, m.rows) for m in maps]
    assert parts == [[96, 96, 64], [32, 96, 96, 32], [64, 96, 96]] * 2
    unions = {
        (0, 1): [96] * 5 + [32],
        (1, 4): [32] + [96] * 10 + [32],
        (2, 3): [64] + [96] * 4 + [64],
        (4, 5): [32] + [96] * 5,
        (3, 3): [96, 96, 64],
        (5, 0): [96] * 16,
    }
    for (i, j), want in unions.items():
        cols, width = sg.spaces._hull_layout([maps[i], maps[j]])
        assert width == cols.stop - cols.start + 512
        assert _leaf_widths(1536, cols) == want
    empty = sg.LinearMap.from_band(np.zeros((1, 2)), 700, source, target)
    rng = np.random.default_rng(11)
    X = _rows_with_signed_zeros(rng, 20, 2)
    # c < 0 and s < 0 on some rows; one pair repeats a map, so the hulls overlap
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X)).tolist()
    for i, j in unions:
        _assert_hull_norms_bit_equal(maps[i], maps[j], X, angles)
    for pair in ((empty, maps[2]), (maps[4], empty), (empty, empty)):
        _assert_hull_norms_bit_equal(*pair, X, angles)


@pytest.mark.parametrize("target_dim", [130, 257, 640, 1100, 4500])
def test_hull_norms_on_block_bands_straddling_a_split(target_dim):
    # bands across the split of a node at every level of the tree, next to
    # it, overlapping each other, and the empty hull; entries include -0.0.
    # The bands at the two ends make a union of every column, whose leaves
    # between them hold only zeros. Past 4096 columns the max-abs norm is
    # left out: its functionals alone would take 160 MB, and its full-width
    # buffer is held at 1536 columns
    max_abs = target_dim <= 4096
    rng = np.random.default_rng(target_dim)
    source_dim = 3
    splits = sorted(
        {lo + (hi - lo) // 2 - (hi - lo) // 2 % 8 for lo, hi in _pairwise_nodes(target_dim)
         if hi - lo > 128}
    )
    assert splits

    def band(lo, hi):
        rows = _rows_with_signed_zeros(rng, hi - lo, source_dim)
        rows[-1] = rng.standard_normal(source_dim)
        return _banded(target_dim, source_dim, lo, rows)

    bands = [band(max(m - 5, 0), min(m + 5, target_dim)) for m in splits]
    bands += [band(0, 4), band(target_dim - 3, target_dim), band(splits[0], splits[0] + 9)]
    bands.append(_banded(target_dim, source_dim, 0, np.zeros((1, source_dim))))
    X = _rows_with_signed_zeros(rng, 12, source_dim)
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X)).tolist()
    for first, second in zip(bands, bands[1:] + bands[:1]):
        _assert_hull_norms_bit_equal(first, second, X, angles, max_abs)
    _assert_hull_norms_bit_equal(bands[0], bands[0], X, angles, max_abs)


def test_row_gain_matches_scalar_and_rejects_non_unit_rows(l1_pipeline):
    g, pts, _ = l1_pipeline
    first, second = g.map_at(1), g.map_at(2)
    rows = pts.coords[1:9] / sg.norms(g.source, pts.coords[1:9])[:, None]
    thetas = np.linspace(0.0, math.pi, len(rows)).tolist()
    got = sg.direction_gain(thetas, rows, first, second)
    assert got.tolist() == [
        direction_gain_scalar(t, u, first, second) for t, u in zip(thetas, rows)
    ]
    bad = rows.copy()
    bad[5] *= 2.0
    want = _outcome(lambda: direction_gain_scalar(thetas[5], bad[5], first, second))
    assert _outcome(lambda: sg.direction_gain(thetas, bad, first, second)) == want
    with pytest.raises(ValueError, match="one angle per row"):
        sg.direction_gain(thetas[:-1], rows, first, second)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_gain_bit_equal_to_per_angle_comprehension(data):
    source = sg.Space(data.draw(st.integers(1, 4)))
    target = sg.Space(data.draw(st.integers(1, 6)), sg.Lp(data.draw(st.sampled_from([1.0, 2.0]))))
    entries = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))
    first, second = (
        sg.LinearMap(
            data.draw(hnp.arrays(float, (target.dim, source.dim), elements=entries)),
            source,
            target,
        )
        for _ in range(2)
    )
    # a few angles, -0.0 and 0.0 among them, each repeated over many rows
    pool = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.just(-0.0), st.just(HALF_PI), st.floats(-7.0, 7.0)),
            min_size=1,
            max_size=4,
        )
    )
    k = data.draw(st.integers(0, 40))
    theta = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    # the rows too come from a few unit rows, so whole (angle, row) rows repeat
    rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        (data.draw(st.integers(1, 4)), source.dim)
    )
    rows /= sg.norms(source, rows)[:, None]
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=k, max_size=k))
    U = rows[picks].reshape(k, source.dim)
    got = sg.direction_gain(theta, U, first, second)
    assert got.tobytes() == direction_gain_all_rows(theta, U, first, second).tobytes()


# ---------------------------------------------------------------- level judge


def level_ok_scalar(bank, checks, n_lo, n_hi, threshold):
    """The per-check loop that the one-call level judge replaced."""
    worst = math.inf
    worst_item = None
    for u, angle in checks:
        val = norm_scalar(
            bank.target,
            blend_apply_scalar(
                math.cos(angle), math.sin(angle), bank.maps[n_lo], bank.maps[n_hi], u
            ),
        )
        if val - threshold < worst:
            worst = val - threshold
            worst_item = (u, angle, val)
    return worst, worst_item


def _verdict(result):
    worst, item = result
    if item is None:
        return repr(worst), None
    u, angle, val = item
    return repr(worst), np.asarray(u).tobytes(), repr(angle), repr(val)


def test_level_judge_matches_check_loop(l1_pipeline):
    g, _, decomp = l1_pipeline
    bank = g.bank
    threshold = blend_threshold(0.01)
    for units, (direction, angle) in zip(decomp.directions, decomp.checks):
        checks = list(zip(units[direction], angle.tolist()))
        worst_u, worst_angle, _ = level_ok_scalar(bank, checks, 0, 1, threshold)[1]
        # -u has the same gain as u: the first of the two tied worst checks wins
        for extra in ([], [(-worst_u, worst_angle)]):
            rows = extra + checks
            packed = (np.array([u for u, _ in rows]), [angle for _, angle in rows])
            for n_lo in range(bank.size):
                for n_hi in range(n_lo + 1, bank.size):
                    want = level_ok_scalar(bank, rows, n_lo, n_hi, threshold)
                    got = _level_ok(bank, packed, n_lo, n_hi, threshold)
                    assert _verdict(got) == _verdict(want)
            if extra:
                assert _verdict(got)[1] == (-worst_u).tobytes()
    empty = (np.empty((0, bank.source.dim)), [])
    assert _level_ok(bank, empty, 0, 1, threshold) == (math.inf, None)


# ---------------------------------------------------------------- ramp angle


def ramp_angle_scalar(sched, level, log_t):
    """The float-only ramp angle that the array form replaced (its result
    cast to float: it returned a numpy scalar on the ramp)."""
    if log_t >= sched.log_R[level - 1]:
        return HALF_PI
    a = sched.params.eps * (log_t - sched.log_r[level - 1])
    if a <= 0.0:
        return 0.0
    return float(min(a, HALF_PI))


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ramp_angle_array_bit_equal_to_float_call(data):
    eps, delta = data.draw(st.floats(0.005, 0.9)), data.draw(st.floats(0.01, 0.9))
    r1, levels = data.draw(st.floats(1e-3, 1e3)), data.draw(st.integers(1, 4))
    sched = sg.build_schedule(sg.Params(eps, delta, 0.01, 0.01), r1, levels)
    level = data.draw(st.integers(1, sched.levels))
    log_r, log_R = float(sched.log_r[level - 1]), float(sched.log_R[level - 1])
    near_edge = st.builds(_ulps, st.sampled_from([log_r, log_R]), st.integers(-3, 3))
    inside = st.floats(log_r - 3.0, log_R + 3.0)
    logs = data.draw(
        st.lists(st.one_of(st.just(-math.inf), near_edge, inside), min_size=1, max_size=12)
    )
    got = ramp_angle_log(sched, level, np.array(logs))
    assert isinstance(got, np.ndarray) and got.shape == (len(logs),)
    want = [repr(ramp_angle_scalar(sched, level, t)) for t in logs]
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    assert [repr(v) for v in got.tolist()] == want
    assert [repr(ramp_angle_log(sched, level, t)) for t in logs] == want
    for t, v in zip(logs, got.tolist()):
        if t <= log_r:
            assert repr(v) == "0.0"
        if t >= log_R:
            assert v == HALF_PI


# ---------------------------------------------------------------- weights and embedding


def active_weights_scalar(sched, log_t):
    """The float-only weight evaluator that the array form replaced."""
    check_log_radius(sched, log_t)
    i = int(np.searchsorted(sched.log_r, log_t, side="left"))
    i = min(max(i, 1), sched.levels)
    angle = ramp_angle_scalar(sched, i, log_t)
    if angle <= 0.0:
        return i, 1.0, 0.0
    if angle >= HALF_PI:
        return i, 0.0, 1.0
    return i, math.cos(angle), math.sin(angle)


def weights_row(sched, log_t):
    """All levels + 1 weights at one log radius: the per-radius row that the
    one-call weight table replaced."""
    level, c, s = active_weights_scalar(sched, log_t)
    row = np.zeros(sched.levels + 1)
    row[level - 1] = c
    row[level] = s
    return row


def embed_point(g, x):
    """The per-point embedding that the row form replaced."""
    nx = norm_scalar(g.source, x)
    level, c, s = active_weights_scalar(g.schedule, math.log(nx) if nx > 0.0 else -math.inf)
    return blend_apply_scalar(c, s, g.map_at(level), g.map_at(level + 1), x)


def write_images_per_point(path, g, pts):
    """The images file as it was written before the report kept the images:
    one embed call per point (embed_all), sorted by id, through _write_json."""
    images = {pid: embed_point(g, row) for pid, row in zip(pts.ids, pts.coords)}
    _write_json(path, {str(k): v.tolist() for k, v in sorted(images.items())})


def log_norms_np(pts):
    """The log norms through numpy's vectorized log, which the per-value
    log_radius rule replaced."""
    n = sg.point_norms(pts)
    out = np.full(n.shape, -math.inf)
    np.log(n, out=out, where=n > 0.0)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_active_weights_array_bit_equal_to_float_call(data):
    eps, delta = data.draw(st.floats(0.005, 0.9)), data.draw(st.floats(0.01, 0.9))
    r1, levels = data.draw(st.floats(1e-3, 1e3)), data.draw(st.integers(1, 4))
    sched = sg.build_schedule(sg.Params(eps, delta, 0.01, 0.01), r1, levels)
    edges = [*sched.log_r.tolist(), *sched.log_R.tolist()]
    near_edge = st.builds(_ulps, st.sampled_from(edges), st.integers(-3, 3))
    inside = st.floats(edges[0] - 3.0, sched.log_coverage)
    logs = data.draw(
        st.lists(st.one_of(st.just(-math.inf), near_edge, inside), min_size=1, max_size=12)
    )
    level, c, s = active_weights_log(sched, np.array(logs))
    # repr tells -0.0 from 0.0 and a numpy scalar from a float or an int
    got = [repr(v) for v in zip(level.tolist(), c.tolist(), s.tolist())]
    want = [repr(active_weights_log(sched, t)) for t in logs]
    assert got == want
    assert want == [repr(active_weights_scalar(sched, t)) for t in logs]
    # beyond coverage: the error of the first offending value, as a float
    beyond = [sched.log_coverage + 1.0, sched.log_coverage + 2.0]
    at = data.draw(st.integers(0, len(logs)))
    mixed = np.array(logs[:at] + beyond + logs[at:])
    with pytest.raises(OutOfScheduleRange) as exc:
        active_weights_log(sched, mixed)
    with pytest.raises(OutOfScheduleRange) as first:
        active_weights_log(sched, np.float64(beyond[0]))
    assert str(exc.value) == str(first.value)
    assert str(exc.value).startswith(f"log norm {beyond[0]!r} exceeds")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_weight_is_the_weight_grid_row_at_its_radius(data):
    # weight takes the float path of active_weights_log, weight_grid the
    # array path: at the same radius they give the same bits
    eps, delta = data.draw(st.floats(0.05, 0.9)), data.draw(st.floats(0.01, 0.9))
    r1, levels = data.draw(st.floats(1e-3, 1e3)), data.draw(st.integers(1, 4))
    sched = sg.build_schedule(sg.Params(eps, delta, 0.01, 0.01), r1, levels)
    edges = [*sched.log_r.tolist(), *sched.log_R.tolist()]
    near_edge = st.builds(_ulps, st.sampled_from(edges), st.integers(-3, 3))
    inside = st.floats(edges[0] - 3.0, sched.log_coverage - 1e-9)
    t = math.exp(data.draw(st.one_of(near_edge, inside)))
    log_t = math.log(t)
    _, table = sg.weight_grid(sched, 2, log_t, log_t)
    want = [repr(w) for w in table[0].tolist()]
    assert [repr(sg.weight(sched, k, t)) for k in range(1, levels + 2)] == want


@pytest.mark.parametrize(
    "eps, delta, levels, grid", [(0.5, 0.1, 3, 1000), (0.01, 0.01, 3, 1000), (0.3, 0.2, 5, 5000)]
)
def test_weight_grid_matches_row_loop(eps, delta, levels, grid):
    sched = sg.build_schedule(sg.Params(eps, delta, 0.01, 0.01), 1.0, levels)
    ts, table = sg.weight_grid(sched, grid)
    logs = np.linspace(sched.log_r[0] - math.log(100.0), sched.log_coverage, grid)
    want = np.array([weights_row(sched, lt) for lt in logs])
    assert table.shape == want.shape and table.tobytes() == want.tobytes()
    assert ts.tobytes() == np.exp(logs).tobytes()
    # weight reads the same table at one radius
    for t in ts[::97].tolist():
        want = weights_row(sched, math.log(t)).tolist()
        assert [repr(sg.weight(sched, k, t)) for k in range(1, levels + 2)] == list(map(repr, want))


@pytest.mark.parametrize("batch", [None, 64], ids=["default-batch", "batch-64"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_embed_bit_equal_to_point_embed(data, batch, wide_ws):
    sched = data.draw(st.sampled_from([wide_ws, _MID_WS]))
    space = data.draw(_spaces())
    placement = data.draw(st.sampled_from(PLACEMENTS))
    per_level = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pts = sg.generate_annular(seed, sched, per_level, space.dim, placement, space.norm)
    if data.draw(st.booleans()):
        pts = sg.make_point_set(space, pts.coords[1:], pts.ids[1:])
    g = _block_glue(space, sched, pts)
    want = [embed_point(g, row) for row in pts.coords]
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
        got = sg.embed(g, pts.coords)
        one = [sg.embed(g, row) for row in pts.coords]
    assert got.shape == (len(pts), g.target.dim)
    assert got.tobytes() == np.array(want).tobytes()
    assert [v.tobytes() for v in one] == [v.tobytes() for v in want]


def test_row_embed_temporaries_stay_within_batch(l1_pipeline, monkeypatch):
    # 64 elements hold one row of the two 18-wide blends: every stacked
    # product of a selected map's hull takes a block of rows, and the images
    # it fills (zeros outside the hull) hold at most a block of rows
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts, _ = l1_pipeline
    hulls = {id(g.map_at(k).hull) for k in range(1, g.schedule.levels + 2)}
    sizes = []
    matmul = np.matmul

    def sized(a, b, *args, **kwargs):
        out = matmul(a, b, *args, **kwargs)
        if id(a) in hulls:
            assert out.size <= b.shape[0] * g.target.dim
            sizes.append((b.size, b.shape[0] * g.target.dim))
        return out

    monkeypatch.setattr(np, "matmul", sized)
    sg.embed(g, pts.coords)
    # one row per block: two stacked products per point
    assert len(sizes) == 2 * len(pts)
    # both blends of a block are alive at once
    assert max(b for b, _ in sizes) <= 64 and max(2 * out for _, out in sizes) <= 64


def test_log_norms_follow_the_log_radius_rule(small_ws, wide_ws):
    # numpy's vectorized log differs from math.log in the last ulp on some
    # inputs, mostly below 1; the log radius is math.log per value
    values = np.random.default_rng(5).uniform(0.0, 2.0, 4000)
    assert log_radius(values).tolist() == [math.log(v) for v in values.tolist()]
    for sched in (small_ws, wide_ws):
        for norm_spec, placement in ((sg.Lp(1.0), "mixed"), (sg.Lp(2.0), "plateau")):
            for seed in (7, 100010, 200013):
                pts = sg.generate_annular(seed, sched, 40, 16, placement, norm_spec)
                got = sg.log_norms(pts)
                norms = sg.point_norms(pts).tolist()
                assert got.tolist() == [math.log(v) if v > 0.0 else -math.inf for v in norms]
                old = log_norms_np(pts)
                assert got[0] == old[0] == -math.inf
                assert np.all(np.abs(got[1:] - old[1:]) <= np.spacing(np.abs(old[1:])))


@pytest.mark.parametrize("placement", ["mixed", "plateau"])
def test_images_file_matches_per_point_writer(tmp_path, placement):
    raw = {
        "source": {"dim": 3, "norm": {"norm": "lp", "p": 2.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "points": {"generator": {"seed": 7, "per_level": 6, "placement": placement}},
        "bank": {"strategy": "block_shift", "count": 6},
        "output": {"images": str(tmp_path / "images.json")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 0
    _, _, g, pts = run_pipeline(parse_config(raw))
    write_images_per_point(str(tmp_path / "want.json"), g, pts)
    assert (tmp_path / "images.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_images_writer_matches_json_dump(tmp_path):
    # 130 ids sort as strings ("10" before "9"); inf and -inf become null
    # and NaN stays NaN, as _write_json writes them
    rng = np.random.default_rng(3)
    ids = rng.permutation(130).tolist() + [-4]
    images = rng.standard_normal((len(ids), 5)) * 10.0 ** rng.integers(-300, 300, (len(ids), 5))
    images[[3, 77, 128], [0, 4, 2]] = [math.inf, -math.inf, math.nan]
    images[5, 1] = -0.0
    images[6, 2] = 5e-324
    # repeated values: each distinct float is formatted once, with -0.0 and
    # 0.0 apart and every NaN and infinity spelled as json writes it
    repeated = rng.choice([0.0, -0.0, 1.5, -2.25e-7, math.inf, -math.inf, math.nan], images.shape)
    for name, values in (("distinct", images), ("repeated", repeated)):
        for k in (0, 1, len(ids)):
            for batch in (None, 64):
                got, want = tmp_path / f"got{k}.json", tmp_path / f"want{k}.json"
                with pytest.MonkeyPatch.context() as mp:
                    if batch is not None:
                        mp.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
                    spiralglue.cli._write_images(str(got), ids[:k], values[:k])
                _write_json(str(want), dict(zip(map(str, ids[:k]), values[:k].tolist())))
                assert got.read_bytes() == want.read_bytes(), (name, k, batch)


def test_run_embeds_once(tmp_path, monkeypatch):
    calls = []

    def counted(g, x):
        calls.append(np.shape(x))
        return sg.embed(g, x)

    def forbidden(*args):
        raise AssertionError("embed_all called on the run path")

    monkeypatch.setattr(spiralglue.verify, "embed", counted)
    monkeypatch.setattr(spiralglue.glue, "embed", counted)
    monkeypatch.setattr(spiralglue.glue, "embed_all", forbidden)
    monkeypatch.setattr(spiralglue.cli, "embed_all", forbidden)
    cfg = {
        "source": {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "points": {"generator": {"seed": 7, "per_level": 6, "placement": "mixed"}},
        "bank": {"strategy": "block_shift", "count": 6},
        "output": {key: str(tmp_path / key) for key in ("report", "pairs_csv", "images")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert calls == [(3 * 6 + 1, 3)]
    images = json.loads((tmp_path / "images").read_text())
    assert len(images) == 3 * 6 + 1


# ---------------------------------------------------------------- pair table


def write_pairs_csv_rows(path, dist):
    """The csv.writer loop over PairCheck objects that the column writer replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_id", "y_id", "class", "ratio", "lower_slack", "upper_slack"])
        for pc in dist.pair_checks:
            floats = (pc.ratio, pc.lower_slack, pc.upper_slack)
            writer.writerow([pc.x_id, pc.y_id, pc.kind, *map(repr, floats)])


def stats_loop(pair_checks):
    """The first-wins loop that the column reductions replaced: the class
    summaries and the pairs of smallest and largest ratio."""
    lo = hi = pair_checks[0]
    stats = {}
    for pc in pair_checks:
        r = pc.ratio
        if r < lo.ratio:
            lo = pc
        if r > hi.ratio:
            hi = pc
        key = pc.kind.split(":")[0]
        s = stats.get(key)
        if s is None:
            stats[key] = [1, r, r, pc.lower_slack, pc.upper_slack]
            continue
        s[0] += 1
        if r < s[1]:
            s[1] = r
        if r > s[2]:
            s[2] = r
        if pc.lower_slack < s[3]:
            s[3] = pc.lower_slack
        if pc.upper_slack < s[4]:
            s[4] = pc.upper_slack
    return {key: sg.verify.ClassSummary(*s) for key, s in stats.items()}, lo, hi


@pytest.fixture(scope="module")
def plateau_pipeline():
    """The glue and points of a plateau-only l2 run whose plateau pairs tie
    at ratio exactly 1.0. The run names no pairs CSV, so its own report keeps
    no pair table: the tests sweep again."""
    cfg = parse_config(
        {
            "source": {"dim": 16, "norm": {"norm": "lp", "p": 2.0}},
            "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
            "points": {"generator": {"seed": 7, "per_level": 12, "placement": "plateau"}},
            "bank": {"strategy": "block_shift", "count": 6},
        }
    )
    _, _, g, pts = run_pipeline(cfg)
    return g, pts


def _reports(l1_pipeline, plateau_pipeline, keep_pairs=True):
    runs = {"mixed-l1": l1_pipeline[:2], "plateau-l2": plateau_pipeline}
    return {
        name: sg.distortion_report(g, pts, keep_pairs=keep_pairs) for name, (g, pts) in runs.items()
    }


def _pair_table(rng, size, ratio, lower, upper):
    """A PairTable of random ids and kinds with the given float columns and
    no sandwich."""
    table = sg.verify.PairTable(size)
    table.x_id[:] = rng.integers(0, 1000, size)
    table.y_id[:] = rng.integers(0, 1000, size)
    table.code[:] = rng.integers(0, 4, size)
    table.level[:] = rng.integers(1, 4, size)
    table.x_level[:] = rng.integers(1, 4, size)
    table.ratio[:], table.lower_slack[:], table.upper_slack[:] = ratio, lower, upper
    for name in ("sigma", "theta", "g_sigma_w", "g_theta_v"):
        getattr(table, name)[:] = math.nan
    return table


def _edge_float_report():
    """A report of only a pair table, of several row blocks with a short last
    one: a column of distinct floats across the float range, one of a few
    repeated values with -0.0 and 0.0, infinities and NaN, and one that mixes
    both."""
    rng = np.random.default_rng(11)
    size = 2 * (sg.spaces.BATCH_ELEMENTS // 6) + 17
    distinct = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = [0.0, -0.0, 1.0, -1.5e-300, 5e-324, math.inf, -math.inf, math.nan]
    repeated = rng.choice(special, size)
    mixed = np.where(rng.random(size) < 0.5, distinct, repeated)
    assert len(np.unique(distinct)) == size
    return SimpleNamespace(pair_checks=_pair_table(rng, size, distinct, repeated, mixed))


def _write_in_blocks(path, dist, cuts):
    """The pairs CSV of a report's pair table, spooled as the sweep spools
    it, with the table cut at cuts, and written from the spool."""
    pairs = spiralglue.cli._PairsSpool()
    size = len(dist.pair_checks)
    try:
        for lo, hi in zip([0, *cuts], [*cuts, size]):
            pairs(dist.pair_checks, slice(lo, hi))
        spiralglue.cli._write_pairs_csv(path, pairs)
    finally:
        pairs.close()


def test_pairs_csv_matches_csv_writer_loop(tmp_path, l1_pipeline, plateau_pipeline):
    reports = {**_reports(l1_pipeline, plateau_pipeline), "edge-floats": _edge_float_report()}
    for name, dist in reports.items():
        # blocks of one row, and blocks across the writer's own row blocks
        size = len(dist.pair_checks)
        _write_in_blocks(str(tmp_path / f"{name}.csv"), dist, [1, 2, size // 3, size - 17])
        write_pairs_csv_rows(str(tmp_path / f"{name}-rows.csv"), dist)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}-rows.csv").read_bytes()
        assert got.count(b"\r\n") == len(dist.pair_checks) + 1
    edge = (tmp_path / "edge-floats.csv").read_bytes()
    assert b",-0.0," in edge and b",nan," in edge and b",-inf\r\n" in edge


def test_class_stats_match_first_wins_loop(l1_pipeline, plateau_pipeline, monkeypatch):
    reports = _reports(l1_pipeline, plateau_pipeline)
    # without the table, the summaries are folded in block by block: blocks
    # of 4 pairs put every class and extreme in many blocks
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    streamed = _reports(l1_pipeline, plateau_pipeline, keep_pairs=False)
    assert {"plateau", "same", "ray", "far"} <= set(reports["mixed-l1"].by_class)
    for name, dist in reports.items():
        by_class, lo, hi = stats_loop(dist.pair_checks)
        for got in (dist, streamed[name]):
            # repr tells a float from a numpy scalar; dicts compare in insertion order
            assert repr(list(got.by_class.items())) == repr(list(by_class.items()))
            assert got.witness_min == (lo.x_id, lo.y_id)
            assert got.witness_max == (hi.x_id, hi.y_id)
            assert repr((got.min_ratio, got.max_ratio)) == repr((lo.ratio, hi.ratio))
            assert repr(got.distortion) == repr(hi.ratio / lo.ratio)
        assert len(streamed[name].pair_checks) == 0
    # ties at both extremes, and most plateau pairs at exactly 1.0
    ratios = reports["plateau-l2"].pair_checks.ratio
    assert np.count_nonzero(ratios == ratios.min()) > 1
    assert np.count_nonzero(ratios == ratios.max()) > 1
    assert np.count_nonzero(ratios == 1.0) > len(ratios) // 2


def test_pair_table_builds_pair_checks_on_demand(l1_pipeline, monkeypatch):
    g, pts, _ = l1_pipeline
    built = []

    def counted(*args):
        built.append(args)
        return sg.PairCheck(*args)

    monkeypatch.setattr(spiralglue.verify, "PairCheck", counted)
    table = sg.distortion_report(g, pts).pair_checks
    n = len(pts)
    assert len(table) == n * (n - 1) // 2 and built == []
    every = list(table)
    assert len(built) == len(every) == len(table)
    assert table[0] == every[0] and table[-1] == every[-1]
    assert table[3:9:2] == tuple(every[3:9:2])
    with pytest.raises(IndexError):
        table[len(every)]
    with pytest.raises(ValueError):
        table.ratio[0] = 2.0
    # the sandwich fields are None exactly where the pair has no sandwich
    assert not pts.coords[0].any()
    for pc in every:
        sandwich = not pc.kind.startswith(("far", "ray")) and pc.y_id != pts.ids[0]
        fields = (pc.sigma, pc.theta, pc.g_sigma_w, pc.g_theta_v)
        assert all((v is not None) == sandwich for v in fields)


def test_run_builds_no_pair_check(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("PairCheck built on the run path")

    monkeypatch.setattr(spiralglue.verify, "PairCheck", forbidden)
    cfg = {
        "source": {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
        "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
        "points": {"generator": {"seed": 7, "per_level": 6, "placement": "mixed"}},
        "bank": {"strategy": "block_shift", "count": 6},
        "output": {key: str(tmp_path / key) for key in ("report", "pairs_csv", "images")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0


def test_tolerance_zero_violation_same_with_and_without_pairs_csv(tmp_path, monkeypatch, capsys):
    # blocks of 4 pairs, so that the first violation lies many blocks into the sweep
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    outcomes = []
    for outputs in (("report",), ("report", "pairs_csv")):
        cfg = {
            "source": {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
            "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
            "points": {"generator": {"seed": 7, "per_level": 13, "placement": "mixed"}},
            "bank": {"strategy": "block_shift", "count": 6},
            "output": {key: str(tmp_path / key) for key in outputs},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--tolerance", "0"])
        report = json.loads((tmp_path / "report").read_text())
        outcomes.append((code, capsys.readouterr(), report["status"], report["error"]))
    assert outcomes[0] == outcomes[1]
    code, printed, status, error = outcomes[0]
    assert (code, status, printed.out) == (1, "BoundViolated", "")
    assert "'plateau_bracket'" in error and "pair (24, 14)" in error
    assert not (tmp_path / "pairs_csv").exists()


def test_sweep_temporaries_stay_within_batch(l1_pipeline, monkeypatch):
    # every array of pairs the sweep forms is blocked: only the per-point
    # arrays (coordinates, images) may exceed the budget
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts, _ = l1_pipeline
    sizes = []

    def sized(fn):
        def wrapper(*args):
            rows = args[1]
            if rows is not pts.coords:
                sizes.append(np.asarray(rows).size)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(spiralglue.verify, "norms", sized(sg.norms))
    monkeypatch.setattr(spiralglue.verify, "direction_gain", sized(sg.direction_gain))
    sg.distortion_report(g, pts)
    assert sizes and max(sizes) <= 64
