"""Batched kernels against the scalar computations they replace.

The row kernel `norms`, the certification kernel `image_norms` and the blend
kernel `blend_norms` on the union of the hulls (against the exact norms,
within their forward error bound), the batched `decompose` with its
sort-and-sweep direction grouping, the certification blocks, the row gain,
the selection's level judge, the array ramp angle and weight evaluator, the
one-call weight table, the row embedding with the images file written from
the report, and the block judge of the pair sweep with its column
reductions and block CSV writer must reproduce the one-at-a-time results
bit for bit. The scalar code kept in this file (decompose's direction scan,
the per-pair judge, the per-check level loop, the float ramp angle and
weight evaluator, the per-radius weight row, the per-point embedding and
images writer, numpy's log of the norms, the first-wins stats loop and the
csv.writer loop over PairCheck objects) serves as oracles, with the
one-vector norm, map image and blend, the full-width row norms and the
per-difference decompose and leader scan of `tests/oracles.py`; the
oracles take each gain through the one-row call of `blend_norms`.
"""

import csv
import dataclasses
import functools
import json
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

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
from spiralglue.pointset import PLACEMENTS
from spiralglue.schedule import (
    HALF_PI,
    active_weights_log,
    check_log_radius,
    log_radius,
    ramp_angle_log,
)
from spiralglue.spaces import screen_norms
from spiralglue.verify import DEFAULT_TOL, SQRT2

from oracles import (
    apply_scalar,
    blend_apply_scalar,
    decompose_first_match,
    direction_gain_all_rows,
    directions_bytes,
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
    # each block holds at most half the element budget (row_blocks at
    # width 2 * dim), so the fold's block and its norms stay within it
    assert max(len(b) for b in blocks) <= sg.spaces.BATCH_ELEMENTS // (2 * 3)
    got = np.concatenate(blocks)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a second pass forms the same blocks anew
    assert np.concatenate(list(certify)).tobytes() == want.tobytes()


def test_certify_array_bit_equal_to_list():
    _assert_blocks_are_list(*_certify_case())


@pytest.mark.parametrize("batch", [64, 100])
def test_certify_blocks_bit_equal_to_list_in_small_blocks(batch, monkeypatch):
    # blocks of at most 21 and 33 rows cut each part (the points, the
    # differences, each level's directions and the random rows, whose draws
    # then come a few at a time) into several blocks
    case = _certify_case()
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
    _assert_blocks_are_list(*case)


@pytest.mark.parametrize("n, width", [(2, 1), (7, 3), (40, 16), (40, 64)])
def test_pair_differences_bit_equal_to_two_gathers(n, width):
    # the one difference kernel of certification and the sweep: each block
    # of row-major pairs, whole and cut anywhere, has the bits of rows[a] -
    # rows[b], -0.0 included
    rows = np.random.default_rng(n).standard_normal((n, 3))
    rows[1::3, 0], rows[2::3, 0] = 0.0, -0.0
    rows[::5, 1] *= 1e-310
    for _, a, b in sg.pointset.pair_blocks(n, width):
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(len(a) // 2, None)):
            got = sg.spaces.pair_differences(rows, a[cut], b[cut])
            assert got.tobytes() == (rows[a[cut]] - rows[b[cut]]).tobytes()


@pytest.mark.parametrize("batch", [16, 1 << 14])
@pytest.mark.parametrize("spec", _SPECS, ids=repr)
def test_pair_difference_norms_bit_equal_to_norms(monkeypatch, spec, batch):
    # the sweep's difference norms, each row block normed in place, have the
    # bits of norms of the differences formed whole, and leave the rows as
    # they were; a small batch cuts the runs of equal a across blocks
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
    space = sg.Space(3, spec)
    rows = np.random.default_rng(3).standard_normal((23, 3))
    rows[1::4, 0], rows[2::4, 1] = 0.0, -0.0
    rows[::5, 2] *= 1e300
    rows.flags.writeable = False
    for _, a, b in sg.pointset.pair_blocks(len(rows), 8):
        got = np.empty(len(a))
        sg.spaces.pair_difference_norms(space, rows, a, b, got, slice(0, 3))
        assert got.tobytes() == sg.norms(space, rows[a] - rows[b]).tobytes()


def test_certify_stream_iterates_twice_with_the_same_blocks(monkeypatch):
    # certification reads the stream once; each iteration forms its blocks
    # anew, random rows included, so a second reader (a memory test that
    # calls build_bank twice on one stream) gets the same blocks, bit for bit
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
    scan over the directions found so far for one of the same bits."""
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
                    if vec.tobytes() == u.tobytes():
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
    # the grouping by distinct_rows reproduces the per-difference loop bit for bit
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
    # differences along one ray agree only up to rounding: each bit pattern
    # is a direction of its own
    sched = small_ws
    base = np.array([0.3, -0.7, 1.1])
    radii = np.exp(np.linspace(sched.log_r[0] - 1.0, sched.log_R[2], 25))
    coords = np.vstack([np.zeros(3), np.outer(radii, base), np.outer(radii[::3], -base[::-1])])
    pts = sg.make_point_set(sg.Space(3, sg.Lp(2.0)), coords)
    _assert_decompositions_agree(pts, sched)


def test_decompose_matches_first_match_at_481_points(wide_ws):
    # about 10 000 directions over three levels, most differences bitwise repeats
    pts = sg.generate_annular(7, wide_ws, 160, 3, "mixed", sg.Lp(1.0))
    dec = sg.decompose(pts, wide_ws)
    want = decompose_first_match(pts, wide_ws)
    assert dec.member_ids == want.member_ids
    assert directions_bytes(dec) == directions_bytes(want)


def test_decompose_matches_first_match_in_a_coordinate_plane(wide_ws):
    # every difference has coordinate 0 equal to 0.0: rows are told apart by
    # their other coordinates alone
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


# ---------------------------------------------------------------- sweep


_SANDWICH_FIELDS = ("sigma", "theta", "g_sigma_w", "g_theta_v")


def sweep_checks(g, pts, tol=DEFAULT_TOL):
    """The sweep's report and its verdict on every pair as PairCheck objects,
    in sweep order: the rows it passes to on_block (`t[rows]`), whose block
    table has no sandwich columns, with the sandwich fields of each pair that
    `_sandwich` judged set to what it returned for the pair (NaN as None, as
    a table with those columns gives them)."""
    checks, gains = [], {}
    sandwich = spiralglue.verify._sandwich

    def recorded(g, level, table, xs, ys, ndiff):
        result = sandwich(g, level, table, xs, ys, ndiff)
        pairs = zip(table.ids[xs].tolist(), table.ids[ys].tolist())
        gains.update(zip(pairs, zip(*(column.tolist() for column in result[:4]))))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.verify, "_sandwich", recorded)
        report = sg.distortion_report(g, pts, tol, on_block=lambda t, rows: checks.extend(t[rows]))
    for j, pc in enumerate(checks):
        values = gains.get((pc.x_id, pc.y_id))
        if values is not None:
            values = (None if math.isnan(v) else v for v in values)
            checks[j] = dataclasses.replace(pc, **dict(zip(_SANDWICH_FIELDS, values)))
    return report, checks


def _check_pairs(g, pts) -> list:
    """check_pair on every pair in the sweep's order: row-major, larger
    source norm first, the smaller id on ties."""
    logs = sg.log_norms(pts)
    ids, coords = pts.ids, pts.coords
    checks = []
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = (a, b) if (logs[a], -ids[a]) >= (logs[b], -ids[b]) else (b, a)
            checks.append(sg.check_pair(g, coords[x], coords[y], ids[x], ids[y]))
    return checks


def _assert_sweep_matches_check_pair(g, pts):
    _, swept = sweep_checks(g, pts)
    expected = _check_pairs(g, pts)
    assert len(swept) == len(expected)
    for got, want in zip(swept, expected):
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


def _blend_gain(theta, u, first, second) -> float:
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u): the one-row
    call of blend_norms."""
    theta = np.array([theta], dtype=float)
    return float(sg.blend_norms(np.cos(theta), np.sin(theta), first, second, u[None])[0])


def direction_gain_scalar(theta, u, first, second):
    """Target norm of cos(theta)*first(u) + sin(theta)*second(u) for unit u."""
    nu = norm_scalar(first.source, u)
    if abs(nu - 1.0) > 1e-12:
        raise ValueError(f"u must be a unit vector, got norm {nu!r}")
    return _blend_gain(theta, np.asarray(u, dtype=float), first, second)


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
                "far_norm_gap", gap / nx, f"pair ({x_id}, {y_id}): |y| > delta |x|", (x_id, y_id)
            )
        lo_gap = ndiff - nx * (1.0 - delta)
        hi_gap = nx * (1.0 + delta) - ndiff
        if min(lo_gap, hi_gap) < -tol * nx:
            raise BoundViolated(
                "far_norm_bracket",
                min(lo_gap, hi_gap) / nx,
                f"pair ({x_id}, {y_id}): |x-y| outside (1 +- delta)|x|",
                (x_id, y_id),
            )
        checks.append(("far_bracket", bounds.l_far, bounds.u_far))

    lower_slack = math.inf
    upper_slack = math.inf
    where = f"pair ({x_id}, {y_id})"
    for name, lo, hi in checks:
        sl, su = ratio - lo, hi - ratio
        if sl < -tol:
            raise BoundViolated(name, sl, f"{where}: ratio {ratio!r} below {lo!r}", (x_id, y_id))
        if su < -tol:
            raise BoundViolated(name, su, f"{where}: ratio {ratio!r} above {hi!r}", (x_id, y_id))
        lower_slack = min(lower_slack, sl)
        upper_slack = min(upper_slack, su)

    return sg.PairCheck(
        x_id, y_id, kind, ratio, sigma, theta, gsw, gtv, lower_slack, upper_slack
    )


def sweep_oracle(g, pts, tol=DEFAULT_TOL):
    """judge_pair on every pair in row-major order, larger source norm first
    (the smaller id on ties), fed the norms the sweep computes; a ValueError
    is prefixed with the pair, as `pair (x_id, y_id): `."""
    bounds = sg.embedding_bounds(g)
    coords, ids = pts.coords, pts.ids
    source_norms = sg.norms(g.source, coords).tolist()
    images = np.array([sg.embed(g, row) for row in coords])
    out = []
    for a in range(len(pts) - 1):
        diff_norms = sg.norms(g.source, coords[a] - coords[a + 1 :]).tolist()
        image_norms = sg.norms(g.target, images[a] - images[a + 1 :]).tolist()
        for b, ndiff, nimage in zip(range(a + 1, len(pts)), diff_norms, image_norms):
            x, y = (a, b) if (source_norms[a], -ids[a]) >= (source_norms[b], -ids[b]) else (b, a)
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
        fields = (getattr(exc, name, None) for name in ("name", "slack", "pair"))
        return (type(exc), str(exc), *fields)


def _fields(pc):
    # repr tells -0.0 from 0.0, None from a value and a numpy scalar from a float
    return tuple(repr(v) for v in dataclasses.astuple(pc))


def _assert_sweep_matches_oracle(g, pts):
    want = _outcome(lambda: sweep_oracle(g, pts))
    got = _outcome(lambda: sweep_checks(g, pts)[1])
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
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
    # every field of the sweep's rows and of its sandwich gains has the bits
    # of check_pair's
    g, pts = plateau_pipeline
    coords = np.vstack([pts.coords, 2.0 * pts.coords[1:5], 4.0 * pts.coords[1:5]])
    rays = sg.make_point_set(pts.space, coords)
    _, got = sweep_checks(g, rays)
    assert [_fields(pc) for pc in got] == [_fields(pc) for pc in _check_pairs(g, rays)]


def test_sweep_reports_a_non_unit_theta_row_as_the_per_pair_judge(plateau_pipeline):
    # a subnormal y = (t, t, 0, ...) has the norm t (sqrt(2) t rounds to t),
    # so its unit row y/|y| = (1, 1, 0, ...) has the norm sqrt(2): its first
    # shared-shell pair raises the per-pair judge's ValueError, named by the
    # sweep and by check_pair; the sweep
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
    # at 64 elements a pair block holds 8 pairs, so the per-point gain tables
    # fill across many blocks. The mixed points, with each of the three
    # smallest nonzero points y also as 2y and 4y on its ray, hit every row
    # case: a difference with the bits of x, sigma 0, sigma pi/2 and sigma
    # on the ramp. Every field of the sweep's rows and of its sandwich gains
    # has the bits of check_pair's and the oracle's
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts, _ = l1_pipeline
    source_norms = sg.norms(g.source, pts.coords)
    small = pts.coords[np.argsort(np.where(source_norms > 0.0, source_norms, math.inf))[:3]]
    coords = np.vstack([pts.coords, 2.0 * small, 4.0 * small])
    rays = sg.make_point_set(pts.space, coords)
    _, checks = sweep_checks(g, rays)
    sandwiched = [pc for pc in checks if pc.sigma is not None]
    sigma = np.array([pc.sigma for pc in sandwiched])
    assert (sigma == 0.0).any() and (sigma == HALF_PI).any()
    assert ((sigma > 0.0) & (sigma < HALF_PI)).any()
    x = coords[[pc.x_id for pc in sandwiched]]
    y = coords[[pc.y_id for pc in sandwiched]]
    at_x = ((x - y).view(np.uint64) == x.view(np.uint64)).all(axis=1)
    assert at_x.any() and not at_x.all()
    got = [_fields(pc) for pc in checks]
    assert got == [_fields(pc) for pc in _check_pairs(g, rays)]
    assert got == [_fields(pc) for pc in sweep_oracle(g, rays)]


def test_sweep_and_check_pair_group_no_rows(l1_pipeline, plateau_pipeline, monkeypatch):
    def grouped(*arrays):
        raise AssertionError("distinct_rows called")

    monkeypatch.setattr(sg.spaces, "distinct_rows", grouped)
    monkeypatch.setattr(spiralglue.verify, "distinct_rows", grouped, raising=False)
    for g, pts in (l1_pipeline[:2], plateau_pipeline):
        sg.distortion_report(g, pts)
        order = np.argsort(sg.norms(g.source, pts.coords))
        x, y = pts.coords[order[-1]], pts.coords[order[-2]]
        assert sg.check_pair(g, x, y).sigma is not None


def test_non_unit_point_raises_at_its_first_pair_after_tables_fill(plateau_pipeline, monkeypatch):
    # the subnormal y of the test above comes last, after 38 points: its
    # first pair, with point 0, is the sweep's pair 37, in the fifth block of
    # 8 pairs, after earlier blocks filled the level's tables. y never
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
    assert _outcome(lambda: sg.distortion_report(g, bad)) == want
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
        # larger than the first point in l2, smaller in l1: the sweep orders
        # each pair by the source (l2) norms that the judge checks, so an l1
        # point set gets the verdict of an l2 one
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
    error = exc.value
    assert (type(error), str(error), error.name, error.slack, error.pair) == want
    # the single pair through check_pair raises the same
    x, y = (pts.coords[0], pts.coords[1])
    assert _outcome(lambda: sg.check_pair(g, x, y, 0, 1)) == want


def test_violation_before_a_value_error_of_its_block_is_raised():
    # the negated case's first pair violates a bracket, and a subnormal
    # point, whose unit row has the norm sqrt(2), raises the judge's
    # ValueError at a later pair of the same block, before any violation is
    # raised: the sweep judges that block one pair at a time, and raises the
    # first pair's violation, as the oracle does
    g, pts = _negated_case(sg.Lp(2.0))
    tiny = np.full(2, 5e-324)
    bad = sg.make_point_set(pts.space, np.vstack([pts.coords, tiny]))
    want = _outcome(lambda: sweep_oracle(g, bad))
    assert want[0] is BoundViolated and want[4] == (0, 1)
    assert _outcome(lambda: sg.distortion_report(g, bad)) == want
    text = f"u must be a unit vector, got norm {math.sqrt(2.0)!r}"
    assert _outcome(lambda: sg.check_pair(g, bad.coords[0], tiny))[:2] == (ValueError, text)


def test_sweep_orders_pairs_by_the_source_norm(l1_pipeline):
    # the l1 run's points taken as points of l2: the sweep orders each pair
    # by the l1 source norms that the judge checks, not by the point set's
    # own norm, and gives the l1 set's rows and summaries. Some pair is
    # ordered otherwise by the l2 norms, which the judge rejected ("caller
    # must order the pair")
    g, pts, _ = l1_pipeline
    as_l2 = sg.make_point_set(sg.Space(3, sg.Lp(2.0)), pts.coords, pts.ids)
    l1, l2 = sg.norms(g.source, pts.coords), sg.norms(as_l2.space, pts.coords)
    a, b = np.triu_indices(len(pts), 1)
    assert ((l1[a] > l1[b]) != (l2[a] > l2[b])).any()
    (want, want_rows), (got, got_rows) = (sweep_checks(g, p) for p in (pts, as_l2))
    assert _summarized(got) == _summarized(want)
    assert [_fields(pc) for pc in got_rows] == [_fields(pc) for pc in want_rows]


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


# the unit roundoff of doubles
_U = 2.0**-53


def _gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u): a sum of n terms, or a dot of n terms, in
    any order has a forward error of at most gamma_n times the sum of the
    terms' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 3-4)."""
    return Fraction(n) * Fraction(_U) / (1 - Fraction(n) * Fraction(_U))


def _assert_images_within_bound(m, X) -> np.ndarray:
    """apply's images of the rows of X, which are zero outside m's hull, and
    each entry on it within gamma_d of the exact product, d = source.dim,
    relative to the sum of its terms' magnitudes: the hull's product rounds
    as any dot of d terms does. The exact products are Fractions."""
    images = sg.apply(m, X)
    outside = np.ones(m.target.dim, dtype=bool)
    outside[m.rows] = False
    assert not images[:, outside].any()
    bound = _gamma(m.source.dim)
    for x, image in zip(X.tolist(), images[:, m.rows].tolist()):
        for row, got in zip(m.hull.tolist(), image):
            terms = [Fraction(a) * Fraction(b) for a, b in zip(row, x)]
            assert abs(Fraction(got) - sum(terms)) <= bound * sum(map(abs, terms))
    return images


def _exact_norm(spec, row) -> Decimal:
    """The lp or weighted lp norm, p in _POWERS, of a float row, from its
    nonzero entries in 60-digit decimal arithmetic: exact up to the root,
    and within 1e-55 of the norm after it."""
    with localcontext(Context(prec=60)):
        cols = np.flatnonzero(row).tolist()
        a = [Decimal(abs(float(row[j]))) for j in cols]
        w = [Decimal(1)] * len(a)
        if isinstance(spec, sg.WeightedLp):
            w = [Decimal(float(spec.weights[j])) for j in cols]
        p = spec.p
        if p == math.inf:
            return max((wj * aj for wj, aj in zip(w, a)), default=Decimal(0))
        power = (lambda v: v * v.sqrt()) if p == 1.5 else (lambda v: v ** int(p))
        total = sum((wj * power(aj) for wj, aj in zip(w, a)), Decimal(0))
        return +(total if p == 1.0 else total.sqrt() if p == 2.0 else total ** (1 / Decimal(p)))


def _assert_norms_within_bound(spec, got, rows, width: int):
    """Each of the norms `got` of `rows` (a row sum, max or dot over `width`
    columns ending each) is within gamma_{width + 10} of the exact norm,
    relative to it. The rescaling, the power and the weights round each
    term by a few units of u, the reduction by gamma_width, and the root
    and the product by the row maximum by a few more."""
    bound = Decimal(float(_gamma(width + 10)))
    for value, row in zip(got.tolist(), rows):
        exact = _exact_norm(spec, row)
        assert abs(Decimal(value) - exact) <= bound * exact


def _union_width(*maps) -> int:
    """The columns from the maps' first hull start to their last hull stop."""
    hulls = [m.rows for m in maps if m.rows.start < m.rows.stop]
    return max(h.stop for h in hulls) - min(h.start for h in hulls) if hulls else 0


def _assert_hull_norms_within_bound(first, second, X, c, s, max_abs=True, exact_rows=None):
    """image_norms and blend_norms of the rows of X, for a target norm of
    every kind: an lp or weighted lp norm within the bound of
    _assert_norms_within_bound of the exact norm of apply's images and of
    blend_apply's blends (on the first exact_rows rows, by default all),
    and so is `norms` of them at full width; a max-abs norm, whose buffer
    is full-width, with the bits of `norms` of them. The bits are those of
    the default blocks also in blocks of three rows with a short last
    one."""
    checked = slice(exact_rows)
    for spec in _target_norms(first.target.dim, max_abs):
        target = sg.Space(first.target.dim, spec)
        maps = _retarget(target, first, second)
        # (the sums formed at full width, their kernel, its leading
        # arguments, the maps whose hulls make the kernel's block)
        cases = [(sg.apply(m, X), sg.image_norms, (m,), [m]) for m in maps]
        blends = sg.blend_apply(c, s, *maps, X)
        cases.append((blends, sg.blend_norms, (c, s, *maps), maps))
        # a map's image norms are its blend with itself at (c, s) = (1, 0):
        # the sums differ from the images only in the sign of a zero
        ones, zeros = np.ones(len(X)), np.zeros(len(X))
        for m in maps:
            assert sg.image_norms(m, X).tobytes() == sg.blend_norms(ones, zeros, m, m, X).tobytes()
        width = sg.spaces._block_width(target) + len(first.hull) + len(second.hull)
        for sums, kernel, args, terms in cases:
            got = kernel(*args, X)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sg.spaces, "BATCH_ELEMENTS", 3 * width)
                assert kernel(*args, X).tobytes() == got.tobytes()
            assert kernel(*args, X[:0]).shape == (0,)
            full = sg.norms(target, sums)
            if isinstance(spec, sg.MaxAbsFunctionals):
                assert got.tobytes() == full.tobytes()
                continue
            _assert_norms_within_bound(spec, got[checked], sums[checked], _union_width(*terms))
            _assert_norms_within_bound(spec, full[checked], sums[checked], target.dim)


def _assert_hull_within_bound(first, second, X, angles):
    """apply on the maps' hulls within the bound of _assert_images_within_bound
    of the exact product, with each row's bits those of the one-vector call;
    blend_apply's rows with the bits of its one-vector call; and the norms
    of images and blends within the bounds of
    _assert_hull_norms_within_bound."""
    c, s = np.cos(angles), np.sin(angles)
    for m in (first, second):
        assert not m.matrix[: m.rows.start].any() and not m.matrix[m.rows.stop :].any()
        assert m.matrix[m.rows].tobytes() == m.hull.tobytes()
        images = _assert_images_within_bound(m, X)
        assert [row.tobytes() for row in images] == [sg.apply(m, x).tobytes() for x in X]
    blends = sg.blend_apply(c, s, first, second, X)
    one = [sg.blend_apply(*cs, first, second, x).tobytes() for *cs, x in zip(c, s, X)]
    assert [row.tobytes() for row in blends] == one
    _assert_hull_norms_within_bound(first, second, X, c, s, exact_rows=12)


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
    # the name is kept from when the images had the full product's bits;
    # bands now start at every offset mod 16 and stop anywhere, and the
    # images and their norms are held to the forward error bounds of the
    # exact product and the exact norms. The entries are seeded normal draws
    # (with exact zeros), whose products round
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
    _assert_hull_within_bound(*maps, X, rng.uniform(0.0, 2.0 * math.pi, len(X)))


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
    # one-row supports, whose one-row hull numpy multiplies by dot, not by
    # the matrix-vector kernel; the empty hull of a zero matrix and the full
    # matrix
    rng = np.random.default_rng(target_dim)
    maps = []
    for _ in range(2):
        m = np.zeros((target_dim, 3))
        m[list(support)] = rng.standard_normal((len(support), 3))
        maps.append(sg.LinearMap(m, sg.Space(3), sg.Space(target_dim)))
    X = rng.standard_normal((200, 3))
    _assert_hull_within_bound(*maps, X, rng.uniform(0.0, 2.0 * math.pi, len(X)))
    support = list(support)
    want = slice(support[0], support[-1] + 1) if support else slice(0, 0)
    assert maps[0].rows == want and maps[0].hull.shape == (want.stop - want.start, 3)


def _alone(x: np.ndarray, offset: int) -> np.ndarray:
    """A one-row array of x's entries, freshly allocated, whose row starts
    offset bytes (0 or 8) past a 16-byte boundary."""
    buffer = np.empty(len(x) + 1)
    at = (offset - buffer.ctypes.data % 16) % 16 // 8
    row = buffer[at : at + len(x)]
    row[:] = x
    assert row.ctypes.data % 16 == offset
    return row[None]


@pytest.mark.parametrize("source_dim", [3, 5, 7, 9])
def test_one_row_hull_products_are_row_invariant(source_dim):
    # numpy multiplies a one-row hull by dot, whose bits under OpenBLAS's
    # generic kernel (OPENBLAS_CORETYPE=Prescott) depend on the row's
    # 16-byte alignment; the rows of an odd width alternate between
    # alignments in a block. Each row's image, image norm and blend norm in
    # a block has the bits of the row alone, at either alignment
    rng = np.random.default_rng(source_dim)
    source, target = sg.Space(source_dim), sg.Space(20, sg.Lp(3.0))
    first, second = (
        sg.LinearMap.from_band(rng.standard_normal((1, source_dim)), start, source, target)
        for start in (7, 12)
    )
    X = rng.standard_normal((64, source_dim))
    c, s = rng.standard_normal((2, len(X)))

    def results(U, rows):
        blend = sg.blend_norms(c[rows], s[rows], first, second, U)
        return sg.apply(first, U), sg.image_norms(first, U), blend

    block = results(X, slice(None))
    for j in range(len(X)):
        want = [v[j : j + 1].tobytes() for v in block]
        for offset in (0, 8):
            assert [v.tobytes() for v in results(_alone(X[j], offset), slice(j, j + 1))] == want


def _sized(sizes, fn):
    """fn, recording the size of every array it returns in sizes."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sizes.append(out.size)
        return out

    return wrapper


def _temporaries_case(wide: bool):
    """(budget, maps, rows): a lone map whose norm is lp or weighted lp has
    its images on the hull beside the hull's products for a block, five
    rows of the 6-row hull in 64 elements and eight rows of a 256-row
    quadrature hull in 4096 (its screen, the products alone: ten and
    sixteen rows). A blend of two such maps has a buffer as wide as the
    union of the hulls beside their products: three rows of the 6-column
    union in 64, and two to four rows of a union of 512 to 1536 columns in
    4096. A max-abs norm has full-width images or a full-width buffer beside
    the hulls' products: one or two rows of the 18-wide target (20 wide for
    the functionals' products) in 64, and one or two rows of the 1536-wide
    target in 4096."""
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


def test_screen_norms_temporaries_stay_within_batch():
    # each block's one product, for every lp and weighted lp target
    _assert_temporaries_within_batch(
        lambda maps, X: [
            screen_norms(lin, X).tobytes()
            for lin in maps
            if not isinstance(lin.target.norm, sg.MaxAbsFunctionals)
        ]
    )


def _hull_products(hull, rows, fn):
    """fn, recording in rows the row count of every product of `hull`."""

    def wrapper(a, b, *args, **kwargs):
        if a is hull:
            rows.append(len(b))
        return fn(a, b, *args, **kwargs)

    return wrapper


def _blocks_case(wide: bool):
    """_temporaries_case, with one more map per target in the narrow case:
    a one-row hull, whose products take a copy of the rows."""
    budget, maps, X = _temporaries_case(wide)
    if not wide:
        band = np.random.default_rng(4).standard_normal((1, X.shape[1]))
        maps += [sg.LinearMap.from_band(band, 9, m.source, m.target) for m in maps]
    return budget, maps, X


@pytest.mark.parametrize("wide", [False, True])
def test_image_norms_blocks_are_whole_but_the_last(wide):
    # for a target norm of every kind, on the quadrature bank and on one-row
    # hulls too, image_norms takes apply's images of each block on the
    # hull's columns (an lp or weighted lp norm, never the target's width)
    # or on every column (max-abs), in blocks whose row width counts the
    # images (or the max-abs functionals' products, when wider), the hull's
    # product and the copy of the rows that a one-row hull takes: only the
    # last block is short
    budget, maps, X = _blocks_case(wide)
    apply = sg.spaces.apply
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", budget)
        for m in maps:
            spec = m.target.norm
            hull = len(m.hull)
            max_abs = isinstance(spec, sg.MaxAbsFunctionals)
            images = m.target.dim if max_abs else hull
            width = (max(images, len(spec.functionals)) if max_abs else images) + hull
            if hull == 1:
                width += m.source.dim + 1
            rows = budget // width
            assert rows >= 1
            seen.add((type(spec), hull, rows))
            blocks, shapes = [], []

            def applied(lin, x, cols=None):
                out = apply(lin, x, cols)
                shapes.append(out.shape)
                return out

            with pytest.MonkeyPatch.context() as counted:
                counted.setattr(np, "matmul", _hull_products(m.hull, blocks, np.matmul))
                counted.setattr(sg.spaces, "apply", applied)
                sg.image_norms(m, np.resize(X, (2 * rows + 1, X.shape[1])))
            assert blocks == [rows, rows, 1]
            assert shapes == [(rows, images), (rows, images), (1, images)]
    max_abs = sg.MaxAbsFunctionals
    if wide:
        # 4096 // (256 + 256) and 4096 // (1538 + 256)
        assert {(kind, rows) for kind, _, rows in seen} == {
            (sg.Lp, 8), (sg.WeightedLp, 8), (max_abs, 2)
        }
    else:
        # 64 // (6 + 6), 64 // (1 + 1 + 3 + 1), 64 // (20 + 6) and
        # 64 // (20 + 1 + 3 + 1)
        assert seen == {
            (sg.Lp, 6, 5), (sg.WeightedLp, 6, 5), (sg.Lp, 1, 10), (sg.WeightedLp, 1, 10),
            (max_abs, 6, 2), (max_abs, 1, 2),
        }


@pytest.mark.parametrize("wide", [False, True])
def test_screen_norms_blocks_hold_batch_over_hull_rows(wide):
    # the screen's one matrix product per block (of the rows and the
    # transposed hull) covers blocks of BATCH_ELEMENTS // len(hull) rows,
    # for every lp and weighted lp target, on the quadrature bank and on
    # one-row hulls too: only the last block is short
    budget, maps, X = _blocks_case(wide)
    matmul = np.matmul
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg.spaces, "BATCH_ELEMENTS", budget)
        for m in maps:
            if isinstance(m.target.norm, sg.MaxAbsFunctionals):
                continue
            rows = budget // len(m.hull)
            seen.add((len(m.hull), rows))
            blocks = []

            def products(a, b, *args, **kwargs):
                if b.base is m.hull:
                    blocks.append(len(a))
                return matmul(a, b, *args, **kwargs)

            with pytest.MonkeyPatch.context() as counted:
                counted.setattr(np, "matmul", products)
                screen_norms(m, np.resize(X, (2 * rows + 1, X.shape[1])))
            assert blocks == [rows, rows, 1]
    assert seen == ({(256, 16)} if wide else {(6, 10), (1, 64)})


def test_blend_norms_temporaries_stay_within_batch():
    # the one blend buffer and both hulls' products of a block
    def blend_norms(maps, X):
        angles = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, len(X)).tolist()
        c, s = np.cos(angles), np.sin(angles)
        pairs = zip(maps, maps[1:] + maps[:1])
        return [sg.blend_norms(c, s, *pair, X).tobytes() for pair in pairs]

    _assert_temporaries_within_batch(blend_norms)


# ------------------------------------------------ hull norms at scale


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


@functools.cache
def _targets(dim: int, max_abs: bool = True) -> list:
    """A dim-wide space for each of _target_norms(dim, max_abs), built once:
    the rank check of a wide max-abs norm takes about a second."""
    return [sg.Space(dim, spec) for spec in _target_norms(dim, max_abs)]


def _rows_with_signed_zeros(rng, k: int, dim: int) -> np.ndarray:
    X = rng.standard_normal((k, dim))
    X[rng.random((k, dim)) < 0.2] = 0.0
    X[rng.random((k, dim)) < 0.2] = -0.0
    X[0] = 0.0
    return X


def test_hull_norms_on_a_wide_quadrature_bank():
    # six 256-row maps in a 1536-wide target: a blend's block is the union
    # of two hulls, up to every column, those between two hulls apart
    # holding only zeros
    source, target = sg.Space(2, sg.Lp(2.0)), sg.Space(1536, sg.Lp(1.0))
    spec = sg.QuadratureL2toL1(256, seed=3)
    maps = spiralglue.bank._quadrature_maps(source, target, 6, spec)
    assert [m.rows for m in maps] == [slice(256 * n, 256 * (n + 1)) for n in range(6)]
    pairs = [(0, 1), (1, 4), (2, 3), (4, 5), (3, 3), (5, 0)]
    for i, j in pairs:
        cols, width = sg.spaces._hull_layout([maps[i], maps[j]])
        lo, hi = 256 * min(i, j), 256 * (max(i, j) + 1)
        assert (cols, width) == (slice(lo, hi), hi - lo + 512)
    empty = sg.LinearMap.from_band(np.zeros((1, 2)), 700, source, target)
    rng = np.random.default_rng(11)
    X = _rows_with_signed_zeros(rng, 20, 2)
    # c < 0 and s < 0 on some rows; one pair repeats a map, so the hulls overlap
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X))
    c, s = np.cos(angles), np.sin(angles)
    for i, j in pairs:
        _assert_hull_norms_within_bound(maps[i], maps[j], X, c, s, exact_rows=6)
    for pair in ((empty, maps[2]), (maps[4], empty), (empty, empty)):
        _assert_hull_norms_within_bound(*pair, X, c, s, exact_rows=6)


@pytest.mark.parametrize("target_dim", [130, 257, 640, 1100, 4500])
def test_hull_norms_on_block_bands_straddling_a_split(target_dim):
    # bands across the split of a node of numpy's pairwise tree over the
    # whole width (where the full-width sum changes its order) at every
    # level, next to it, overlapping each other, and the empty hull; they
    # start and stop off any alignment, and entries include -0.0. The bands
    # at the two ends make a union of every column, which holds only zeros
    # between them. Past 4096 columns the max-abs norm is left out: its
    # functionals alone would take 160 MB, and its full-width buffer is
    # held at 1536 columns
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
    angles = rng.uniform(0.0, 2.0 * math.pi, len(X))
    c, s = np.cos(angles), np.sin(angles)
    for first, second in zip(bands, bands[1:] + bands[:1]):
        _assert_hull_norms_within_bound(first, second, X, c, s, max_abs)
    _assert_hull_norms_within_bound(bands[0], bands[0], X, c, s, max_abs)


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
        val = _blend_gain(angle, u, bank.maps[n_lo], bank.maps[n_hi])
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
    return i, float(np.cos(angle)), float(np.sin(angle))


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


def _assert_row_embed_bit_equal(batch, sched, space, placement, per_level, seed, drop_origin):
    pts = sg.generate_annular(seed, sched, per_level, space.dim, placement, space.norm)
    if drop_origin:
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


@pytest.mark.parametrize("batch", [None, 64], ids=["default-batch", "batch-64"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_embed_bit_equal_to_point_embed(data, batch, wide_ws):
    _assert_row_embed_bit_equal(
        batch,
        data.draw(st.sampled_from([wide_ws, _MID_WS])),
        data.draw(_spaces()),
        data.draw(st.sampled_from(PLACEMENTS)),
        data.draw(st.integers(1, 4)),
        data.draw(st.integers(0, 2**32 - 1)),
        data.draw(st.booleans()),
    )


# draws on which the point oracle once took its root through libm's pow on
# a numpy scalar, which differs by an ulp from numpy's SIMD power on an
# array (the program's root) on some inputs
@pytest.mark.parametrize("batch", [None, 64], ids=["default-batch", "batch-64"])
@pytest.mark.parametrize(
    "space, per_level, seed",
    [(sg.Space(3, sg.Lp(1.5)), 2, 5541), (sg.Space(1, sg.WeightedLp(3.0, [0.001])), 1, 3)],
    ids=["l1.5-seed-5541", "weighted-l3-seed-3"],
)
def test_row_embed_bit_equal_to_point_embed_on_pinned_draws(batch, space, per_level, seed):
    _assert_row_embed_bit_equal(batch, _MID_WS, space, "ramp", per_level, seed, False)


def test_row_embed_temporaries_stay_within_batch(l1_pipeline, monkeypatch):
    # the images are formed on the 12 image columns of the 18-wide target:
    # 64 elements hold two rows of the two 12-wide blends. Every stacked
    # product of a selected map's hull takes a block of rows, and the images
    # it fills (zeros outside the hull) hold at most a block of rows
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    g, pts, _ = l1_pipeline
    cols = g.image_columns
    width = cols.stop - cols.start
    assert (width, g.target.dim) == (12, 18)
    hulls = {id(g.map_at(k).hull) for k in range(1, g.schedule.levels + 2)}
    sizes = []
    matmul = np.matmul

    def sized(a, b, *args, **kwargs):
        out = matmul(a, b, *args, **kwargs)
        if id(a) in hulls:
            assert out.size <= b.shape[0] * width
            sizes.append((b.size, b.shape[0] * width))
        return out

    monkeypatch.setattr(np, "matmul", sized)
    sg.embed(g, pts.coords)
    # two stacked products per row, a block of at most two rows each
    assert sum(b for b, _ in sizes) == 2 * pts.coords.size
    assert len(sizes) < 2 * len(pts)
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
    # a pad writes each row between +0.0 entries, as a report's images on
    # its image columns are written as full rows
    for name, values in (("distinct", images), ("repeated", repeated)):
        for k in (0, 1, len(ids)):
            for batch, pad in ((None, (0, 0)), (64, (0, 0)), (None, (2, 3)), (64, (0, 4))):
                got, want = tmp_path / f"got{k}.json", tmp_path / f"want{k}.json"
                with pytest.MonkeyPatch.context() as mp:
                    if batch is not None:
                        mp.setattr(sg.spaces, "BATCH_ELEMENTS", batch)
                    spiralglue.cli._write_images(str(got), ids[:k], values[:k], pad)
                rows = np.hstack([np.zeros((k, pad[0])), values[:k], np.zeros((k, pad[1]))])
                _write_json(str(want), dict(zip(map(str, ids[:k]), rows.tolist())))
                assert got.read_bytes() == want.read_bytes(), (name, k, batch, pad)


def test_run_embeds_once(tmp_path, monkeypatch):
    # the sweep embeds every point in one call on the image columns, and
    # the full-width embed is not called on the run path
    calls = []

    def counted(name, fn):
        def wrapper(g, x):
            calls.append((name, np.shape(x)))
            return fn(g, x)

        return wrapper

    def forbidden(*args):
        raise AssertionError("embed_all called on the run path")

    for module in (spiralglue.verify, spiralglue.glue):
        monkeypatch.setattr(module, "embed", counted("embed", sg.embed))
        monkeypatch.setattr(module, "embed_window", counted("embed_window", sg.embed_window))
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
    assert calls == [("embed_window", (3 * 6 + 1, 3))]
    images = json.loads((tmp_path / "images").read_text())
    assert len(images) == 3 * 6 + 1


# ---------------------------------------------------------------- pair table


def write_pairs_csv_rows(path, checks):
    """The csv.writer loop over PairCheck objects that the column writer replaced."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_id", "y_id", "class", "ratio", "lower_slack", "upper_slack"])
        for pc in checks:
            floats = (pc.ratio, pc.lower_slack, pc.upper_slack)
            writer.writerow([pc.x_id, pc.y_id, pc.kind, *map(repr, floats)])


def stats_loop(checks):
    """The first-wins loop that the column reductions replaced: the class
    summaries and the pairs of smallest and largest ratio."""
    lo = hi = checks[0]
    stats = {}
    for pc in checks:
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
    at ratio exactly 1.0. The tests sweep again to see its pairs."""
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


def _runs(l1_pipeline, plateau_pipeline):
    return {"mixed-l1": l1_pipeline[:2], "plateau-l2": plateau_pipeline}


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
    for name in _SANDWICH_FIELDS:
        getattr(table, name)[:] = math.nan
    return table


def _edge_float_table():
    """A pair table of twice BATCH_ELEMENTS // 6 rows and 17 more: a column
    of distinct floats across the float range, one of a few repeated values
    with -0.0 and 0.0, infinities and NaN, and one that mixes both."""
    rng = np.random.default_rng(11)
    size = 2 * (sg.spaces.BATCH_ELEMENTS // 6) + 17
    distinct = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    special = [0.0, -0.0, 1.0, -1.5e-300, 5e-324, math.inf, -math.inf, math.nan]
    repeated = rng.choice(special, size)
    mixed = np.where(rng.random(size) < 0.5, distinct, repeated)
    assert len(np.unique(distinct)) == size
    return _pair_table(rng, size, distinct, repeated, mixed)


def _write_spooled(path, blocks):
    """The pairs CSV of the blocks that blocks(on_block) passes to on_block
    as (table, rows), spooled as the sweep spools them, and copied from the
    spool."""
    pairs = spiralglue.cli._PairsSpool()
    try:
        blocks(pairs)
        spiralglue.cli._write_pairs_csv(path, pairs)
    finally:
        pairs.close()


def test_pairs_csv_matches_csv_writer_loop(tmp_path, l1_pipeline, plateau_pipeline):
    table = _edge_float_table()

    def edge_blocks(on_block):
        # blocks of one row, and blocks of thousands of rows
        cuts = [1, 2, len(table) // 3, len(table) - 17]
        for lo, hi in zip([0, *cuts], [*cuts, len(table)]):
            on_block(table, slice(lo, hi))

    cases = {"edge-floats": (edge_blocks, table)}
    for name, (g, pts) in _runs(l1_pipeline, plateau_pipeline).items():
        sweep = functools.partial(sg.distortion_report, g, pts, DEFAULT_TOL)
        cases[name] = (sweep, sweep_checks(g, pts)[1])
    for name, (blocks, checks) in cases.items():
        _write_spooled(str(tmp_path / f"{name}.csv"), blocks)
        write_pairs_csv_rows(str(tmp_path / f"{name}-rows.csv"), checks)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}-rows.csv").read_bytes()
        assert got.count(b"\r\n") == len(checks) + 1
    edge = (tmp_path / "edge-floats.csv").read_bytes()
    assert b",-0.0," in edge and b",nan," in edge and b",-inf\r\n" in edge


def test_class_stats_match_first_wins_loop(l1_pipeline, plateau_pipeline, monkeypatch):
    runs = _runs(l1_pipeline, plateau_pipeline)
    swept = {name: sweep_checks(g, pts) for name, (g, pts) in runs.items()}
    # the summaries are folded in block by block: blocks of 8 pairs put
    # every class and extreme in many blocks
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    small = {name: sg.distortion_report(g, pts) for name, (g, pts) in runs.items()}
    assert {"plateau", "same", "ray", "far"} <= set(swept["mixed-l1"][0].by_class)
    for name, (dist, checks) in swept.items():
        by_class, lo, hi = stats_loop(checks)
        for got in (dist, small[name]):
            # repr tells a float from a numpy scalar; dicts compare in insertion order
            assert repr(list(got.by_class.items())) == repr(list(by_class.items()))
            assert got.witness_min == (lo.x_id, lo.y_id)
            assert got.witness_max == (hi.x_id, hi.y_id)
            assert repr((got.min_ratio, got.max_ratio)) == repr((lo.ratio, hi.ratio))
            assert repr(got.distortion) == repr(hi.ratio / lo.ratio)
    # ties at both extremes, and most plateau pairs at exactly 1.0
    ratios = np.array([pc.ratio for pc in swept["plateau-l2"][1]])
    assert np.count_nonzero(ratios == ratios.min()) > 1
    assert np.count_nonzero(ratios == ratios.max()) > 1
    assert np.count_nonzero(ratios == 1.0) > len(ratios) // 2


@pytest.mark.parametrize("with_nan", [False, True], ids=["ties", "nan"])
def test_summaries_fold_equals_whole_column_reductions(with_nan):
    # the class summaries and witnesses folded in blocks of one row and of
    # hundreds equal reductions over the whole columns: classes in order of
    # first appearance, the first of tied extremes, and NaN propagated (the
    # first NaN ratio is both witnesses, as argmin and argmax take it). The
    # values tie often, and none is -0.0, which no judged column holds
    rng = np.random.default_rng(5)
    size = 2000
    ratio, lower, upper = rng.choice([0.5, 1.0, 2.0, 0.0, math.inf, -math.inf], (3, size))
    if with_nan:
        ratio[[1500, 1700]] = lower[[40, 900]] = math.nan
    table = _pair_table(rng, size, ratio, lower, upper)
    table.code[:] = rng.choice([2, 0, 3], size)
    summaries = sg.verify._Summaries()
    for lo, hi in zip([0, 1, 2, 700], [1, 2, 700, size]):
        summaries.add(table, slice(lo, hi))
    codes, firsts = np.unique(table.code, return_index=True)
    want = {}
    for c in codes[np.argsort(firsts)].tolist():
        of = table.code == c
        extremes = (np.min(ratio[of]), np.max(ratio[of]), np.min(lower[of]), np.min(upper[of]))
        want[sg.verify._CLASSES[c]] = sg.verify.ClassSummary(int(of.sum()), *map(float, extremes))
    assert repr(list(summaries.by_class().items())) == repr(list(want.items()))
    witnesses = [
        (float(ratio[j]), (int(table.x_id[j]), int(table.y_id[j])))
        for j in (int(np.argmin(ratio)), int(np.argmax(ratio)))
    ]
    assert repr(summaries.witnesses) == repr(witnesses)
    assert with_nan == math.isnan(summaries.witnesses[0][0])


def test_pair_table_builds_pair_checks_on_demand(l1_pipeline, monkeypatch):
    g, pts, _ = l1_pipeline
    built = []

    def counted(*args):
        built.append(args)
        return sg.PairCheck(*args)

    monkeypatch.setattr(spiralglue.verify, "PairCheck", counted)
    # at one element a pair, the sweep is one block: its table outlives it
    monkeypatch.setattr(spiralglue.verify, "_PAIR_WIDTH", 1)
    blocks = []
    sg.distortion_report(g, pts, on_block=lambda t, rows: blocks.append((t, rows)))
    n = len(pts)
    [(table, rows)] = blocks
    assert rows == slice(0, n * (n - 1) // 2) and len(table) == rows.stop
    assert built == []
    every = list(table)
    assert len(built) == len(every) == len(table)
    assert table[0] == every[0] and table[-1] == every[-1]
    assert table[3:9:2] == tuple(every[3:9:2])
    with pytest.raises(IndexError):
        table[len(every)]
    # the sweep's table has no sandwich columns, and its PairChecks hold
    # None there; _sandwich judges exactly the pairs that have a sandwich
    blank = dict.fromkeys(_SANDWICH_FIELDS)
    assert all(getattr(table, name) is None for name in _SANDWICH_FIELDS)
    _, checks = sweep_checks(g, pts)
    assert every == [dataclasses.replace(pc, **blank) for pc in checks]
    assert not pts.coords[0].any()
    for pc in checks:
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
    # blocks of 8 pairs, so that the first violation lies many blocks into the sweep
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


def _summarized(dist) -> str:
    """The class summaries and witnesses of a report, by repr."""
    return repr(
        (dist.by_class, dist.witness_min, dist.witness_max, dist.min_ratio, dist.max_ratio)
    )


def _swept(g, pts, pair_block):
    """What a sweep in pair blocks of pair_block pairs gives: its spooled
    pairs CSV bytes, the class summaries and witnesses of it and of a
    sweep that records its sandwich gains, every field of the recorded
    rows (sweep_checks), and the outcome of a sweep at tolerance 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiralglue.verify, "_PAIR_WIDTH", sg.spaces.BATCH_ELEMENTS // pair_block)
        spool = spiralglue.cli._PairsSpool()
        try:
            streamed = sg.distortion_report(g, pts, on_block=spool)
            spool.fh.seek(0)
            spooled = spool.fh.read()
        finally:
            spool.close()
        recorded, checks = sweep_checks(g, pts)
        strict = _outcome(lambda: _summarized(sg.distortion_report(g, pts, tol=0.0)))
    summaries = [_summarized(dist) for dist in (streamed, recorded)]
    return spooled, summaries, [_fields(pc) for pc in checks], strict


@pytest.fixture(scope="module")
def default_sweeps(l1_pipeline, plateau_pipeline):
    runs = _runs(l1_pipeline, plateau_pipeline)
    return runs, {name: _swept(g, pts, 2048) for name, (g, pts) in runs.items()}


_PRIMES = [p for p in range(2, 128) if all(p % d for d in range(2, p))]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_pair_block_size_moves_nothing(data, default_sweeps):
    # the kernels are row-wise and the summaries equal whole-sweep
    # reductions, so one pair a block, a prime count, the default 2048 and
    # one whole block give the same spool, summaries, rows and error at
    # tolerance 0
    runs, want = default_sweeps
    name = data.draw(st.sampled_from(sorted(runs)))
    g, pts = runs[name]
    pairs = len(pts) * (len(pts) - 1) // 2
    pair_block = data.draw(st.sampled_from([1, data.draw(st.sampled_from(_PRIMES)), 2048, pairs]))
    width = sg.spaces.BATCH_ELEMENTS // pair_block
    # the drawn width gives blocks of pair_block pairs, or one whole block
    assert next(sg.spaces.row_blocks(pairs, width)).stop == min(pair_block, pairs)
    got = _swept(g, pts, pair_block)
    assert got == want[name]
    spooled, summaries, rows, strict = got
    assert spooled.count(b"\r\n") == len(rows) == pairs
    assert summaries[0] == summaries[1]
    # the plateau pairs' ratios against 1 rest on the BLAS kernel's bits,
    # so only the l1 run's violation is the same under every kernel
    if name == "mixed-l1":
        assert strict[0] is BoundViolated and strict[2] == "plateau_bracket"
        assert strict[4] == (24, 14)
