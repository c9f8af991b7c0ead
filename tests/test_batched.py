"""Batched kernels against the scalar computations they replace.

The row kernel `norms`, the batched `decompose`, the certification array and
the pair sweep must reproduce the one-vector-at-a-time results. The scalar
scans kept in this file serve as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spiralglue as sg
from spiralglue.cli import _certify_vectors, parse_config, run_pipeline
from spiralglue.errors import CertificationFailed, DimensionMismatch
from spiralglue.pointset import _DIR_TOL
from spiralglue.schedule import _check_log_t, _ramp_angle_log

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
        assert _close(value, sg.norm(space, row))


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
        assert _close(value, sg.norm(space, row))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_norms_across_row_blocks(p):
    # wide rows: the kernel works through several blocks of BATCH_ELEMENTS
    space = sg.Space(1536, sg.Lp(p))
    X = np.random.default_rng(3).standard_normal((40, 1536))
    assert 40 * 1536 > 2 * sg.spaces.BATCH_ELEMENTS
    got = sg.norms(space, X)
    assert [sg.norm(space, row) for row in X] == got.tolist()


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
        for da in level_dirs:
            vecs.append(da.u)
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


def test_certify_array_bit_equal_to_list():
    cfg = _config(3, {"norm": "lp", "p": 1.0}, {"strategy": "block_shift"}, 12)
    sched = sg.build_schedule(cfg.params, cfg.r1, cfg.levels, cfg.margin)
    pts = sg.generate_annular(7, sched, 12, 3, "mixed", cfg.source.norm)
    decomp = sg.decompose(pts, sched)
    got = _certify_vectors(cfg, pts, decomp)
    want = np.array(_certify_list(cfg, pts, decomp))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- decompose


def decompose_scan(pts, sched):
    """The pair-by-pair decompose: a scalar norm per difference and a linear
    scan over the directions found so far."""
    m = sched.levels
    logs = sg.log_norms(pts)
    for ln in logs:
        _check_log_t(sched, ln)
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
            angle = _ramp_angle_log(sched, level, logs_here[a])
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
    for got_level, want_level in zip(dec.directions, dirs):
        for got, (u, angles) in zip(got_level, want_level):
            assert got.angles == angles
            assert np.max(np.abs(got.u - u)) <= 1e-15 * max(1.0, np.max(np.abs(u)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decompose_matches_scan(data, small_ws, wide_ws):
    sched = data.draw(st.sampled_from([small_ws, wide_ws])).schedule
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
    sched = small_ws.schedule
    base = np.array([0.3, -0.7, 1.1])
    radii = np.exp(np.linspace(sched.log_r[0] - 1.0, sched.log_R[2], 25))
    coords = np.vstack([np.zeros(3), np.outer(radii, base), np.outer(radii[::3], -base[::-1])])
    pts = sg.make_point_set(sg.Space(3, sg.Lp(2.0)), coords)
    _assert_decompositions_agree(pts, sched)


# ---------------------------------------------------------------- sweep


def _assert_sweep_matches_check_pair(g, pts):
    rep = sg.distortion_report(g, pts)
    logs = sg.log_norms(pts)
    ids, coords = pts.ids, pts.coords
    expected = []
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            x, y = (a, b) if (logs[a], -ids[a]) >= (logs[b], -ids[b]) else (b, a)
            expected.append(sg.check_pair(g, coords[x], coords[y], ids[x], ids[y]))
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
