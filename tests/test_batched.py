"""Batched kernels against the scalar computations they replace.

The row kernel `norms`, the batched `decompose`, the certification array,
the row gain and the row judge of the pair sweep must reproduce the
one-vector-at-a-time results. The scalar scans kept in this file (decompose's
direction scan and the per-pair judge) serve as oracles.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spiralglue as sg
from spiralglue.bank import blend_threshold
from spiralglue.cli import _certify_vectors, parse_config, run_pipeline
from spiralglue.errors import BoundViolated, CertificationFailed, DimensionMismatch
from spiralglue.pointset import _DIR_TOL
from spiralglue.schedule import check_log_radius, log_radius, ramp_angle_log, sandwich_angles
from spiralglue.verify import DEFAULT_TOL, SQRT2

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
    for got_level, want_level in zip(dec.directions, dirs):
        for got, (u, angles) in zip(got_level, want_level):
            assert got.angles == angles
            assert np.max(np.abs(got.u - u)) <= 1e-15 * max(1.0, np.max(np.abs(u)))


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
    nu = sg.norm(first.source, u)
    if abs(nu - 1.0) > 1e-12:
        raise ValueError(f"u must be a unit vector, got norm {nu!r}")
    return sg.norm(
        first.target, sg.blend_apply(math.cos(theta), math.sin(theta), first, second, u)
    )


def judge_pair(g, bounds, x, y, nx, ny, ndiff, nimage, x_id, y_id, tol):
    """The per-pair judge that the row judge replaced: check_pair's verdict,
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
    smaller id on ties), fed the norms the sweep computes."""
    bounds = sg.embedding_bounds(g)
    coords, ids = pts.coords, pts.ids
    source_norms = sg.norms(g.source, coords).tolist()
    own = [log_radius(v) for v in sg.norms(pts.space, coords).tolist()]
    images = np.array([sg.embed(g, row) for row in coords])
    out = []
    for a in range(len(pts) - 1):
        diff_norms = sg.norms(g.source, coords[a] - coords[a + 1 :]).tolist()
        image_norms = sg.norms(g.target, images[a] - images[a + 1 :]).tolist()
        for b, ndiff, nimage in zip(range(a + 1, len(pts)), diff_norms, image_norms):
            x, y = (a, b) if (own[a], -ids[a]) >= (own[b], -ids[b]) else (b, a)
            out.append(
                judge_pair(
                    g, bounds, coords[x], coords[y], source_norms[x], source_norms[y],
                    ndiff, nimage, ids[x], ids[y], tol,
                )
            )
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
    dirs = [da.u for level in decomp.directions for da in level]
    certify = np.vstack([pts.coords, pts.coords[first] - pts.coords[second], *dirs])
    bank = sg.build_bank(sg.BlockShift(), space, target, sched.params.gamma, count, certify)
    return sg.GlueEmbedding(sched, bank, sg.select_subsequence(bank, decomp, sched.params.zeta))


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


@pytest.mark.parametrize("own_norm", [sg.Lp(2.0), sg.Lp(1.0)], ids=["l2", "l1"])
def test_failure_matches_scalar_judge(own_norm):
    sched = sg.build_schedule(sg.Params(0.1, 0.1, 0.01, 0.01), 1.0, 1)
    g = _negated_glue(sched)
    quarter = math.exp(0.25 * math.pi / 0.1)  # ramp angle pi/4: the image vanishes
    coords = [
        quarter * np.array([1.0, 1.0]) / math.sqrt(2.0),
        math.exp(5.0) * np.array([0.6, -0.8]),
        np.zeros(2),
        # larger than the first point in l2, smaller in l1: ordered by an l1
        # point set, this pair fails the order check after the rows above
        1.2 * quarter * np.array([1.0, 0.0]),
    ]
    pts = sg.make_point_set(sg.Space(2, own_norm), coords)
    want = _outcome(lambda: sweep_oracle(g, pts))
    assert want[0] is BoundViolated and want[3] < 0.0
    with pytest.raises(BoundViolated) as exc:
        sg.distortion_report(g, pts)
    assert (type(exc.value), str(exc.value), exc.value.name, exc.value.slack) == want
    # the single pair through check_pair raises the same
    x, y = (pts.coords[0], pts.coords[1])
    assert _outcome(lambda: sg.check_pair(g, x, y, 0, 1)) == want


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
