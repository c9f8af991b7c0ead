"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import math
import time

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.cli import main as cli_main
from spiralglue.errors import BankExhausted
from spiralglue.schedule import active_weights_log, log_radius, ramp_angle_log

SQRT2 = math.sqrt(2.0)
RATIO_AT_001 = 3.252893793614469  # closed forms at eps = delta = gamma = zeta = 0.01


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _certify_vectors(pts, decomp):
    vecs = [row for row in pts.coords if np.any(row)]
    n = len(pts)
    for a in range(n):
        for b in range(a + 1, n):
            vecs.append(pts.coords[a] - pts.coords[b])
    for dirs in decomp.directions:
        vecs.extend(dirs)
    return vecs


def test_criterion_1_end_to_end_distortion():
    t0 = time.perf_counter()
    params = sg.Params(0.01, 0.01, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 3)
    source = sg.Space(3, sg.Lp(1.0))
    target = sg.Space(18, sg.Lp(1.0))
    pts = sg.generate_annular(7, sched, 13, 3, "mixed", sg.Lp(1.0))
    assert 30 <= len(pts) <= 60
    decomp = sg.decompose(pts, sched)
    bank = sg.build_bank(sg.BlockShift(), source, target, params.gamma, 6, _certify_vectors(pts, decomp))
    selection = sg.select_subsequence(bank, decomp, params.zeta)
    g = sg.GlueEmbedding(sched, bank, selection)
    rep = sg.distortion_report(g, pts)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.distortion <= rep.bounds.ratio + 1e-9
        and abs(rep.bounds.ratio - RATIO_AT_001) <= 1e-9
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"distortion {rep.distortion:.6f} <= bound {rep.bounds.ratio:.6f} "
        f"over {sum(c.count for c in rep.by_class.values())} pairs ({elapsed:.2f}s)",
    )


def test_criterion_2_limit_to_three():
    t0 = time.perf_counter()
    ok = True
    worst = None
    for target in (2.0, 1.0, 0.5, 0.1, 0.01):
        params = sg.solve_params(target)
        ratio = sg.theoretical_bounds(params).ratio
        if ratio > 3.0 + target:
            ok = False
            worst = f"target {target}: ratio {ratio}"
    ratios = []
    for k in range(21):
        s = 0.01 * 2.0**-k
        ratios.append(sg.theoretical_bounds(sg.Params(s, s, s, s)).ratio)
    mono = all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
    above = all(r >= 3.0 - 1e-9 for r in ratios)
    ok = ok and mono and above and ratios[-1] - 3.0 <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        2,
        ok,
        worst
        or f"solved targets pass; ratio {ratios[0]:.6f} -> {ratios[-1]:.9f} "
        f"monotone toward 3 ({elapsed:.2f}s)",
    )


def test_criterion_3_pair_sandwich_and_identity():
    t0 = time.perf_counter()
    rep = sg.fuzz_pair_inequalities(1, 1000)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.min_lower_slack >= -1e-9
        and rep.min_upper_slack >= -1e-9
        and rep.max_identity_residual <= 1e-9
        and elapsed < 10.0
    )
    _report(
        3,
        ok,
        f"1000 fuzzed pairs: slacks >= ({rep.min_lower_slack:.2e}, {rep.min_upper_slack:.2e}), "
        f"identity residual {rep.max_identity_residual:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_4_spreading_lower_bounds():
    t0 = time.perf_counter()
    worst_gap = math.inf
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        src = sg.Space(3, sg.Lp(p))
        tgt = sg.Space(24, sg.Lp(p))
        bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 8, [np.ones(3)])
        u = np.array([1.0, -2.0, 0.5])
        u = u / sg.norm(src, u)
        for tau in np.linspace(0.0, math.pi / 2.0, 100):
            c, s = math.cos(tau), math.sin(tau)
            est = sg.spreading_limit_estimate(bank, u, (c, s), tol=1e-9)
            worst_gap = min(worst_gap, est - sg.spreading_lower_bound(c, s))
    value, arg = sg.spreading_bound_minimum(10001)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gap >= -1e-9
        and abs(value - SQRT2 / 3.0) <= 1e-6
        and abs(arg - math.pi / 4.0) <= 1e-3
        and elapsed < 5.0
    )
    _report(
        4,
        ok,
        f"all estimates clear the closed-form bound by {worst_gap:.2e}; "
        f"grid minimum {value:.7f} at {arg:.7f} ({elapsed:.2f}s)",
    )


def test_criterion_5_plateau_isometry():
    t0 = time.perf_counter()
    # eps small enough that the attached closed-form bounds stay positive
    params = sg.Params(0.1, 0.05, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 3)
    source = sg.Space(3, sg.Lp(1.0))
    target = sg.Space(15, sg.Lp(1.0))
    # all points in the single plateau [R_1, r_2], plus the origin
    rng = np.random.default_rng(19)
    rows = [np.zeros(3)]
    for _ in range(12):
        lt = rng.uniform(sched.log_R[0] + 0.05, sched.log_r[1] - 0.05)
        d = rng.standard_normal(3)
        rows.append(d * math.exp(lt - math.log(sg.norm(source, d))))
    pts = sg.make_point_set(source, np.asarray(rows))
    decomp = sg.decompose(pts, sched)
    bank = sg.build_bank(
        sg.BlockShift(), source, target, 0.0, 5, _certify_vectors(pts, decomp)
    )
    assert all(e == 0.0 for e in bank.eps_n)
    selection = sg.select_subsequence(bank, decomp, params.zeta)
    g = sg.GlueEmbedding(sched, bank, selection)
    checks = []
    rep = sg.distortion_report(g, pts, on_block=lambda t, rows: checks.extend(t[rows]))
    in_bracket = all(1.0 - 1e-12 <= pc.ratio <= 1.0 + bank.gamma + 1e-12 for pc in checks)
    elapsed = time.perf_counter() - t0
    ok = in_bracket and abs(rep.distortion - 1.0) <= 1e-12 and elapsed < 1.0
    _report(
        5,
        ok,
        f"all {len(checks)} ratios in [1, 1+gamma] with gamma=0; "
        f"distortion - 1 = {rep.distortion - 1.0:.2e} ({elapsed:.2f}s)",
    )


def test_criterion_6_weight_system_laws():
    t0 = time.perf_counter()
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 3)
    eps = params.eps
    ts, table = sg.weight_grid(sched, 10_000)
    sq = (table**2).sum(axis=1)
    partition_ok = bool(np.max(np.abs(sq - 1.0)) <= 1e-12)

    # condition on the paired weight slopes, via linear-domain central
    # differences: the weights and ramp angles at t -+ h come from the array
    # forms of the weight evaluator and the ramp angle, each entry bit-equal
    # to the float calls weight(sched, i, t) and ramp_angle(sched, i, t)
    def weights(i, t):
        level, c, s = active_weights_log(sched, log_radius(t))
        return np.where(level == i, c, np.where(level + 1 == i, s, 0.0))

    slope_ok = True
    angle_ok = True
    for i in range(1, 4):
        t = np.exp(np.linspace(sched.log_r[i - 1] + 1e-4, sched.log_R[i - 1] - 1e-4, 1000))
        h = t * 1e-6
        d_lo = (weights(i, t + h) - weights(i, t - h)) / (2 * h)
        d_hi = (weights(i + 1, t + h) - weights(i + 1, t - h)) / (2 * h)
        if np.any(np.hypot(d_lo, d_hi) > eps / t + 1e-6):
            slope_ok = False
        up, down = (ramp_angle_log(sched, i, log_radius(v)) for v in (t + h, t - h))
        da = (up - down) / (2 * h)
        if not np.all((-1e-9 <= da) & (da <= eps / t + 1e-6)):
            angle_ok = False

    # supports and plateaus hold exactly on the grid
    logs = np.log(ts)
    support_ok = True
    monotone_ok = True
    for i in range(1, 5):
        lo = sched.log_r[i - 2] if i >= 2 else -math.inf
        hi = sched.log_R[i - 1] if i <= 3 else sched.log_coverage
        col = table[:, i - 1]
        pad = 1e-9
        outside = (logs < lo - pad) | (logs > hi + pad)
        if np.any(col[outside] != 0.0):
            support_ok = False
        if i >= 2:
            p_hi = sched.log_r[i - 1] if i <= 3 else sched.log_coverage
            plateau = (logs > sched.log_R[i - 2] + pad) & (logs < p_hi - pad)
            if np.any(col[plateau] != 1.0):
                support_ok = False
        else:
            plateau = logs < sched.log_r[0] - pad
            if np.any(col[plateau] != 1.0):
                support_ok = False
        if i <= 3:
            falling = col[(logs > sched.log_r[i - 1] + pad) & (logs < sched.log_R[i - 1] - pad)]
            if np.any(np.diff(falling) > 0.0):
                monotone_ok = False
        if i >= 2:
            rising = table[:, i - 1][
                (logs > sched.log_r[i - 2] + pad) & (logs < sched.log_R[i - 2] - pad)
            ]
            if np.any(np.diff(rising) < 0.0):
                monotone_ok = False

    elapsed = time.perf_counter() - t0
    ok = partition_ok and slope_ok and angle_ok and support_ok and monotone_ok and elapsed < 1.0
    _report(
        6,
        ok,
        f"partition defect {np.max(np.abs(sq - 1.0)):.2e}; slope caps and exact "
        f"support/monotonicity hold on 10^4 grid ({elapsed:.2f}s)",
    )


def test_criterion_7_failure_mode_fidelity(tmp_path):
    t0 = time.perf_counter()
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 1)
    src = sg.Space(2, sg.Lp(2.0))
    bank = sg.build_bank(
        sg.UserMatrices((np.eye(2), -np.eye(2))), src, src, 0.01, 2, [np.ones(2)]
    )
    x = [math.exp(0.5 * math.pi), 0.0]  # ramp angle exactly pi/4
    pts = sg.make_point_set(src, [x, [0.0, 0.0]])
    decomp = sg.decompose(pts, sched)
    exhausted = False
    angle = None
    try:
        sg.select_subsequence(bank, decomp, params.zeta)
    except BankExhausted as exc:
        exhausted = True
        angle = exc.angle

    import json

    cfg = {
        "source": {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        "params": {"eps": 0.5, "delta": 0.1, "gamma": 0.01, "zeta": 0.01},
        "schedule": {"r1": 1.0, "levels": 1, "margin": 0.01},
        "points": {"inline": [x, [0.0, 0.0]]},
        "bank": {
            "strategy": "user_matrices",
            "count": 2,
            "matrices": [np.eye(2).tolist(), (-np.eye(2)).tolist()],
        },
        "output": {"report": str(tmp_path / "report.json")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - t0
    ok = (
        exhausted
        and angle == pytest.approx(math.pi / 4.0, rel=1e-12)
        and rc != 0
        and elapsed < 1.0
    )
    _report(
        7,
        ok,
        f"negated-pair bank exhausted at angle {angle!r}; CLI exit {rc} ({elapsed:.2f}s)",
    )
