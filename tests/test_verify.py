import math

import numpy as np
import pytest

import spiralglue as sg
import spiralglue.verify
from spiralglue.errors import BoundViolated, NonPositiveLowerBound
from spiralglue.verify import FuzzReport, _fuzz_banks, _points, _sandwich

from oracles import (
    SameLevel,
    blend_decomposition_residual_scalar,
    classify_lognorms,
    level_map_scalar,
)

SQRT2 = math.sqrt(2.0)
# closed forms evaluated independently ahead of time at eps=delta=gamma=zeta=0.01
RATIO_AT_001 = 3.252893793614469


def test_bounds_frozen_value():
    b = sg.theoretical_bounds(sg.Params(0.01, 0.01, 0.01, 0.01))
    assert b.l_same == pytest.approx(0.4524535923180829, rel=1e-14)
    assert b.u_same == pytest.approx(1.4426392549767943, rel=1e-14)
    assert b.l_far == pytest.approx(0.4479738537802801, rel=1e-14)
    assert b.u_far == pytest.approx(1.4572113686634287, rel=1e-14)
    assert b.ratio == pytest.approx(RATIO_AT_001, rel=1e-14)


def test_bounds_limit_toward_three():
    prev = None
    for k in range(21):
        s = 0.01 * 2.0**-k
        ratio = sg.theoretical_bounds(sg.Params(s, s, s, s)).ratio
        assert ratio >= 3.0 - 1e-9
        if prev is not None:
            assert ratio <= prev + 1e-9
        prev = ratio
    assert prev - 3.0 <= 1e-6


def test_bounds_nonpositive_lower_bound():
    with pytest.raises(NonPositiveLowerBound):
        sg.theoretical_bounds(sg.Params(0.9, 0.01, 0.01, 0.01))
    with pytest.raises(NonPositiveLowerBound):
        sg.bounds_from_values(0.01, 0.5, 0.01, 0.01)


def test_bounds_level_independent_of_artifacts(l1_pipeline):
    g, _, _ = l1_pipeline
    b = sg.embedding_bounds(g)
    sched = g.schedule
    again = sg.bounds_from_values(
        sched.params.eps, sched.params.delta, g.bank.gamma, g.selection.zeta
    )
    assert b == again


@pytest.mark.parametrize("target", [2.0, 1.0, 0.5, 0.1, 0.01])
def test_solve_params_meets_target(target):
    params = sg.solve_params(target)
    b = sg.theoretical_bounds(params)
    assert b.ratio <= 3.0 + target
    bump = math.sqrt(1.0 + target / 3.0)
    assert min(b.l_same, b.l_far) >= SQRT2 / (3.0 * bump)
    assert max(b.u_same, b.u_far) <= SQRT2 * bump


def test_solve_params_vacuous_for_huge_target():
    params = sg.solve_params(1e9)
    assert sg.theoretical_bounds(params).ratio > 3.0


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_solve_params_rejects_bad_target(target):
    # at NaN every comparison of the search failed, and it never returned
    with pytest.raises(ValueError, match="eps_target must be finite and positive, got "):
        sg.solve_params(target)


def test_spreading_lower_bound_values():
    assert sg.spreading_lower_bound(1.0, 0.0) == 1.0
    assert sg.spreading_lower_bound(0.0, 1.0) == 1.0
    v = sg.spreading_lower_bound(SQRT2 / 2.0, SQRT2 / 2.0)
    assert v == pytest.approx(SQRT2 / 3.0, rel=1e-14)
    v = sg.spreading_lower_bound(math.cos(math.pi / 3), math.sin(math.pi / 3))
    assert v == pytest.approx(0.6339745962155613, rel=1e-12)


def test_spreading_lower_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        sg.spreading_lower_bound(0.0, 0.0)
    with pytest.raises(ValueError):
        sg.spreading_lower_bound(-0.1, 1.0)


def test_spreading_bound_minimum_grid():
    value, arg = sg.spreading_bound_minimum(10001)
    assert value == pytest.approx(SQRT2 / 3.0, abs=1e-6)
    assert arg == pytest.approx(math.pi / 4.0, abs=1e-3)
    # endpoints of the angle range give 1
    vals, _ = sg.spreading_bound_minimum(3)
    assert sg.spreading_lower_bound(1.0, 0.0) == 1.0
    assert sg.spreading_lower_bound(0.0, 1.0) == 1.0


def test_check_pair_records_sandwich_fields(l1_pipeline):
    g, pts, _ = l1_pipeline
    logs = sg.log_norms(pts)
    order = np.argsort(logs)
    # a same-shell pair with both norms positive
    found = None
    for a in range(len(pts)):
        for b in range(len(pts)):
            if a == b or logs[a] < logs[b] or logs[b] == -math.inf:
                continue
            cls = classify_lognorms(g.schedule, logs[a], logs[b])
            if isinstance(cls, SameLevel):
                found = (a, b)
                break
        if found:
            break
    a, b = found
    pc = sg.check_pair(g, pts.coords[a], pts.coords[b], pts.ids[a], pts.ids[b])
    assert pc.sigma is not None and pc.theta is not None
    assert pc.theta >= math.pi / 2 - 1e-12
    assert pc.g_sigma_w is not None and pc.g_theta_v is not None
    assert pc.lower_slack >= -1e-9 and pc.upper_slack >= -1e-9


def test_check_pair_requires_order_and_distinct(l1_pipeline):
    g, pts, _ = l1_pipeline
    logs = sg.log_norms(pts)
    hi = int(np.argmax(logs))
    lo = next(i for i in range(len(pts)) if 0 < logs[i] < logs[hi])
    with pytest.raises(ValueError):
        sg.check_pair(g, pts.coords[lo], pts.coords[hi])
    with pytest.raises(ValueError):
        sg.check_pair(g, pts.coords[hi], pts.coords[hi])


def _swept(g, pts):
    """The report of a sweep, and its judged pairs as the PairCheck objects
    of the rows it passes to on_block."""
    checks = []
    rep = sg.distortion_report(g, pts, on_block=lambda t, rows: checks.extend(t[rows]))
    return rep, checks


def test_distortion_report_coherence(l1_pipeline):
    g, pts, _ = l1_pipeline
    rep, checks = _swept(g, pts)
    ratios = [pc.ratio for pc in checks]
    assert rep.min_ratio == min(ratios)
    assert rep.max_ratio == max(ratios)
    assert rep.distortion == rep.max_ratio / rep.min_ratio
    assert rep.distortion >= 1.0
    assert rep.distortion <= rep.bounds.ratio + 1e-9
    n = len(pts)
    assert len(checks) == n * (n - 1) // 2
    assert sum(v.count for v in rep.by_class.values()) == len(checks)
    ids = set(pts.ids)
    assert set(rep.witness_min) <= ids and set(rep.witness_max) <= ids


def test_distortion_report_classes_present(l1_pipeline):
    g, pts, _ = l1_pipeline
    rep = sg.distortion_report(g, pts)
    assert {"plateau", "same", "far"} <= set(rep.by_class)
    for summary in rep.by_class.values():
        assert summary.min_lower_slack >= -1e-9
        assert summary.min_upper_slack >= -1e-9


def test_far_pair_brackets(l1_pipeline):
    g, pts, _ = l1_pipeline
    rep, checks = _swept(g, pts)
    sched = g.schedule
    far = [pc for pc in checks if pc.kind.startswith("far")]
    assert far
    b = rep.bounds
    for pc in far:
        assert pc.ratio >= b.l_far - 1e-9
        assert pc.ratio <= b.u_far + 1e-9


def test_plateau_pairs_sharp_bracket(l1_pipeline):
    g, pts, _ = l1_pipeline
    _, checks = _swept(g, pts)
    plateau = [pc for pc in checks if pc.kind.startswith("plateau")]
    assert plateau
    for pc in plateau:
        assert 1.0 - 1e-9 <= pc.ratio <= 1.0 + g.bank.gamma + 1e-9


def test_origin_pair_brackets(l1_pipeline):
    # against the origin: sharp bracket when x sits in a plateau, the wider
    # single-point bracket when it sits on a ramp
    g, _, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    zero = np.zeros(3)
    lt_plateau = 0.5 * (sched.log_R[1] + sched.log_r[2])
    x = np.array([1.0, 2.0, -0.5])
    x = x * math.exp(lt_plateau - math.log(sg.norm(src, x)))
    pc = sg.check_pair(g, x, zero)
    assert pc.kind.startswith("plateau")
    assert 1.0 - 1e-9 <= pc.ratio <= 1.0 + g.bank.gamma + 1e-9
    lt_ramp = 0.5 * (sched.log_r[1] + sched.log_R[1])
    y = np.array([0.5, 1.0, 1.5])
    y = y * math.exp(lt_ramp - math.log(sg.norm(src, y)))
    pc = sg.check_pair(g, y, zero)
    assert pc.kind.startswith("ray")
    zeta = g.selection.zeta
    assert pc.ratio >= SQRT2 / (3 * (1 + zeta)) - 1e-9
    assert pc.ratio <= SQRT2 * (1 + g.bank.gamma) + 1e-9


def test_bound_violated_on_inconsistent_embedding(l1_pipeline):
    # swapping in a selection the search never certified must surface as a
    # violated lower bound, not a silent pass: use negated copies of one map
    g, pts, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    mats = []
    for k in range(4):
        m = np.zeros((g.target.dim, src.dim))
        sign = 1.0 if k % 2 == 0 else -1.0
        m[: src.dim, :] = sign * np.eye(src.dim)
        mats.append(m)
    certify = [row for row in pts.coords if np.any(row)]
    bank = sg.build_bank(sg.UserMatrices(tuple(mats)), src, g.target, 0.01, 4, certify)
    sel = sg.SelectionResult((0, 1, 2, 3), (math.inf,) * 3, 0.01, SQRT2 / (3 * 1.01))
    fake = sg.GlueEmbedding(g.schedule, bank, sel)
    with pytest.raises(BoundViolated):
        sg.distortion_report(fake, pts)


def test_fuzz_pair_inequalities_clean():
    rep = sg.fuzz_pair_inequalities(2, 300)
    assert rep.min_lower_slack >= -1e-9
    assert rep.min_upper_slack >= -1e-9
    assert rep.max_identity_residual <= 1e-9


def test_fuzz_gain_rows_stay_within_batch(monkeypatch):
    # _sandwich forms all the rows it is given at once, so on this path only
    # the fuzz's chunks of pairs keep each direction_gain call within budget
    monkeypatch.setattr(sg.spaces, "BATCH_ELEMENTS", 64)
    sizes = []

    def sized(theta, U, first, second):
        sizes.append(np.asarray(U).size)
        return sg.direction_gain(theta, U, first, second)

    monkeypatch.setattr(spiralglue.verify, "direction_gain", sized)
    sg.fuzz_pair_inequalities(2, 300)
    assert sizes and max(sizes) <= 64


def test_fuzz_pair_inequalities_rejects_a_negative_count():
    with pytest.raises(ValueError, match="n_pairs must be >= 0, got -3"):
        sg.fuzz_pair_inequalities(2, -3)


def fuzz_per_pair(seed: int, n_pairs: int, levels: int = 3) -> FuzzReport:
    """fuzz_pair_inequalities judging each pair as it is drawn, by the
    one-vector norm, level map and decomposition residual."""
    rng = np.random.default_rng(seed)
    banks = _fuzz_banks(seed)
    sched = sg.build_schedule(sg.Params(0.05, 0.1, 0.05, 0.05), 1.0, levels)
    worst_lo = worst_hi = math.inf
    worst_res = 0.0
    sel = sg.SelectionResult(tuple(range(levels + 1)), (math.inf,) * levels, 0.0, SQRT2 / 3.0)
    for k in range(n_pairs):
        bank = banks[k % len(banks)]
        g = sg.GlueEmbedding(sched, bank, sel)
        level = int(rng.integers(1, levels + 1))
        lo = sched.log_R[level - 2] if level >= 2 else sched.log_r[0] - 1.0
        hi = sched.log_r[level] if level < levels else sched.log_coverage
        lx, ly = sorted(rng.uniform(lo + 0.01, hi - 0.01, size=2), reverse=True)
        dx = rng.standard_normal(bank.source.dim)
        dy = rng.standard_normal(bank.source.dim)
        x = dx * math.exp(lx - math.log(sg.norm(bank.source, dx)))
        y = dy * math.exp(ly - math.log(sg.norm(bank.source, dy)))
        nx, ny = sg.norm(bank.source, x), sg.norm(bank.source, y)
        ndiff = sg.norm(bank.source, x - y)
        if ndiff < 1e-6 * nx:
            continue
        image = level_map_scalar(g, level, x) - level_map_scalar(g, level, y)
        ratio = sg.norm(bank.target, image) / ndiff
        # the pair as the two points of a point table
        pair = _points(g, np.array([x, y]), (0, 1), np.array([nx, ny]))
        nd = np.array([ndiff])
        *_, lo_b, hi_b = _sandwich(g, level, pair, np.array([0]), np.array([1]), nd)
        worst_lo = min(worst_lo, ratio - float(lo_b[0]))
        worst_hi = min(worst_hi, float(hi_b[0]) - ratio)
        worst_res = max(worst_res, blend_decomposition_residual_scalar(g, level, x, y))
    return FuzzReport(n_pairs, worst_lo, worst_hi, worst_res)


@pytest.mark.parametrize("seed, n_pairs", [(0, 0), (0, 1), (2, 300), (9, 1000)])
def test_fuzz_rows_equal_per_pair_judge(seed, n_pairs):
    # the same draws judged as rows of a bank and level give the same worst
    # slacks and residual, to the bit
    assert sg.fuzz_pair_inequalities(seed, n_pairs) == fuzz_per_pair(seed, n_pairs)


def test_level_map_and_residual_rows_equal_one_row_calls(l1_pipeline):
    g, pts, _ = l1_pipeline
    order = np.argsort(sg.norms(g.source, pts.coords))[::-1]
    x, y = pts.coords[order[:-1]][::2], pts.coords[order[1:]][::2]
    level = 2
    images = sg.level_map(g, level, x)
    assert [row.tobytes() for row in images] == [
        level_map_scalar(g, level, row).tobytes() for row in x
    ]
    keep = sg.norms(g.source, y) > 0.0
    got = sg.blend_decomposition_residual(g, level, x[keep], y[keep]).tolist()
    assert got == [
        blend_decomposition_residual_scalar(g, level, a, b) for a, b in zip(x[keep], y[keep])
    ]


def test_distortion_report_checks_bounds_before_any_pair(l1_pipeline, small_ws, monkeypatch):
    # at eps = 0.5 the shell lower bound is negative; no pair may be judged
    g, _, _ = l1_pipeline
    pts = sg.generate_annular(3, small_ws, 4, 3, "mixed", sg.Lp(1.0))
    judged = []
    monkeypatch.setattr(spiralglue.verify, "_judge_pairs", lambda *args: judged.append(args))
    with pytest.raises(NonPositiveLowerBound):
        sg.distortion_report(sg.GlueEmbedding(small_ws, g.bank, g.selection), pts)
    assert judged == []
