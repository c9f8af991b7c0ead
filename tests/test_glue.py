import math

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.errors import OutOfScheduleRange


def _unit(space, direction):
    d = np.asarray(direction, dtype=float)
    return d / sg.norm(space, d)


def _at_norm(space, direction, log_target):
    d = np.asarray(direction, dtype=float)
    return d * math.exp(log_target - math.log(sg.norm(space, d)))


def test_embed_origin_is_zero(l1_pipeline):
    g, _, _ = l1_pipeline
    assert np.array_equal(sg.embed(g, np.zeros(3)), np.zeros(18))


def test_embed_plateau_is_single_certified_map(l1_pipeline):
    g, _, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    lt = 0.5 * (sched.log_R[0] + sched.log_r[1])  # plateau of level 2
    x = _at_norm(src, [1.0, -2.0, 0.5], lt)
    img = sg.embed(g, x)
    assert np.all(img == sg.apply(g.map_at(2), x))
    ratio = sg.norm(g.target, img) / sg.norm(src, x)
    assert 1.0 - 1e-12 <= ratio <= 1.0 + g.bank.gamma + 1e-12


def test_embed_matches_level_map_on_every_shared_shell(l1_pipeline):
    g, _, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    rng = np.random.default_rng(23)
    for _ in range(60):
        lt = rng.uniform(sched.log_r[0] - 1.0, sched.log_coverage)
        x = _at_norm(src, rng.standard_normal(3), lt)
        ln = math.log(sg.norm(src, x))
        img = sg.embed(g, x)
        for level in range(1, 4):
            lo = sched.log_R[level - 2] if level >= 2 else -math.inf
            hi = sched.log_r[level] if level < 3 else sched.log_coverage
            if lo < ln <= hi:
                assert np.all(img == sg.level_map(g, level, x))


def test_embed_out_of_coverage(l1_pipeline):
    g, _, _ = l1_pipeline
    x = _at_norm(g.source, [1.0, 1.0, 1.0], g.schedule.log_coverage + 1.0)
    with pytest.raises(OutOfScheduleRange):
        sg.embed(g, x)
    with pytest.raises(OutOfScheduleRange):
        sg.level_map(g, 1, x)


def test_level_map_endpoints(l1_pipeline):
    g, _, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    below = _at_norm(src, [1.0, 0.5, 0.25], sched.log_r[1] - 0.5)
    above = _at_norm(src, [1.0, 0.5, 0.25], sched.log_R[1] + 0.5)
    assert np.all(sg.level_map(g, 2, below) == sg.apply(g.map_at(2), below))
    assert np.all(sg.level_map(g, 2, above) == sg.apply(g.map_at(3), above))


def test_ray_formula(l1_pipeline):
    g, _, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    rng = np.random.default_rng(31)
    for level in (1, 2, 3):
        for _ in range(10):
            lt = rng.uniform(sched.log_r[level - 1] - 0.5, sched.log_R[level - 1] + 0.5)
            x = _at_norm(src, rng.standard_normal(3), lt)
            t = sg.norm(src, x)
            sigma = sg.ramp_angle(g.schedule, level, t)
            lhs = sg.norm(g.target, sg.level_map(g, level, x)) / t
            rhs = sg.direction_gain(sigma, x / t, g.map_at(level), g.map_at(level + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gain_homogeneity():
    space = sg.Space(3, sg.Lp(2.0))
    rng = np.random.default_rng(37)
    e = sg.LinearMap(rng.standard_normal((3, 3)), space, space)
    f = sg.LinearMap(rng.standard_normal((3, 3)), space, space)
    u = _unit(space, rng.standard_normal(3))
    for a in (0.5, -2.0, 3.75):
        ae = sg.LinearMap(a * e.matrix, space, space)
        af = sg.LinearMap(a * f.matrix, space, space)
        for theta in rng.uniform(0.0, math.pi, 5):
            lhs = sg.direction_gain(theta, u, ae, af)
            rhs = abs(a) * sg.direction_gain(theta, u, e, f)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gain_upper_bound_on_certified_bank(l1_pipeline):
    g, pts, _ = l1_pipeline
    cap = math.sqrt(2.0) * (1.0 + g.bank.gamma)
    rng = np.random.default_rng(41)
    rows = [r for r in pts.coords if np.any(r)]
    for _ in range(200):
        row = rows[rng.integers(len(rows))]
        u = _unit(g.source, row)
        theta = rng.uniform(0.0, math.pi)
        level = int(rng.integers(1, 4))
        val = sg.direction_gain(theta, u, g.map_at(level), g.map_at(level + 1))
        assert val <= cap + 1e-12


def test_gain_reduces_to_single_map_at_zero(l1_pipeline):
    g, pts, _ = l1_pipeline
    row = next(r for r in pts.coords if np.any(r))
    u = _unit(g.source, row)
    val = sg.direction_gain(0.0, u, g.map_at(1), g.map_at(2))
    assert 1.0 - 1e-12 <= val <= 1.0 + g.bank.gamma + 1e-12


def test_gain_cancellation_for_negated_maps():
    space = sg.Space(2, sg.Lp(2.0))
    e = sg.LinearMap(np.eye(2), space, space)
    f = sg.LinearMap(-np.eye(2), space, space)
    u = np.array([1.0, 0.0])
    assert sg.direction_gain(math.pi / 4, u, e, f) == pytest.approx(0.0, abs=1e-15)
    assert sg.direction_gain(3 * math.pi / 4, u, e, f) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_gain_requires_unit_vector(l1_pipeline):
    g, _, _ = l1_pipeline
    with pytest.raises(ValueError):
        sg.direction_gain(0.1, np.array([2.0, 0.0, 0.0]), g.map_at(1), g.map_at(2))


def test_blend_decomposition_residual_fuzz(l1_pipeline):
    g, _, _ = l1_pipeline
    sched = g.schedule
    src = g.source
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(200):
        level = int(rng.integers(1, 4))
        lo = sched.log_R[level - 2] if level >= 2 else sched.log_r[0] - 1.0
        hi = sched.log_r[level] if level < 3 else sched.log_coverage
        lx, ly = sorted(rng.uniform(lo + 0.01, hi - 0.01, size=2), reverse=True)
        x = _at_norm(src, rng.standard_normal(3), lx)
        y = _at_norm(src, rng.standard_normal(3), ly)
        worst = max(worst, sg.blend_decomposition_residual(g, level, x, y))
    assert worst <= 1e-12


def test_embed_all_keys(l1_pipeline):
    g, pts, _ = l1_pipeline
    images = sg.embed_all(g, pts)
    assert set(images) == set(pts.ids)
    assert all(v.shape == (18,) for v in images.values())


def test_glue_validates_selection(l1_pipeline):
    g, _, _ = l1_pipeline
    bad = sg.SelectionResult((0, 1), (math.inf,), 0.01, 0.46)
    with pytest.raises(ValueError):
        sg.GlueEmbedding(g.schedule, g.bank, bad)
    decreasing = sg.SelectionResult((0, 2, 1, 3), (math.inf,) * 3, 0.01, 0.46)
    with pytest.raises(ValueError):
        sg.GlueEmbedding(g.schedule, g.bank, decreasing)
