import math

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.errors import OutOfScheduleRange

from oracles import ramp_angle

# independent solves of eps * ln(R/r) = pi/2 frozen ahead of time
E_PI = 23.140692632779267          # minimal R_1 for eps = 0.5, r1 = 1
TEN_E_PI = 231.40692632779266      # r_2 at delta = 0.1, margin = 0
PI_OVER_04 = 7.853981633974483     # log R_1 for eps = 0.2, r1 = 1


def test_params_validation():
    with pytest.raises(ValueError):
        sg.Params(0.0, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        sg.Params(0.1, 1.0, 0.1, 0.1)
    for bad in (math.nan, -0.1, math.inf):
        with pytest.raises(ValueError, match="zeta must lie strictly in"):
            sg.Params(0.1, 0.1, 0.1, bad)
    p = sg.Params(0.25, 0.05, 0.1, 0.15)
    assert (p.eps, p.delta, p.gamma, p.zeta) == (0.25, 0.05, 0.1, 0.15)


def test_build_minimal_ramp_one_level():
    sched = sg.build_schedule(sg.Params(0.5, 0.1, 0.01, 0.01), 1.0, 1)
    r, big_r = sg.radii(sched)
    assert big_r[0] == pytest.approx(E_PI, rel=1e-12)


def test_build_zero_margin_boundary():
    sched = sg.build_schedule(sg.Params(0.5, 0.1, 0.01, 0.01), 1.0, 2, margin=0.0)
    r, _ = sg.radii(sched)
    assert r[1] == pytest.approx(TEN_E_PI, rel=1e-12)


def test_build_log_domain_value():
    sched = sg.build_schedule(sg.Params(0.2, 0.1, 0.01, 0.01), 1.0, 1)
    assert sched.log_R[0] == pytest.approx(PI_OVER_04, rel=1e-13)


def test_build_validates_arguments():
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    with pytest.raises(ValueError):
        sg.build_schedule(params, 0.0, 3)
    with pytest.raises(ValueError):
        sg.build_schedule(params, 1.0, 0)
    with pytest.raises(ValueError):
        sg.build_schedule(params, 1.0, 3, margin=-0.5)


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("margin", [math.nan, math.inf, 1e308])
def test_build_rejects_margin_with_non_finite_step(levels, margin):
    # a NaN or infinite level step used to give one level a NaN or infinite
    # coverage, which every radius passed, and more levels a message about
    # log_r that does not name the margin
    with pytest.raises(ValueError, match="^margin "):
        sg.build_schedule(sg.Params(0.01, 0.01, 0.01, 0.01), 1.0, levels, margin)


def test_radii_overflow_guard():
    # five ramps at eps = 0.01 push log R_5 past ln(float max) ~ 709.8
    sched = sg.build_schedule(sg.Params(0.01, 0.01, 0.01, 0.01), 1.0, 5)
    with pytest.raises(OverflowError):
        sg.radii(sched)


def test_log_round_trip(small_ws):
    r, big_r = sg.radii(small_ws)
    assert np.allclose(np.log(r), small_ws.log_r, rtol=1e-12)
    assert np.allclose(np.log(big_r), small_ws.log_R, rtol=1e-12)


def test_schedule_invariants_rejected():
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    good = sg.build_schedule(params, 1.0, 2)
    with pytest.raises(ValueError):
        # ramp shorter than the feasible minimum
        sg.RadiiSchedule(2, good.log_r, good.log_R - 0.5, good.log_coverage, params)
    with pytest.raises(ValueError):
        # second radius violating the 1/delta gap
        bad_r = good.log_r.copy()
        bad_r[1] = good.log_R[0] + 0.1 * math.log(1.0 / params.delta)
        sg.RadiiSchedule(2, bad_r, good.log_R, good.log_coverage, params)


@pytest.mark.parametrize("field", ["log_r", "log_R", "log_coverage"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite_radii(small_ws, field, value):
    d = sg.schedule_to_dict(small_ws)
    if field == "log_coverage":
        d[field] = value
    else:
        d[field] = [value, *d[field][1:]]
    with pytest.raises(ValueError, match="must be finite"):
        sg.schedule_from_dict(d)


def test_ramp_angle_clamps(small_ws):
    r, big_r = sg.radii(small_ws)
    assert ramp_angle(small_ws, 1, 0.0) == 0.0
    assert ramp_angle(small_ws, 1, 0.5 * r[0]) == 0.0
    assert ramp_angle(small_ws, 1, big_r[0]) == math.pi / 2
    assert ramp_angle(small_ws, 1, 10.0 * big_r[0]) == math.pi / 2
    mid = math.exp(0.5 * (small_ws.log_r[0] + small_ws.log_R[0]))
    assert ramp_angle(small_ws, 1, mid) == pytest.approx(math.pi / 4, rel=1e-12)


def test_weight_examples(small_ws):
    r, big_r = sg.radii(small_ws)
    assert sg.weight(small_ws, 1, 0.0) == 1.0
    # plateau of the second weight
    mid = math.exp(0.5 * (small_ws.log_R[0] + small_ws.log_r[1]))
    assert sg.weight(small_ws, 2, mid) == 1.0
    # cos^2 + sin^2 on a ramp
    t = math.exp(0.3 * small_ws.log_r[0] + 0.7 * small_ws.log_R[0])
    for level in (1, 2, 3):
        tt = math.exp(
            0.3 * small_ws.log_r[level - 1] + 0.7 * small_ws.log_R[level - 1]
        )
        sq = sg.weight(small_ws, level, tt) ** 2 + sg.weight(small_ws, level + 1, tt) ** 2
        assert sq == pytest.approx(1.0, abs=1e-12)
    assert sg.weight(small_ws, 1, t) ** 2 + sg.weight(small_ws, 2, t) ** 2 == pytest.approx(
        1.0, abs=1e-12
    )


def test_weight_out_of_range(small_ws):
    cov = math.exp(small_ws.log_coverage)
    with pytest.raises(OutOfScheduleRange):
        sg.weight(small_ws, 1, cov * 1.01)
    with pytest.raises(ValueError):
        sg.weight(small_ws, 0, 1.0)
    with pytest.raises(ValueError):
        sg.weight(small_ws, 5, 1.0)


def test_partition_of_unity_dense(small_ws):
    sched = small_ws
    logs = np.linspace(sched.log_r[0] - 3.0, sched.log_coverage, 2000)
    for lt in logs:
        t = math.exp(lt)
        vals = [sg.weight(small_ws, k, t) for k in range(1, 5)]
        assert sum(v * v for v in vals) == pytest.approx(1.0, abs=1e-12)
        assert sum(1 for v in vals if v != 0.0) <= 2


def test_supports_exact(small_ws):
    sched = small_ws
    eps_pad = 1e-6
    # mu_1 vanishes beyond R_1
    for lt in np.linspace(sched.log_R[0] + eps_pad, sched.log_coverage, 50):
        assert sg.weight(small_ws, 1, math.exp(lt)) == 0.0
    # mu_i vanishes outside [r_{i-1}, R_i]
    for i in (2, 3):
        below = np.linspace(sched.log_r[0] - 2.0, sched.log_r[i - 2] - eps_pad, 25)
        above = np.linspace(sched.log_R[i - 1] + eps_pad, sched.log_coverage, 25)
        for lt in below:
            assert sg.weight(small_ws, i, math.exp(lt)) == 0.0
        for lt in above:
            assert sg.weight(small_ws, i, math.exp(lt)) == 0.0


def test_monotone_on_ramps(small_ws):
    sched = small_ws
    for i in (1, 2, 3):
        grid = np.linspace(sched.log_r[i - 1] + 1e-9, sched.log_R[i - 1] - 1e-9, 200)
        falling = [sg.weight(small_ws, i, math.exp(lt)) for lt in grid]
        rising = [sg.weight(small_ws, i + 1, math.exp(lt)) for lt in grid]
        assert all(b <= a for a, b in zip(falling, falling[1:]))
        assert all(b >= a for a, b in zip(rising, rising[1:]))
        assert falling[0] > falling[-1]
        assert rising[0] < rising[-1]


@pytest.mark.parametrize("ws_name", ["small_ws", "wide_ws"])
def test_weight_conditions_report(ws_name, request):
    rep = sg.check_weight_conditions(request.getfixturevalue(ws_name), 400)
    assert rep.angle_slope_min >= -1e-9
    assert rep.angle_slope_max_violation <= 1e-6
    assert rep.weight_slope_max_violation <= 1e-6
    assert rep.partition_max_defect <= 1e-12


def test_schedule_json_round_trip(small_ws):
    d = sg.schedule_to_dict(small_ws)
    again = sg.schedule_from_dict(d)
    assert again.levels == small_ws.levels
    assert np.array_equal(again.log_r, small_ws.log_r)
    assert np.array_equal(again.log_R, small_ws.log_R)
    assert again.log_coverage == small_ws.log_coverage
    assert again.params == small_ws.params


def test_weight_grid_shape_and_overlap(small_ws):
    ts, table = sg.weight_grid(small_ws, 500)
    assert table.shape == (500, 4)
    active = (table != 0.0).sum(axis=1)
    assert active.max() <= 2
    assert np.allclose((table**2).sum(axis=1), 1.0, atol=1e-12)
