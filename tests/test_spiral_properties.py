"""Property tests for the spiral's one weight evaluator and the shell rule.

Schedules are drawn both from build_schedule and by hand, with ramps from the
shortest the constructor admits (pi/(2 eps) less a relative 1e-12) to twice
that; radii are drawn at random and within a few ulps of every r_i, R_i and
the coverage edge, where the clamps and the endpoint snaps act.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import spiralglue as sg
from spiralglue.schedule import HALF_PI, active_weights_log, log_radius, ramp_angle_log

from oracles import Far, SameLevel, classify_pair


@st.composite
def schedules(draw):
    eps = draw(st.floats(0.05, 0.95))
    delta = draw(st.floats(0.01, 0.95))
    levels = draw(st.integers(1, 4))
    log_r1 = draw(st.floats(-20.0, 20.0))
    params = sg.Params(eps, delta, 0.01, 0.01)
    if draw(st.booleans()):
        margin = draw(st.floats(0.0, 1.0))
        return sg.build_schedule(params, math.exp(log_r1), levels, margin)
    stretch = draw(st.one_of(st.floats(1.0 - 5e-13, 1.0 + 1e-12), st.floats(1.0, 2.0)))
    ramp = HALF_PI / eps * stretch
    gap = -math.log(delta) * draw(st.floats(1.0, 1.5))
    log_r, log_R, x = [], [], log_r1
    for _ in range(levels):
        log_r.append(x)
        log_R.append(x + ramp)
        x += ramp + gap
    return sg.RadiiSchedule(levels, np.array(log_r), np.array(log_R), x, params)


def radii(sched):
    """Radii up to the coverage edge: the origin, log-uniform ones, and ones
    a few ulps from a schedule boundary."""
    edges = [*sched.log_r, *sched.log_R, sched.log_coverage]
    near = st.tuples(st.sampled_from(edges), st.integers(-4, 4)).map(
        lambda e: _ulps_from(math.exp(e[0]), e[1])
    )
    spread = st.floats(sched.log_r[0] - 3.0, sched.log_coverage).map(math.exp)
    return st.one_of(st.just(0.0), near, spread).filter(
        lambda t: log_radius(t) <= sched.log_coverage
    )


def _ulps_from(t, k):
    for _ in range(abs(k)):
        t = math.nextafter(t, math.copysign(math.inf, k))
    return t


def weight_oracle(sched, k, log_t):
    """mu_k by its piecewise definition: it rises as sin of ramp k-1's clamped
    angle on [r_{k-1}, R_{k-1}), is 1 on the plateau [R_{k-1}, r_k], falls as
    cos of ramp k's angle on (r_k, R_k) and is 0 elsewhere; mu_1 has no rise
    and mu_{m+1} no fall."""
    m, r, big_r = sched.levels, sched.log_r, sched.log_R

    def angle(i):
        return min(max(sched.params.eps * (log_t - r[i - 1]), 0.0), HALF_PI)

    if k > 1 and log_t < r[k - 2]:
        return 0.0
    if k > 1 and log_t < big_r[k - 2]:
        a = angle(k - 1)
        return 0.0 if a <= 0.0 else 1.0 if a >= HALF_PI else math.sin(a)
    if k == m + 1 or log_t <= r[k - 1]:
        return 1.0
    if log_t < big_r[k - 1]:
        a = angle(k)
        return 1.0 if a <= 0.0 else 0.0 if a >= HALF_PI else math.cos(a)
    return 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_weight_matches_piecewise_oracle(data):
    sched = data.draw(schedules())
    t = data.draw(radii(sched))
    got = [sg.weight(sched, k, t) for k in range(1, sched.levels + 2)]
    want = [weight_oracle(sched, k, log_radius(t)) for k in range(1, sched.levels + 2)]
    # bit-for-bit, the sign of zero included
    assert [(v, math.copysign(1.0, v)) for v in got] == [
        (v, math.copysign(1.0, v)) for v in want
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_weights_two_adjacent_and_unit(data):
    sched = data.draw(schedules())
    t = data.draw(radii(sched))
    mus = [sg.weight(sched, k, t) for k in range(1, sched.levels + 2)]
    active = [k for k, v in enumerate(mus) if v != 0.0]
    assert 1 <= len(active) <= 2
    assert active[-1] - active[0] <= 1
    assert abs(sum(v * v for v in mus) - 1.0) <= 1e-15


def test_ramp_ends_exactly_at_big_r():
    # on this schedule eps * (log R_2 - log r_2) rounds to an ulp below pi/2
    sched = sg.build_schedule(sg.Params(0.2, 0.1, 0.01, 0.01), 1.0, 3)
    end = sched.log_R[1]
    assert 0.2 * (end - sched.log_r[1]) < HALF_PI
    assert ramp_angle_log(sched, 2, end) == HALF_PI
    assert active_weights_log(sched, end) == (2, 0.0, 1.0)


def shells(sched, log_t):
    """The 1-based shells (R_{i-1}, r_{i+1}] holding log norm log_t, with
    R_0 = 0 and r_{m+1} the coverage; the origin lies in every shell."""
    m = sched.levels
    out = []
    for i in range(1, m + 1):
        lo = sched.log_R[i - 2] if i >= 2 else -math.inf
        hi = sched.log_r[i] if i < m else sched.log_coverage
        if log_t == -math.inf or lo < log_t <= hi:
            out.append(i)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_classify_pair_matches_shell_membership(data):
    sched = data.draw(schedules())
    space = sg.Space(1, sg.Lp(1.0))
    x, y = sorted(([data.draw(radii(sched))] for _ in range(2)), reverse=True)
    in_x = shells(sched, log_radius(sg.norm(space, x)))
    in_y = shells(sched, log_radius(sg.norm(space, y)))
    common = sorted(set(in_x) & set(in_y))
    if common:
        want = SameLevel(common[0])
    else:
        want = Far(y_level=max(in_y), x_level=min(in_x) - 1)
    assert classify_pair(x, y, sched, space) == want
