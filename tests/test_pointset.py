import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spiralglue as sg
from spiralglue.errors import OutOfScheduleRange

from oracles import Far, SameLevel, classify_lognorms, classify_pair


def _norm_point(space, direction, target):
    d = np.asarray(direction, dtype=float)
    return d * (target / sg.norm(space, d))


def test_make_point_set_rejects_duplicates():
    space = sg.Space(2, sg.Lp(2.0))
    with pytest.raises(ValueError):
        sg.make_point_set(space, [[1.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_point_set_rejects_non_finite_coordinates(bad):
    space = sg.Space(3, sg.Lp(2.0))
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        sg.make_point_set(space, [[0.0, 0.0, 0.0], [1.0, bad, 0.0]])


@given(data=st.data())
def test_pairs_at_is_a_slice_of_the_row_major_pairs(data):
    # any range of pair indices, empty ones and those that start or stop
    # mid-row or at a row's end included
    n = data.draw(st.integers(0, 60))
    a, b = np.triu_indices(n, 1)
    start = data.draw(st.integers(0, len(a)))
    stop = data.draw(st.integers(start, len(a)))
    got = sg.pointset.pairs_at(n, start, stop)
    assert [v.dtype for v in got] == [np.dtype(np.intp)] * 2
    assert got[0].tolist() == a[start:stop].tolist()
    assert got[1].tolist() == b[start:stop].tolist()


def test_origin_detection():
    space = sg.Space(2, sg.Lp(2.0))
    pts = sg.make_point_set(space, [[0.0, 0.0], [1.0, 0.0]])
    assert pts.includes_origin
    pts2 = sg.make_point_set(space, [[2.0, 0.0], [1.0, 0.0]])
    assert not pts2.includes_origin


def test_decompose_origin_only(small_ws):
    space = sg.Space(2, sg.Lp(2.0))
    pts = sg.make_point_set(space, [[0.0, 0.0]])
    dec = sg.decompose(pts, small_ws)
    assert dec.levels == 3
    for ids, dirs, (direction, angle) in zip(dec.member_ids, dec.directions, dec.checks):
        assert ids == (0,)
        assert dirs.shape == (0, 2)
        assert len(direction) == len(angle) == 0


def test_decompose_two_point_example(small_ws):
    # one pair satisfying the recording conditions at level 1:
    # r_1 < |x| <= r_2, |y| <= R_1
    sched = small_ws
    space = sg.Space(2, sg.Lp(2.0))
    r, big_r = sg.radii(sched)
    x = _norm_point(space, [1.0, 1.0], 50.0)
    y = _norm_point(space, [1.0, -2.0], 10.0)
    pts = sg.make_point_set(space, [x, y])
    dec = sg.decompose(pts, sched)
    assert set(dec.member_ids[0]) == {0, 1}
    dirs = dec.directions[0]
    direction, angle = dec.checks[0]
    u_expected = (x - y) / sg.norm(space, x - y)
    hits = [k for k, u in enumerate(dirs) if np.max(np.abs(u - u_expected)) <= 1e-12]
    assert len(hits) == 1
    # 50 lies beyond R_1, so the recorded angle is the clamp value pi/2
    assert math.pi / 2 in angle[direction == hits[0]].tolist()
    # the origin is adjoined implicitly: x/|x| and y/|y| also appear
    for pt in (x, y):
        u = pt / sg.norm(space, pt)
        assert any(np.max(np.abs(d - u)) <= 1e-12 for d in dirs)


def test_shell_membership_boundary_strict(small_ws):
    sched = small_ws
    space = sg.Space(2, sg.Lp(2.0))
    r, big_r = sg.radii(sched)
    x = _norm_point(space, [3.0, 4.0], big_r[0])  # norm exactly R_1
    pts = sg.make_point_set(space, [x])
    dec = sg.decompose(pts, sched)
    assert 0 in dec.member_ids[0]
    assert 0 not in dec.member_ids[1]  # excluded: shells open at R_{i-1}


def test_shells_are_the_level_intervals_in_the_coverage_slack():
    # point 1 lies past log_coverage but within check_log_radius's 1e-12
    # slack: accepted, so the last shell holds it, as the sweep's
    # level_intervals says
    sched = sg.build_schedule(sg.Params(0.3, 0.3, 0.01, 0.01), 1.0, 2)
    t = sched.log_coverage + 0.5e-12 * abs(sched.log_coverage)
    coords = [[0.0, 0.0], [math.exp(t), 0.0], [0.0, math.exp(sched.log_R[1] + 0.01)]]
    pts = sg.make_point_set(sg.Space(2, sg.Lp(2.0)), coords)
    assert sg.log_norms(pts)[1] > sched.log_coverage
    dec = sg.decompose(pts, sched)
    lo, hi = sg.pointset.level_intervals(sched, sg.log_norms(pts))
    for level, members in enumerate(dec.member_ids, start=1):
        assert members == tuple(k for k in pts.ids if lo[k] <= level <= hi[k])
    assert dec.member_ids == ((0,), (0, 1, 2))


def test_decompose_rejects_uncovered_points(small_ws):
    space = sg.Space(2, sg.Lp(2.0))
    cov = math.exp(small_ws.log_coverage)
    pts = sg.make_point_set(space, [_norm_point(space, [1.0, 0.5], 2 * cov)])
    with pytest.raises(OutOfScheduleRange):
        sg.decompose(pts, small_ws)


def test_direction_count_bound(small_ws):
    pts = sg.generate_annular(3, small_ws, 4, 2, "mixed")
    dec = sg.decompose(pts, small_ws)
    for ids, dirs in zip(dec.member_ids, dec.directions):
        # the synthetic origin joins the shell when the input origin is absent
        n = len(ids) if pts.includes_origin else len(ids) + 1
        assert len(dirs) <= n * (n - 1)


def test_directions_are_the_bit_distinct_unit_differences(small_ws):
    # unit differences of points along one ray agree only up to rounding:
    # each bit pattern is a direction of its own, however close to another
    sched = small_ws
    radii = np.exp(np.linspace(sched.log_r[0] - 1.0, sched.log_R[2], 25))
    coords = np.vstack([np.zeros(3), np.outer(radii, [0.3, -0.7, 1.1])])
    pts = sg.make_point_set(sg.Space(3, sg.Lp(2.0)), coords)
    logs = sg.log_norms(pts)
    dec = sg.decompose(pts, sched)
    for level, (ids, units) in enumerate(zip(dec.member_ids, dec.directions), start=1):
        # the shell's pairs in row-major (x, y) order; ids are row indices
        first = {}
        for x in ids:
            if logs[x] <= sched.log_r[level - 1]:
                continue
            for y in ids:
                if y != x and logs[y] <= min(sched.log_R[level - 1], logs[x]):
                    diff = pts.coords[x] - pts.coords[y]
                    first.setdefault((diff / sg.norm(pts.space, diff)).tobytes(), None)
        assert [u.tobytes() for u in units] == list(first)
        gaps = np.abs(units[:, None] - units[None]).max(axis=2)
        assert np.any(gaps[np.triu_indices(len(units), 1)] <= 1e-12)


@pytest.mark.parametrize("placement", ["plateau", "ramp", "mixed"])
def test_generator_counts_and_determinism(small_ws, placement):
    pts1 = sg.generate_annular(9, small_ws, 2, 3, placement)
    pts2 = sg.generate_annular(9, small_ws, 2, 3, placement)
    assert len(pts1) == 3 * 2 + 1
    assert pts1.includes_origin
    assert np.array_equal(pts1.coords, pts2.coords)
    pts3 = sg.generate_annular(10, small_ws, 2, 3, placement)
    assert not np.array_equal(pts1.coords, pts3.coords)


def test_generator_plateau_placement(small_ws):
    sched = small_ws
    pts = sg.generate_annular(4, sched, 5, 2, "plateau")
    logs = sg.log_norms(pts)
    for ln in logs:
        if ln == -math.inf:
            continue
        in_plateau = ln <= sched.log_r[0]
        for i in (2, 3):
            in_plateau |= sched.log_R[i - 2] <= ln <= sched.log_r[i - 1]
        assert in_plateau


def test_generator_ramp_placement(small_ws):
    sched = small_ws
    pts = sg.generate_annular(4, sched, 5, 2, "ramp")
    logs = sg.log_norms(pts)
    for ln in logs:
        if ln == -math.inf:
            continue
        assert any(sched.log_r[i] < ln < sched.log_R[i] for i in range(3))


def test_generator_rejects_bad_placement(small_ws):
    with pytest.raises(ValueError):
        sg.generate_annular(1, small_ws, 2, 2, "spiral")


def test_generator_overflow_guard():
    # slow spiral with five levels needs norms beyond the float range
    sched = sg.build_schedule(sg.Params(0.01, 0.01, 0.01, 0.01), 1.0, 5)
    with pytest.raises(OverflowError):
        sg.generate_annular(1, sched, 2, 2, "ramp")


def test_at_log_norms_is_the_generator_and_fuzz_rescaling(small_ws, monkeypatch):
    # one rule scales a row to the norm exp(log): the scalar factor
    # math.exp(log - math.log(norm)), applied to the row
    space = sg.Space(3, sg.Lp(1.0))
    rows = np.random.default_rng(2).standard_normal((6, 3))
    logs = np.linspace(-2.0, 40.0, 6).tolist()
    want = np.array(
        [row * math.exp(t - math.log(sg.norm(space, row))) for t, row in zip(logs, rows)]
    )
    assert sg.pointset.at_log_norms(space, logs, rows).tobytes() == want.tobytes()
    # the generator and the pair fuzz both rescale through it
    calls, rescale = [], sg.pointset.at_log_norms

    def counted(*args):
        calls.append(args[1])
        return rescale(*args)

    monkeypatch.setattr(sg.pointset, "at_log_norms", counted)
    monkeypatch.setattr(sg.verify, "at_log_norms", counted)
    sg.generate_annular(3, small_ws, 2, 3, "mixed", sg.Lp(1.0))
    assert len(calls) == 1 and len(calls[0]) == 6
    sg.verify.fuzz_pair_inequalities(3, 5)
    assert len(calls) > 1


def test_classify_same_level(small_ws):
    sched = small_ws
    space = sg.Space(2, sg.Lp(2.0))
    r, big_r = sg.radii(sched)
    # both inside (R_1, r_3], so shell 2 is the least shared level
    x = _norm_point(space, [1.0, 2.0], 1.1 * r[1])
    y = _norm_point(space, [0.0, 1.0], 1.5 * big_r[0])
    cls = classify_pair(x, y, sched, space)
    assert cls == SameLevel(2)
    # overlapping shells: both below r_2 share shell 1 as the least level
    x2 = _norm_point(space, [1.0, 2.0], 0.9 * r[1])
    cls2 = classify_pair(x2, y, sched, space)
    assert cls2 == SameLevel(1)


def test_classify_far_with_level_gap(small_ws):
    sched = small_ws
    space = sg.Space(2, sg.Lp(2.0))
    r, big_r = sg.radii(sched)
    x = _norm_point(space, [1.0, 0.1], math.exp(0.5 * (sched.log_r[2] + sched.log_R[2])))
    y = _norm_point(space, [1.0, -1.0], 0.5 * r[0])
    cls = classify_pair(x, y, sched, space)
    assert isinstance(cls, Far)
    assert cls.y_level == 1 and cls.x_level == 2
    # the far norm gap follows from the schedule
    assert sg.norm(space, y) <= sched.params.delta * sg.norm(space, x)


def test_classify_origin_is_always_same_level(small_ws):
    sched = small_ws
    space = sg.Space(2, sg.Lp(2.0))
    x = _norm_point(space, [1.0, 1.0], math.exp(0.5 * (sched.log_r[2] + sched.log_R[2])))
    cls = classify_pair(x, np.zeros(2), sched, space)
    assert cls == SameLevel(3)


def test_classify_requires_order(small_ws):
    sched = small_ws
    space = sg.Space(2, sg.Lp(2.0))
    with pytest.raises(ValueError):
        classify_pair([1.0, 0.0], [5.0, 0.0], sched, space)


def test_every_point_in_contiguous_levels(small_ws):
    sched = small_ws
    pts = sg.generate_annular(12, sched, 6, 2, "mixed")
    dec = sg.decompose(pts, sched)
    for pid in pts.ids:
        levels = [i for i in range(3) if pid in dec.member_ids[i]]
        assert levels, f"point {pid} in no shell"
        assert levels == list(range(levels[0], levels[-1] + 1))


def test_far_pairs_satisfy_norm_gap(small_ws):
    sched = small_ws
    pts = sg.generate_annular(21, sched, 8, 2, "mixed")
    norms = sg.point_norms(pts)
    logs = sg.log_norms(pts)
    n = len(pts)
    seen_far = 0
    for a in range(n):
        for b in range(a + 1, n):
            hi, lo = (a, b) if logs[a] >= logs[b] else (b, a)
            cls = classify_lognorms(sched, logs[hi], logs[lo])
            if isinstance(cls, Far):
                seen_far += 1
                assert norms[lo] <= sched.params.delta * norms[hi] * (1 + 1e-12)
    assert seen_far > 0


def test_points_json_round_trip(tmp_path, small_ws):
    pts = sg.generate_annular(5, small_ws, 3, 2, "mixed")
    path = tmp_path / "pts.json"
    sg.save_points(pts, str(path))
    again = sg.load_points(str(path))
    assert again.space == pts.space
    assert np.array_equal(again.coords, pts.coords)
    assert again.includes_origin == pts.includes_origin
