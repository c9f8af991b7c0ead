import math

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.errors import (
    BankExhausted,
    CertificationFailed,
    DimensionMismatch,
    NotStabilized,
)


def _rand_vectors(dim, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(dim) for _ in range(n)]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_block_shift_is_exact_isometry(p):
    src = sg.Space(3, sg.Lp(p))
    tgt = sg.Space(15, sg.Lp(p))
    certify = _rand_vectors(3, 50, 1)
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 5, certify)
    for lin in bank.maps:
        for v in certify:
            assert sg.norm(tgt, sg.apply(lin, v)) == pytest.approx(sg.norm(src, v), rel=1e-12)


def test_budget_and_uniform_split():
    src = sg.Space(2, sg.Lp(1.0))
    tgt = sg.Space(8, sg.Lp(1.0))
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.25, 4, _rand_vectors(2, 10, 2))
    assert len(set(bank.eps_n)) == 1
    assert np.prod([1.0 + e for e in bank.eps_n]) <= 1.25 * (1 + 1e-12)
    assert bank.eps_n[0] == pytest.approx(1.25 ** 0.25 - 1.0, rel=1e-12)


def test_certified_sandwich_margins():
    src = sg.Space(3, sg.Lp(2.0))
    tgt = sg.Space(12, sg.Lp(2.0))
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.1, 4, _rand_vectors(3, 80, 3))
    assert min(bank.cert_lower_margin) >= -1e-12
    assert min(bank.cert_upper_margin) >= -1e-12


def test_block_shift_requires_room():
    src = sg.Space(3, sg.Lp(2.0))
    tgt = sg.Space(10, sg.Lp(2.0))
    with pytest.raises(DimensionMismatch):
        sg.build_bank(sg.BlockShift(), src, tgt, 0.1, 4, _rand_vectors(3, 5, 4))


def test_user_matrices_below_isometry_fails_certification():
    src = sg.Space(2, sg.Lp(2.0))
    mats = (0.5 * np.eye(2), np.eye(2))
    with pytest.raises(CertificationFailed) as exc:
        sg.build_bank(sg.UserMatrices(mats), src, src, 0.1, 2, _rand_vectors(2, 5, 5))
    assert exc.value.map_index == 0
    assert exc.value.ratio == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_user_zero_matrix_fails_certification(p):
    # a zero map has an empty hull: its images are certified (and fail) like
    # any other map's, for a norm that images on the hull alone too
    src = sg.Space(2, sg.Lp(p))
    mats = (np.zeros((2, 2)), np.eye(2))
    with pytest.raises(CertificationFailed) as exc:
        sg.build_bank(sg.UserMatrices(mats), src, src, 0.1, 2, _rand_vectors(2, 5, 5))
    assert exc.value.map_index == 0
    assert exc.value.ratio == 0.0


def test_user_matrices_above_budget_fails_certification():
    src = sg.Space(2, sg.Lp(2.0))
    mats = (np.eye(2), 1.5 * np.eye(2))
    with pytest.raises(CertificationFailed) as exc:
        sg.build_bank(sg.UserMatrices(mats), src, src, 0.1, 2, _rand_vectors(2, 5, 6))
    assert exc.value.map_index == 1


def test_quadrature_d2_certified_ratio():
    src = sg.Space(2, sg.Lp(2.0))
    tgt = sg.Space(5 * 64, sg.Lp(1.0))
    dense = [np.array([math.cos(a), math.sin(a)]) for a in np.linspace(0, 2 * math.pi, 1000)]
    bank = sg.build_bank(sg.QuadratureL2toL1(64, 5), src, tgt, 0.01, 5, dense)
    # dense sampling of the unit circle against the quadrature images
    spread_bound = 1.0 / math.cos(math.pi / 64)
    for lin in bank.maps:
        ratios = [sg.norm(tgt, sg.apply(lin, v)) for v in dense]
        assert min(ratios) >= 1.0 - 1e-12
        assert max(ratios) <= min(spread_bound, 1.02) * (1 + 1e-12)


def test_quadrature_requires_l2_to_l1():
    src = sg.Space(2, sg.Lp(1.0))
    tgt = sg.Space(128, sg.Lp(1.0))
    with pytest.raises(ValueError):
        sg.build_bank(sg.QuadratureL2toL1(64, 0), src, tgt, 0.01, 2, _rand_vectors(2, 5, 7))
    src2 = sg.Space(2, sg.Lp(2.0))
    tgt2 = sg.Space(128, sg.Lp(2.0))
    with pytest.raises(ValueError):
        sg.build_bank(sg.QuadratureL2toL1(64, 0), src2, tgt2, 0.01, 2, _rand_vectors(2, 5, 8))


def test_quadrature_higher_dimension_certifies_with_budget():
    src = sg.Space(3, sg.Lp(2.0))
    tgt = sg.Space(3 * 512, sg.Lp(1.0))
    bank = sg.build_bank(sg.QuadratureL2toL1(512, 11), src, tgt, 0.5, 3, _rand_vectors(3, 60, 9))
    assert min(bank.cert_lower_margin) >= -1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_spreading_matches_disjoint_support_value(p):
    src = sg.Space(3, sg.Lp(p))
    tgt = sg.Space(24, sg.Lp(p))
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 8, [np.ones(3)])
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = rng.standard_normal(3)
        u = u / sg.norm(src, u)
        c, s = rng.uniform(0.1, 1.0, size=2)
        est = sg.spreading_limit_estimate(bank, u, (c, s), tol=1e-9)
        expect = max(c, s) if p == math.inf else (c**p + s**p) ** (1.0 / p)
        assert est == pytest.approx(expect, rel=1e-12)


def test_spreading_single_coefficient():
    src = sg.Space(2, sg.Lp(2.0))
    tgt = sg.Space(8, sg.Lp(2.0))
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 4, [np.ones(2)])
    u = np.array([1.0, 0.0])
    assert sg.spreading_limit_estimate(bank, u, (1.0,), tol=1e-9) == pytest.approx(1.0)
    # trailing zeros are trimmed
    assert sg.spreading_limit_estimate(bank, u, (1.0, 0.0, 0.0), tol=1e-9) == pytest.approx(1.0)


def test_spreading_requires_unit_vector():
    src = sg.Space(2, sg.Lp(2.0))
    tgt = sg.Space(8, sg.Lp(2.0))
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 4, [np.ones(2)])
    with pytest.raises(ValueError):
        sg.spreading_limit_estimate(bank, [2.0, 0.0], (1.0,))
    with pytest.raises(ValueError):
        sg.spreading_limit_estimate(bank, [1.0, 0.0], (0.0, 0.0))


def test_spreading_not_stabilized_for_oscillating_bank():
    src = sg.Space(2, sg.Lp(2.0))
    # alternating scales stay inside the per-map slack (1.8^(1/6) - 1 ~ 0.103)
    # but never settle at the requested tolerance
    mats = tuple(np.eye(2) if n % 2 == 0 else 1.08 * np.eye(2) for n in range(6))
    bank = sg.build_bank(sg.UserMatrices(mats), src, src, 0.8, 6, _rand_vectors(2, 5, 10))
    with pytest.raises(NotStabilized):
        sg.spreading_limit_estimate(bank, [1.0, 0.0], (1.0,), tol=1e-3)


def test_spreading_lower_bound_consistency():
    src = sg.Space(2, sg.Lp(1.5))
    tgt = sg.Space(12, sg.Lp(1.5))
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 6, [np.ones(2)])
    u = np.array([1.0, 0.0])
    for tau in np.linspace(0.0, math.pi / 2, 25):
        c, s = math.cos(tau), math.sin(tau)
        est = sg.spreading_limit_estimate(bank, u, (c, s), tol=1e-9)
        assert est >= sg.spreading_lower_bound(c, s) - 1e-9


def _decomp_for(space, sched, coords):
    return sg.decompose(sg.make_point_set(space, coords), sched)


def test_selection_accepts_first_indices_for_block_shift(small_ws):
    sched = small_ws
    src = sg.Space(2, sg.Lp(1.0))
    tgt = sg.Space(10, sg.Lp(1.0))
    pts = sg.generate_annular(17, sched, 4, 2, "mixed", sg.Lp(1.0))
    dec = sg.decompose(pts, sched)
    certify = [row for row in pts.coords if np.any(row)]
    for dirs in dec.directions:
        certify.extend(dirs)
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 5, certify)
    sel = sg.select_subsequence(bank, dec, 0.01)
    assert sel.chosen_indices == (0, 1, 2, 3)
    assert all(m >= 0 for m in sel.worst_margins)
    assert sel.threshold == pytest.approx(math.sqrt(2) / (3 * 1.01), rel=1e-12)


def test_selection_vacuous_for_origin_only(small_ws):
    sched = small_ws
    src = sg.Space(2, sg.Lp(2.0))
    tgt = sg.Space(10, sg.Lp(2.0))
    dec = _decomp_for(src, sched, [[0.0, 0.0]])
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 5, [np.ones(2)])
    sel = sg.select_subsequence(bank, dec, 0.01)
    assert sel.chosen_indices == (0, 1, 2, 3)
    assert all(math.isinf(m) for m in sel.worst_margins)


def test_selection_exhausts_on_negated_pair():
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 1)
    src = sg.Space(2, sg.Lp(2.0))
    bank = sg.build_bank(
        sg.UserMatrices((np.eye(2), -np.eye(2))), src, src, 0.01, 2, [np.ones(2)]
    )
    # a point whose ramp angle is exactly the cancellation angle pi/4
    x = [math.exp(0.5 * math.pi), 0.0]
    dec = _decomp_for(src, sched, [x, [0.0, 0.0]])
    with pytest.raises(BankExhausted) as exc:
        sg.select_subsequence(bank, dec, 0.01)
    assert exc.value.level == 1
    assert exc.value.achieved < 1e-12
    assert exc.value.angle == pytest.approx(math.pi / 4, rel=1e-12)
    # a Python float, so the message prints the angle's repr, not np.float64(...)
    assert type(exc.value.angle) is float
    assert str(exc.value) == (
        "no admissible pair at level 1: best achieved norm 1.1102230246251565e-16 "
        "< threshold 0.46673714929805116 (worst angle 0.7853981633974483)"
    )


def test_selection_exhausts_at_a_later_level():
    # bank [E, E, -E, R], R the rotation by pi - 0.3: level 1 takes (0, 1),
    # then level 2 tries (1, 2), whose blend cancels at pi/4, and (1, 3),
    # whose blend at pi/4 has norm sqrt(1 - cos 0.3), the best failing witness
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 2)
    src = sg.Space(2, sg.Lp(2.0))
    phi = math.pi - 0.3
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    bank = sg.build_bank(
        sg.UserMatrices((np.eye(2), np.eye(2), -np.eye(2), rot)), src, src, 0.01, 4, [np.ones(2)]
    )
    # one point on each level, each at the level's ramp angle pi/4
    x1 = [math.exp(0.5 * math.pi), 0.0]
    x2 = [math.exp(float(sched.log_r[1]) + 0.5 * math.pi), 0.0]
    dec = _decomp_for(src, sched, [x1, x2, [0.0, 0.0]])
    assert all(len(level) == 1 for level in dec.directions)
    with pytest.raises(BankExhausted) as exc:
        sg.select_subsequence(bank, dec, 0.01)
    assert exc.value.level == 2
    assert exc.value.angle == pytest.approx(math.pi / 4, rel=1e-12)
    assert exc.value.achieved == pytest.approx(math.sqrt(1.0 - math.cos(0.3)), rel=1e-12)
    assert exc.value.achieved < exc.value.threshold
    assert exc.value.direction.tolist() == [1.0, 0.0]
    assert type(exc.value.angle) is float
    assert str(exc.value) == (
        "no admissible pair at level 2: best achieved norm 0.21133743367987123 "
        "< threshold 0.46673714929805116 (worst angle 0.7853981633974483)"
    )


def test_selection_skips_poisoned_candidate():
    # bank [E, -E, E]: the pair (0, 1) collapses but (0, 2) works
    params = sg.Params(0.5, 0.1, 0.01, 0.01)
    sched = sg.build_schedule(params, 1.0, 1)
    src = sg.Space(2, sg.Lp(2.0))
    bank = sg.build_bank(
        sg.UserMatrices((np.eye(2), -np.eye(2), np.eye(2))), src, src, 0.01, 3, [np.ones(2)]
    )
    x = [math.exp(0.5 * math.pi), 0.0]
    dec = _decomp_for(src, sched, [x, [0.0, 0.0]])
    sel = sg.select_subsequence(bank, dec, 0.01)
    assert sel.chosen_indices == (0, 2)


def test_selection_requires_enough_maps(small_ws):
    src = sg.Space(2, sg.Lp(2.0))
    tgt = sg.Space(6, sg.Lp(2.0))
    dec = _decomp_for(src, small_ws, [[0.0, 0.0]])
    bank = sg.build_bank(sg.BlockShift(), src, tgt, 0.01, 3, [np.ones(2)])
    with pytest.raises(ValueError):
        sg.select_subsequence(bank, dec, 0.01)
