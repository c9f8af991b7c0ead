import math

import numpy as np
import pytest

import spiralglue as sg
from spiralglue.errors import DimensionMismatch


def norm_axioms_max_violation(space, samples=200, seed=0):
    """Worst violation of the triangle inequality and absolute homogeneity
    over random unit-scale samples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(space.dim)
        y = rng.standard_normal(space.dim)
        a = rng.uniform(-3.0, 3.0)
        nx, ny = sg.norm(space, x), sg.norm(space, y)
        worst = max(worst, sg.norm(space, x + y) - nx - ny)
        if nx > 0:
            worst = max(worst, abs(sg.norm(space, a * x) - abs(a) * nx) / nx)
    return worst


def test_lp_norm_examples():
    assert sg.norm(sg.Space(2, sg.Lp(2.0)), [3.0, 4.0]) == 5.0
    assert sg.norm(sg.Space(3, sg.Lp(1.0)), [1.0, -2.0, 3.0]) == 6.0
    assert sg.norm(sg.Space(3, sg.Lp(math.inf)), [1.0, -2.0, 3.0]) == 3.0


def test_norm_zero_iff_zero_vector():
    space = sg.Space(3, sg.Lp(1.5))
    assert sg.norm(space, np.zeros(3)) == 0.0
    assert sg.norm(space, [0.0, 1e-300, 0.0]) > 0.0


def test_norm_huge_coordinates_no_overflow():
    # p-power sums would overflow without rescaling
    space = sg.Space(2, sg.Lp(4.0))
    x = np.array([3e200, 4e200])
    v = sg.norm(space, x)
    assert math.isfinite(v) and v == pytest.approx((3e200**1) * (1 + (4 / 3) ** 4) ** 0.25, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        sg.Lp(1.0),
        sg.Lp(1.5),
        sg.Lp(2.0),
        sg.Lp(7.0),
        sg.Lp(math.inf),
        sg.WeightedLp(2.0, np.array([1.0, 2.0, 0.5])),
        sg.WeightedLp(math.inf, np.array([1.0, 2.0, 0.5])),
        sg.MaxAbsFunctionals(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 1.0]])),
    ],
)
def test_norm_axioms_randomized(spec):
    space = sg.Space(3, spec)
    assert norm_axioms_max_violation(space, samples=300, seed=11) <= 1e-12


def test_weighted_lp_requires_positive_weights():
    with pytest.raises(ValueError):
        sg.WeightedLp(2.0, np.array([1.0, 0.0]))


def test_max_abs_requires_full_span():
    with pytest.raises(ValueError):
        sg.Space(2, sg.MaxAbsFunctionals(np.array([[1.0, 0.0], [2.0, 0.0]])))


def test_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sg.norm(sg.Space(3, sg.Lp(2.0)), [1.0, 2.0])


def test_apply_examples():
    space = sg.Space(2, sg.Lp(2.0))
    ident = sg.LinearMap(np.eye(2), space, space)
    zero = sg.LinearMap(np.zeros((2, 2)), space, space)
    swap = sg.LinearMap(np.array([[0.0, 1.0], [1.0, 0.0]]), space, space)
    x = np.array([1.0, 2.0])
    assert np.array_equal(sg.apply(ident, x), x)
    assert np.array_equal(sg.apply(zero, x), np.zeros(2))
    assert np.array_equal(sg.apply(swap, x), np.array([2.0, 1.0]))


def test_apply_dimension_mismatch():
    space = sg.Space(2, sg.Lp(2.0))
    ident = sg.LinearMap(np.eye(2), space, space)
    for bad in ([1.0, 2.0, 3.0], np.ones((4, 3)), np.ones((1, 2, 2)), 1.0):
        with pytest.raises(DimensionMismatch):
            sg.apply(ident, bad)


def test_vectors_and_maps_are_read_only():
    space = sg.Space(2, sg.Lp(2.0))
    m = sg.LinearMap(np.eye(2), space, space)
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 5.0


@pytest.mark.parametrize(
    "spec",
    [
        sg.Lp(1.0),
        sg.Lp(math.inf),
        sg.WeightedLp(3.0, np.array([1.0, 0.25])),
        sg.MaxAbsFunctionals(np.array([[1.0, 0.5], [0.0, 2.0]])),
    ],
)
def test_norm_spec_json_round_trip(spec):
    assert sg.norm_from_dict(sg.norm_to_dict(spec)) == spec


def test_space_json_round_trip():
    space = sg.Space(2, sg.Lp(math.inf))
    again = sg.space_from_dict(sg.space_to_dict(space))
    assert again == space
