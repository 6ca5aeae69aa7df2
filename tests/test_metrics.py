"""Front metrics: exact hypervolume vs hand values and MC, coverage, summaries."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretoscan.core import EmptyInputError
from paretoscan.metrics import (
    UnsupportedDimensionError,
    front_coverage,
    hypervolume,
    nonuniformity_report,
    ray_nonuniformity,
)

from oracles import hypervolume_monte_carlo


def test_hypervolume_two_points_2d():
    # (1-0.2)(1-0.6) + (1-0.5)(0.6-0.3) = 0.32 + 0.15
    assert hypervolume([[0.2, 0.6], [0.5, 0.3]], [1.0, 1.0]) == pytest.approx(0.47)


def test_hypervolume_ignores_dominated_and_outside_points():
    base = hypervolume([[0.2, 0.6], [0.5, 0.3]], [1.0, 1.0])
    padded = hypervolume(
        [[0.2, 0.6], [0.5, 0.3], [0.6, 0.7], [2.0, -1.0]], [1.0, 1.0]
    )
    assert padded == pytest.approx(base)
    # on the reference boundary means zero clipped contribution
    assert hypervolume([[1.0, 0.0]], [1.0, 1.0]) == 0.0


@pytest.mark.parametrize(
    "points",
    [[[np.nan, 0.5]], [[0.2, 0.5], [np.nan, 0.1]], [[0.2, 0.5], [2.0, np.nan]]],
)
def test_hypervolume_refuses_nan_points(points):
    # a NaN row fails the inside-the-box test, so it must be refused before
    # that filter drops it, as a -inf row is refused
    with pytest.raises(ValueError, match="NaN"):
        hypervolume(points, [1.0, 1.0])


def test_hypervolume_empty_is_zero():
    assert hypervolume([], [1.0, 1.0]) == 0.0
    assert hypervolume(np.empty((0, 3)), [1.0, 1.0, 1.0]) == 0.0


def test_hypervolume_3d_hand_values():
    assert hypervolume([[0.5, 0.5, 0.5]], [1.0, 1.0, 1.0]) == pytest.approx(0.125)
    # inclusion-exclusion: 0.125 + 0.8*0.2*0.4 - 0.5*0.2*0.4
    union = hypervolume([[0.5, 0.5, 0.5], [0.2, 0.8, 0.6]], [1.0, 1.0, 1.0])
    assert union == pytest.approx(0.149)


def test_hypervolume_3d_merges_equal_slab_levels():
    # both points share the last coordinate: one slab, union of two rectangles
    # 0.125 + 0.8*0.3*0.5 - 0.5*0.3*0.5
    tied = hypervolume([[0.5, 0.5, 0.5], [0.2, 0.7, 0.5]], [1.0, 1.0, 1.0])
    assert tied == pytest.approx(0.17)


def test_hypervolume_4d_hand_values():
    ref = [1.0, 1.0, 1.0, 1.0]
    assert hypervolume([[0.5] * 4], ref) == pytest.approx(0.0625)
    # 0.0625 + 0.8*0.2*0.4*0.6 - 0.5*0.2*0.4*0.5
    union = hypervolume([[0.5] * 4, [0.2, 0.8, 0.6, 0.4]], ref)
    assert union == pytest.approx(0.0809)


def test_hypervolume_dimension_limits():
    with pytest.raises(UnsupportedDimensionError):
        hypervolume([[0.5]], [1.0])
    with pytest.raises(UnsupportedDimensionError):
        hypervolume([[0.5] * 5], [1.0] * 5)
    with pytest.raises(ValueError):
        hypervolume([[0.5, 0.5, 0.5]], [1.0, 1.0])


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10**9), st.integers(2, 4))
def test_hypervolume_grows_when_points_are_added(seed, m):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(6, m))
    ref = np.ones(m)
    base = hypervolume(pts[:4], ref)
    grown = hypervolume(pts, ref)
    assert grown >= base - 1e-12
    assert grown <= 1.0 + 1e-12


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 4))
def test_hypervolume_agrees_with_monte_carlo(seed, m):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.1, 0.9, size=(5, m))
    ref = np.ones(m)
    exact = hypervolume(pts, ref)
    est, se = hypervolume_monte_carlo(pts, ref, samples=40000, seed=seed)
    assert abs(exact - est) <= max(4.0 * se, 1e-9)


def _inclusion_exclusion_volume(pts, ref):
    """Volume of the union of the boxes [p, ref], summed over every subset."""
    total = 0.0
    for k in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, k):
            corner = np.max(subset, axis=0)
            total += (-1) ** (k + 1) * float(np.prod(ref - corner))
    return total


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**9), st.integers(2, 4))
@example(seed=362, m=4)
def test_hypervolume_equals_inclusion_exclusion(seed, m):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.1, 0.9, size=(5, m))
    ref = np.ones(m)
    assert abs(hypervolume(pts, ref) - _inclusion_exclusion_volume(pts, ref)) <= 1e-12


def test_monte_carlo_is_deterministic_per_seed():
    pts = [[0.3, 0.4], [0.5, 0.2]]
    a = hypervolume_monte_carlo(pts, [1.0, 1.0], samples=10000, seed=7)
    b = hypervolume_monte_carlo(pts, [1.0, 1.0], samples=10000, seed=7)
    assert a == b
    c = hypervolume_monte_carlo(pts, [1.0, 1.0], samples=10000, seed=8)
    assert a != c


def test_monte_carlo_empty_front():
    assert hypervolume_monte_carlo([], [1.0, 1.0]) == (0.0, 0.0)
    assert hypervolume_monte_carlo([[1.5, 1.5]], [1.0, 1.0]) == (0.0, 0.0)


def test_nonuniformity_report_ranks_best_runs():
    # the five smallest finite values: 0.1, 0.2, 0.3, 0.4, 0.5 (mean 0.3)
    vals = [0.9, 0.5, 0.1, float("nan"), 0.3, 0.7, 0.2, 0.4]
    assert nonuniformity_report(vals) == pytest.approx(0.3)
    assert nonuniformity_report([0.4, 0.2]) == pytest.approx(0.3)
    with pytest.raises(EmptyInputError):
        nonuniformity_report([float("nan"), float("nan")])


def test_ray_nonuniformity_values():
    assert ray_nonuniformity([0.2, 0.6], [1.0, 1.0]) == pytest.approx(
        0.1308120359411368
    )
    assert np.isnan(ray_nonuniformity([0.0, 0.0], [1.0, 1.0]))


def test_front_coverage_counts_captured_reference_points():
    truth = [[0.0, 0.0], [1.0, 1.0]]
    # capture distance 0.05
    assert front_coverage([[0.01, 0.01]], truth) == pytest.approx(0.5)
    assert front_coverage([[0.01, 0.01], [1.0, 1.01]], truth) == 1.0
    assert front_coverage([[0.04, 0.0], [1.0, 1.06]], truth) == pytest.approx(0.5)
    assert front_coverage([[0.2, 0.2]], truth) == 0.0


def test_front_coverage_edge_cases():
    assert front_coverage([], [[0.0, 0.0]]) == 0.0
    with pytest.raises(EmptyInputError):
        front_coverage([[0.0, 0.0]], [])
    with pytest.raises(ValueError):
        front_coverage([[0.0, 0.0, 0.0]], [[0.0, 0.0]])


def test_front_coverage_refuses_nan_points():
    truth = [[0.0, 0.0], [1.0, 1.0]]
    # a NaN distance is never within the radius: an archive NaN row would
    # leave every reference point uncovered, and a front NaN row missed
    with pytest.raises(ValueError, match="NaN"):
        front_coverage([[0.01, 0.01], [np.nan, 1.0]], truth)
    with pytest.raises(ValueError, match="NaN"):
        front_coverage([[0.01, 0.01]], [[0.0, 0.0], [np.nan, 1.0]])
