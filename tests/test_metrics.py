"""Front metrics: exact hypervolume vs hand values, MC and the slicing
reference, coverage, summaries."""

import importlib.util
import itertools
from pathlib import Path

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

from oracles import hypervolume_by_slices, hypervolume_monte_carlo


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


_LATTICE = st.integers(0, 9).map(lambda k: k / 8)  # ties, duplicates, 1.0, 1.125


@pytest.mark.parametrize("m", [2, 3, 4])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_hypervolume_equals_the_slicing_reference_bit_for_bit(m, data):
    # the running-minimum sweep adds the same nonzero terms in the same order
    # as filtering each 2-D slice first, so the two agree exactly
    coord = data.draw(st.sampled_from([_LATTICE, st.floats(0.0, 1.2)]))
    rows = st.lists(coord, min_size=m, max_size=m)
    points = data.draw(st.lists(rows, min_size=1, max_size=30))
    ref = np.ones(m)
    assert hypervolume(points, ref) == hypervolume_by_slices(points, ref)


def _hv_scaling_script():
    """``scripts/hv_scaling.py`` as a module, for its seeded front generator."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "hv_scaling.py"
    spec = importlib.util.spec_from_file_location("hv_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hypervolume_equals_the_slicing_reference_on_a_concave_front():
    front = _hv_scaling_script().concave_front(100, 4, seed=27)
    ref = np.ones(4)
    assert hypervolume(front, ref) == hypervolume_by_slices(front, ref)


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


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda a: hypervolume(a, [1.0, 1.0]), "points"),
        (lambda a: front_coverage(a, [[0.5, 0.5]]), "archive_points"),
        (lambda a: front_coverage([[0.5, 0.5]], a), "true_front"),
    ],
    ids=["hypervolume", "coverage-archive", "coverage-front"],
)
def test_metrics_refuse_point_arrays_of_three_dimensions(call, name):
    # unchecked, a (2, 2, 2) array gives hv 0.25 and coverage 1.0 silently
    shape = r"must be a \(k, m\) array, got shape \(2, 2, 2\)"
    with pytest.raises(ValueError, match=f"{name} {shape}"):
        call(np.full((2, 2, 2), 0.5))


def test_metrics_accept_a_single_point():
    assert hypervolume([0.5, 0.5], [1.0, 1.0]) == 0.25
    assert front_coverage([0.5, 0.5], [0.5, 0.5]) == 1.0


def test_front_coverage_refuses_nan_points():
    truth = [[0.0, 0.0], [1.0, 1.0]]
    # a NaN distance is never within the radius: an archive NaN row would
    # leave every reference point uncovered, and a front NaN row missed
    with pytest.raises(ValueError, match="NaN"):
        front_coverage([[0.01, 0.01], [np.nan, 1.0]], truth)
    with pytest.raises(ValueError, match="NaN"):
        front_coverage([[0.01, 0.01]], [[0.0, 0.0], [np.nan, 1.0]])
