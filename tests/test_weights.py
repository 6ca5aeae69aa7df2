"""Weight-ray generators: sphere geometry, grids, positivity lift, CSV I/O."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretoscan
from paretoscan.weights import (
    POSITIVITY_FLOOR,
    lift_positive,
    load_weights_csv,
    weight_grid,
    weights_2d,
    weights_3d,
    weights_4d,
)

_unit = st.floats(0.0, 1.0, allow_nan=False)


def test_weights_2d_endpoints_are_exact():
    assert weights_2d(0.0).tolist() == [1.0, 0.0]
    assert weights_2d(1.0).tolist() == [0.0, 1.0]  # cos snap at the boundary
    mid = weights_2d(0.5)
    assert mid == pytest.approx([math.sqrt(0.5)] * 2)


@settings(deadline=None, max_examples=200)
@given(_unit)
def test_weights_2d_stay_on_positive_unit_circle(u):
    w = weights_2d(u)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)


def test_weights_2d_sweep_is_monotone():
    us = np.linspace(0.0, 1.0, 21)
    first = [weights_2d(u)[0] for u in us]
    second = [weights_2d(u)[1] for u in us]
    assert all(a > b for a, b in zip(first, first[1:]))
    assert all(a < b for a, b in zip(second, second[1:]))


def test_weights_coordinate_range_checks():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            weights_2d(bad)
        with pytest.raises(ValueError):
            weights_3d(0.5, bad)
        with pytest.raises(ValueError):
            weights_4d(0.5, 0.5, bad)


@settings(deadline=None, max_examples=100)
@given(_unit, _unit)
def test_weights_3d_reduce_to_2d_on_the_boundary(u, v):
    w = weights_3d(u, v)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)
    flat = weights_3d(u, 0.0)
    assert flat[:2] == pytest.approx(weights_2d(u), abs=1e-12)
    assert flat[2] == 0.0


def test_weights_3d_pole():
    assert weights_3d(0.3, 1.0).tolist() == [0.0, 0.0, 1.0]


@settings(deadline=None, max_examples=100)
@given(_unit, _unit, _unit)
def test_weights_4d_reduce_to_3d_on_the_boundary(u, v, z):
    w = weights_4d(u, v, z)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)
    flat = weights_4d(u, v, 0.0)
    assert flat[:3] == pytest.approx(weights_3d(u, v), abs=1e-12)
    assert flat[3] == 0.0


def test_weights_4d_pole():
    assert weights_4d(0.3, 0.7, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_weight_grid_2d_spacing():
    rays = weight_grid(2, 5)
    assert len(rays) == 5
    assert rays[0].tolist() == [1.0, 0.0]
    assert rays[-1].tolist() == [0.0, 1.0]
    assert rays[2] == pytest.approx([math.sqrt(0.5)] * 2)
    solo = weight_grid(2, 1)
    assert solo[0] == pytest.approx([math.sqrt(0.5)] * 2)


@pytest.mark.parametrize("m", [3, 4])
def test_weight_grid_higher_dims_are_unique_unit_rays(m):
    rays = weight_grid(m, 25, seed=2)
    assert len(rays) == 25
    keys = {tuple(np.round(w, 12)) for w in rays}
    assert len(keys) == 25
    for w in rays:
        assert w.size == m
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)


def test_weight_grid_is_deterministic():
    a = weight_grid(3, 10, seed=4)
    b = weight_grid(3, 10, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_weight_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weight_grid(5, 3)
    with pytest.raises(ValueError):
        weight_grid(2, 0)


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy.stats is imported only by the m >= 3 grids
    code = "import sys, paretoscan; assert 'scipy' not in sys.modules"
    src = Path(paretoscan.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_lift_positive_floors_zeros():
    lifted = lift_positive([1.0, 0.0])
    assert np.all(lifted > 0.0)
    assert np.linalg.norm(lifted) == pytest.approx(1.0)
    want = np.array([1.0, POSITIVITY_FLOOR])
    assert lifted == pytest.approx(want / np.linalg.norm(want))
    # already-positive rays pass through untouched
    assert lift_positive([0.6, 0.8]).tolist() == [0.6, 0.8]
    with pytest.raises(ValueError):
        lift_positive([0.5, -0.5])
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [1e308, 1e308]):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            lift_positive(bad)


def _rays_csv(rays) -> str:
    lines = ["lambda_1,lambda_2,lambda_3"]
    lines += [",".join(repr(float(x)) for x in w) for w in rays]
    return "\n".join(lines) + "\n"


def test_weights_csv_round_trip_is_byte_identical(tmp_path):
    rays = weight_grid(3, 7, seed=1)
    path = tmp_path / "rays.csv"
    path.write_text(_rays_csv(rays))
    loaded = load_weights_csv(path)
    assert len(loaded) == len(rays)
    assert all(np.array_equal(a, b) for a, b in zip(rays, loaded))
    assert _rays_csv(loaded) == path.read_text()


def test_weights_csv_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda_1,lambda_2\n0.5,0.5,0.5\n")
    with pytest.raises(ValueError, match="row 2"):
        load_weights_csv(path)
    path.write_text("lambda_1,lambda_2\n0.5,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        load_weights_csv(path)
    path.write_text("lambda_1,lambda_2\n0.5,-0.5\n")
    with pytest.raises(ValueError, match="row 2"):
        load_weights_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_weights_csv(path)
    path.write_text("lambda_1,lambda_2\n")
    with pytest.raises(ValueError, match="no rows"):
        load_weights_csv(path)
