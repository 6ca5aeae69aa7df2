"""Weight-ray generators: sphere geometry, grids, positivity lift, CSV I/O."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paretoscan
from paretoscan.weights import (
    POSITIVITY_FLOOR,
    _halton_permutations,
    _halton_points,
    _ray,
    lift_positive,
    load_weights_csv,
    weight_grid,
)

_unit = st.floats(0.0, 1.0, allow_nan=False)


def test_weights_2d_endpoints_are_exact():
    assert _ray([0.0]).tolist() == [1.0, 0.0]
    assert _ray([1.0]).tolist() == [0.0, 1.0]  # cos snap at the boundary
    mid = _ray([0.5])
    assert mid == pytest.approx([math.sqrt(0.5)] * 2)


@settings(deadline=None, max_examples=200)
@given(_unit)
def test_weights_2d_stay_on_positive_unit_circle(u):
    w = _ray([u])
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)


def test_weights_2d_sweep_is_monotone():
    us = np.linspace(0.0, 1.0, 21)
    first = [_ray([u])[0] for u in us]
    second = [_ray([u])[1] for u in us]
    assert all(a > b for a, b in zip(first, first[1:]))
    assert all(a < b for a, b in zip(second, second[1:]))


@settings(deadline=None, max_examples=100)
@given(_unit, _unit)
def test_weights_3d_reduce_to_2d_on_the_boundary(u, v):
    w = _ray([u, v])
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)
    flat = _ray([u, 0.0])
    assert flat[:2] == pytest.approx(_ray([u]), abs=1e-12)
    assert flat[2] == 0.0


def test_weights_3d_pole():
    assert _ray([0.3, 1.0]).tolist() == [0.0, 0.0, 1.0]


@settings(deadline=None, max_examples=100)
@given(_unit, _unit, _unit)
def test_weights_4d_reduce_to_3d_on_the_boundary(u, v, z):
    w = _ray([u, v, z])
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0.0)
    flat = _ray([u, v, 0.0])
    assert flat[:3] == pytest.approx(_ray([u, v]), abs=1e-12)
    assert flat[3] == 0.0


def test_weights_4d_pole():
    assert _ray([0.3, 0.7, 1.0]).tolist() == [0.0, 0.0, 0.0, 1.0]


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
    rays = weight_grid(m, 25)
    assert len(rays) == 25
    keys = {tuple(np.round(w, 12)) for w in rays}
    assert len(keys) == 25
    for w in rays:
        assert w.size == m
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)


def test_weight_grid_is_deterministic():
    a = weight_grid(3, 10)
    b = weight_grid(3, 10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_weight_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weight_grid(5, 3)
    with pytest.raises(ValueError):
        weight_grid(2, 0)


# The 12-ray grids of acceptance test 4 (m = 3) and the benchmark (m = 4).
_PINNED_GRIDS = {
    3: [
        (0.9864663919721269, 0.15484625856727458, 0.053913761853639774),
        (0.40832690528143933, 0.5603864599156317, 0.7205804285203065),
        (0.7867775439172506, 0.480646214649393, 0.387247095186973),
        (0.2315674674797755, 0.9587196145422138, 0.16502487296475096),
        (0.5211840493947238, 0.1914585322257552, 0.8316915396314175),
        (0.3640517292963734, 0.7868325340322909, 0.49835820629808414),
        (0.7066703332629276, 0.6514337712956846, 0.2761359840758621),
        (0.013546807671326211, 0.33307603599595365, 0.9428026507425286),
        (0.7914982483368177, 0.045581509590171834, 0.6094693174091953),
        (0.6651882459838683, 0.7464849453032322, 0.016876724816602826),
        (0.65717396311151, 0.3176331440008457, 0.6835433914832694),
        (0.308102281323398, 0.8845484155284753, 0.350210058149936),
    ],
    4: [
        (0.940787810713658, 0.14767606254022633, 0.0514172711755764, 0.3007762290974384),
        (0.29129272057302713, 0.39976914175812445, 0.5140485006019486, 0.7007762290974384),
        (0.7827721517152417, 0.47819930114129183, 0.38527566564211085, 0.10077622909743832),
        (0.20043942369605294, 0.829845440364919, 0.14284169876089323, 0.5007762290974385),
        (0.22634164914911145, 0.08314728736992778, 0.36118993833782576, 0.9007762290974384),
        (0.3514552751796401, 0.7596075571542878, 0.4811146505774057, 0.2607762290974386),
        (0.5304147082332806, 0.4889550862276631, 0.20726296341042671, 0.6607762290974386),
        (0.013521765264258346, 0.3324603170841382, 0.9410598011843606, 0.060776229097438496),
        (0.7024676342466519, 0.040454334895221836, 0.5409139823695097, 0.46077622909743854),
        (0.33856989397261206, 0.37994857893143774, 0.008589975794462159, 0.8607762290974385),
        (0.6409578590222059, 0.30979538350750024, 0.6666766082446768, 0.22077622909743833),
        (0.24154843026751235, 0.6934751678850763, 0.2745604136608744, 0.6207762290974385),
    ],
}


@pytest.mark.parametrize("m", [3, 4])
def test_weight_grid_rays_are_pinned(m):
    assert [tuple(w.tolist()) for w in weight_grid(m, 12)] == _PINNED_GRIDS[m]


@pytest.mark.parametrize("d", [2, 3])
def test_halton_matches_scipy_over_successive_draws(d):
    qmc = pytest.importorskip("scipy.stats.qmc")
    sampler = qmc.Halton(d=d, seed=0)
    perms = _halton_permutations(d)
    start = 0
    for n in (1, 5, 8, 12, 64):
        assert np.array_equal(_halton_points(perms, start, n), sampler.random(n))
        start += n


def test_no_code_path_needs_scipy(tmp_path):
    code = textwrap.dedent(
        f"""
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError("scipy is blocked")
                return None

        sys.meta_path.insert(0, BlockScipy())
        from paretoscan import cli, weight_grid

        assert len(weight_grid(3, 12)) == 12
        assert len(weight_grid(4, 4)) == 4
        run = ["run", "--task", "synthetic", "-T", "2", "-K", "2", "-C", "2"]
        assert cli.main(run + ["-o", {str(tmp_path / "run")!r}]) == 0
        scan = ["scan", "--task", "ngram-uni", "-T", "1", "-K", "1", "-C", "2", "--weights", "3"]
        assert cli.main(scan + ["-o", {str(tmp_path / "scan")!r}]) == 0
        assert "scipy" not in sys.modules
        """
    )
    src = Path(paretoscan.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, stdout=subprocess.DEVNULL)


def test_lift_positive_floors_zeros():
    # a tiny positive component is floored like a zero one
    want = np.array([1.0, POSITIVITY_FLOOR])
    for ray in ([1.0, 0.0], [1.0, 1e-6]):
        lifted = lift_positive(ray)
        assert np.all(lifted > 0.0)
        assert np.linalg.norm(lifted) == pytest.approx(1.0)
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
    rays = weight_grid(3, 7)
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
