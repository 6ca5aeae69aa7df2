"""The slow reference routes: simplex grid, grid-search QP oracle, exact front."""

import numpy as np
import pytest

from oracles import exact_discrete_front, qp_grid_oracle, simplex_grid
from paretoscan.core import pareto_filter


def test_simplex_grid_2d():
    pts = simplex_grid(2, 4)
    assert pts.shape == (5, 2)
    assert pts.sum(axis=1) == pytest.approx(np.ones(5))
    assert pts[0] == pytest.approx([0.0, 1.0])
    assert pts[-1] == pytest.approx([1.0, 0.0])


def test_simplex_grid_3d_counts():
    pts = simplex_grid(3, 3)
    # compositions of 3 into 3 parts: C(5, 2) = 10
    assert pts.shape == (10, 3)
    assert pts.sum(axis=1) == pytest.approx(np.ones(10))
    assert np.all(pts >= 0.0)
    rows = {tuple(np.round(p, 12)) for p in pts}
    assert len(rows) == 10


def test_simplex_grid_4d_counts():
    pts = simplex_grid(4, 2)
    # compositions of 2 into 4 parts: C(5, 3) = 10
    assert pts.shape == (10, 4)


def test_simplex_grid_dimension_limits():
    with pytest.raises(ValueError):
        simplex_grid(5, 3)
    with pytest.raises(ValueError):
        simplex_grid(1, 3)


def test_qp_grid_oracle_identity_case():
    # with M = I the problem is a plain simplex projection of a
    beta, value = qp_grid_oracle(np.eye(2), np.array([0.6, 0.1]), [], 400)
    assert beta == pytest.approx([0.75, 0.25], abs=1e-6)
    assert value == pytest.approx(0.045, abs=1e-6)  # 2 * 0.15^2


def test_qp_grid_oracle_respects_active_constraints():
    # force (M b)_0 >= 0 with M pushing the first coordinate negative
    M = np.array([[-1.0, 1.0], [0.0, 1.0]])
    a = np.array([-1.0, 0.0])
    beta, _ = qp_grid_oracle(M, a, [0], 400)
    # the refinement stage works at 1e-9 steps, so allow oracle-scale slack
    assert (M @ beta)[0] >= -5e-8
    assert beta.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_exact_discrete_front_matches_pareto_filter(seed, m):
    # coarse levels give ties in single coordinates and in loss sums, and
    # repeated rows give exact duplicates on and off the front
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(40, m)) / 4.0
    pts = np.concatenate([pts, pts[rng.integers(0, 40, size=10)]])
    assert exact_discrete_front(pts) == pareto_filter(pts)


def test_exact_discrete_front_orders_rounded_sum_ties_by_coordinates():
    # both sums round to 1.0, yet the second row strictly dominates the first
    pts = [[2e-20, 1.0], [1e-20, 1.0]]
    assert exact_discrete_front(pts) == pareto_filter(pts) == [1]
