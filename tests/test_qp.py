"""Anchor construction, simplex projection and the active-set QP solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoscan import qp
from paretoscan.core import DimensionMismatchError

from oracles import qp_grid_oracle


# ---------------------------------------------------------------------------
# profile, non-uniformity, anchor
# ---------------------------------------------------------------------------


def test_nonuniformity_against_hand_kl():
    # h = (0.25, 0.75): KL(h || uniform) = sum h log(2 h)
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert qp.nonuniformity([0.2, 0.6], [1.0, 1.0]) == pytest.approx(
        expected, abs=1e-15
    )
    assert qp.nonuniformity([0.3, 0.3], [1.0, 1.0]) == 0.0
    assert qp.nonuniformity([0.4, 0.2], [1.0, 2.0]) == 0.0


def test_nonuniformity_handles_zero_component():
    # h = (1, 0): 0 log 0 treated as 0, KL = log m
    assert qp.nonuniformity([0.5, 0.0], [1.0, 1.0]) == pytest.approx(math.log(2.0))
    # every weighted loss zero: no profile exists
    with pytest.raises(qp.DegenerateLossError):
        qp.nonuniformity([0.0, 0.0], [1.0, 1.0])


def test_active_index_set_regimes():
    # unbalanced profile: every objective stays constrained
    assert qp.active_index_set([0.2, 0.6], [1.0, 1.0]) == [0, 1]
    # balanced: only the maximizers (here a tie) remain
    assert qp.active_index_set([0.3, 0.3], [1.0, 1.0]) == [0, 1]
    assert qp.active_index_set([0.30000001, 0.3], [1.0, 1.0]) == [0]


def test_anchor_direction_balanced_is_weighted_losses():
    a = qp.anchor_direction([0.4, 0.2], [1.0, 2.0])
    assert a == pytest.approx([0.4, 0.4])


def test_anchor_direction_unbalanced_log_ratio():
    mu = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    a = qp.anchor_direction([0.2, 0.6], [1.0, 1.0])
    assert a == pytest.approx([math.log(0.5) - mu, math.log(1.5) - mu], abs=1e-12)
    # weights scale the anchor componentwise
    a2 = qp.anchor_direction([0.2, 0.6], [2.0, 2.0])
    weighted = np.array([0.2, 0.6]) * 2.0
    assert weighted / weighted.sum() == pytest.approx([0.25, 0.75])
    assert a2 == pytest.approx(2.0 * a, abs=1e-12)


def test_paired_validation():
    with pytest.raises(DimensionMismatchError):
        qp.nonuniformity([0.2, 0.6], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def test_project_simplex_known_cases():
    assert qp.project_simplex(np.array([0.5, 0.5])) == pytest.approx([0.5, 0.5])
    assert qp.project_simplex(np.array([2.0, 0.0])) == pytest.approx([1.0, 0.0])
    assert qp.project_simplex(np.array([0.4, 0.1, 0.1])) == pytest.approx(
        [0.4 + 0.4 / 3, 0.1 + 0.4 / 3, 0.1 + 0.4 / 3]
    )
    assert qp.project_simplex(np.array([-1.0, 1.0])) == pytest.approx([0.0, 1.0])


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_project_simplex_properties(seed, m):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=3.0, size=m)
    p = qp.project_simplex(v)
    assert p.min() >= 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    again = qp.project_simplex(p)
    assert again == pytest.approx(p, abs=1e-9)
    # projection optimality: p is no farther from v than random simplex points
    q = rng.dirichlet(np.ones(m))
    assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-9
    # a 2-D input is projected row by row, with the same bits
    rows = rng.normal(scale=3.0, size=(4, m))
    rows[1] = v
    rows[2, :] = rows[2, 0]  # all components tied
    expected = np.stack([qp.project_simplex(row) for row in rows])
    assert np.array_equal(qp.project_simplex(rows), expected)


@pytest.mark.parametrize("scale", [1e18, 1e19, 1e50, 1e100, 1e200, 1e300])
def test_project_simplex_keeps_the_unit_sum_at_large_scales(scale):
    # cumsum - 1 cannot see the 1 once the entries pass about 1e16, so the
    # first pass of such a row misses the simplex; a row shifted by its
    # maximum has the same projection and no such cancellation
    v = np.array([0.75 * scale, 0.75 * scale, scale])
    assert np.array_equal(qp.project_simplex(v), [0.0, 0.0, 1.0])
    rows = np.array([[0.75, 0.75, 1.0], [1.0, -1.0, 0.5], [0.5, 0.5, 0.5]]) * scale
    out = qp.project_simplex(rows)
    assert np.array_equal(out[:2], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert out[2] == pytest.approx([1.0 / 3.0] * 3, abs=1e-15)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)


def test_project_simplex_mends_only_the_rows_that_miss():
    rng = np.random.default_rng(3)
    rows = rng.normal(scale=3.0, size=(5, 3))
    accurate = qp.project_simplex(rows)
    rows[2] = [3.75e18, 3.75e18, 5e18]
    rows[4, 1] = np.nan
    out = qp.project_simplex(rows)
    # the accurate rows keep their bits, the far row is mended and the NaN
    # row stays NaN, after one pass
    keep = [0, 1, 3]
    assert np.array_equal(out[keep], accurate[keep])
    assert np.array_equal(out[2], [0.0, 0.0, 1.0])
    assert np.isnan(out[4]).all()


# ---------------------------------------------------------------------------
# solve_qp
# ---------------------------------------------------------------------------


def test_solve_qp_m1_trivial():
    sol = qp.solve_qp(np.ones((4, 1)), np.array([0.3]), [0])
    assert sol.beta == pytest.approx([1.0])
    assert not sol.infeasible and not sol.degenerate


def test_solve_qp_zero_gradients_degenerate():
    sol = qp.solve_qp(np.zeros((5, 3)), np.zeros(3), [0, 1, 2])
    assert sol.degenerate
    assert sol.beta == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_solve_qp_identity_gram_hand_case():
    # M = I: minimize ||beta - a||^2 over the simplex = simplex projection
    G = np.eye(2)
    sol = qp.solve_qp(G, np.array([0.6, 0.1]), [])
    assert sol.beta == pytest.approx([0.75, 0.25], abs=1e-12)
    assert not sol.infeasible


def test_solve_qp_validation():
    with pytest.raises(ValueError):
        qp.solve_qp(np.ones((3,)), np.array([1.0]), [])
    with pytest.raises(DimensionMismatchError):
        qp.solve_qp(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]), [])
    with pytest.raises(ValueError):
        qp.solve_qp(np.ones((3, 2)), np.array([1.0, 2.0]), [5])
    with pytest.raises(ValueError):
        qp.solve_qp(np.array([[np.nan, 1.0]]), np.array([1.0, 2.0]), [])


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**9), st.integers(2, 4))
def test_solve_qp_always_returns_simplex_point(seed, m):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    G = rng.normal(size=(n, m))
    a = rng.normal(size=m)
    active = [int(j) for j in range(m) if rng.random() < 0.6]
    sol = qp.solve_qp(G, a, active)
    assert sol.beta.shape == (m,)
    assert float(sol.beta.min()) >= -1e-12
    assert float(sol.beta.sum()) == pytest.approx(1.0, abs=1e-9)
    if active and not sol.infeasible and not sol.degenerate:
        slack = (G.T @ G) @ sol.beta
        assert float(np.min(slack[active])) >= -1e-8


def _oracle_comparisons(rng, m, resolution, draw_gradients):
    """Solve five random instances and check each solution against the grid
    oracle; returns how many the grid could certify."""
    compared = 0
    for _ in range(5):
        G = draw_gradients()
        M = G.T @ G
        a = rng.normal(size=m)
        active = sorted(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
        sol = qp.solve_qp(G, a, active)
        if sol.infeasible:
            continue
        if active:
            assert float(np.min((M @ sol.beta)[active])) >= -1e-8
        arg, oracle_obj = qp_grid_oracle(M, a, active, resolution)
        if active and float(np.min((M @ arg)[active])) < -1e-8:
            continue  # grid too coarse to certify a feasible minimizer here
        compared += 1
        ours = float(np.sum((M @ sol.beta - a) ** 2))
        assert ours <= oracle_obj + 1e-4
    return compared


@pytest.mark.parametrize("m,resolution", [(2, 200), (3, 120), (4, 40)])
def test_solve_qp_matches_grid_oracle(m, resolution):
    rng = np.random.default_rng(1234 + m)

    def draw():
        return rng.normal(size=(int(rng.integers(m, 9)), m))

    assert _oracle_comparisons(rng, m, resolution, draw) >= 3


@pytest.mark.parametrize("m,resolution", [(3, 120), (4, 40)])
@pytest.mark.parametrize("kind", ["duplicate column", "zero column", "n < m"])
def test_solve_qp_rank_deficient_matches_grid_oracle(m, resolution, kind):
    # singular KKT patterns are skipped; another pattern must reach the optimum
    rng = np.random.default_rng(4321 + m)

    def draw():
        if kind == "n < m":
            return rng.normal(size=(int(rng.integers(1, m)), m))
        G = rng.normal(size=(int(rng.integers(m, 9)), m))
        i, j = rng.choice(m, size=2, replace=False)
        G[:, j] = G[:, i] if kind == "duplicate column" else 0.0
        return G

    assert _oracle_comparisons(rng, m, resolution, draw) >= 3


def test_solve_qp_realistic_balance_instances():
    # anchors and active sets as the descent loop would produce them
    rng = np.random.default_rng(7)
    for _ in range(6):
        m = int(rng.integers(2, 5))
        G = rng.normal(size=(6, m))
        losses = rng.uniform(0.05, 1.0, size=m)
        weights = rng.uniform(0.2, 1.0, size=m)
        a = qp.anchor_direction(losses, weights)
        active = qp.active_index_set(losses, weights)
        sol = qp.solve_qp(G, a, active)
        assert float(sol.beta.sum()) == pytest.approx(1.0, abs=1e-9)
        if not sol.infeasible:
            slack = (G.T @ G) @ sol.beta
            assert float(np.min(slack[active])) >= -1e-8


# ---------------------------------------------------------------------------
# warm start: one certified pattern in place of the enumeration (m >= 3)
# ---------------------------------------------------------------------------


def _instance(seed, m):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(int(rng.integers(m, 9)), m))
    act = np.flatnonzero(rng.random(m) < 0.6)
    return G, rng.normal(size=m), act


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**9), st.integers(3, 4))
def test_winning_pattern_certifies_the_enumerated_beta(seed, m):
    G, a, act = _instance(seed, m)
    M = G.T @ G
    sol, pattern = qp._solve_enumerated(M, a, act)
    if pattern is None:
        assert sol.infeasible
        return
    certified = qp._solve_certified(M, a, act, pattern)
    assert certified is not None
    assert np.array_equal(certified.beta, sol.beta)
    hinted, hint = qp._solve(M, a, act, (act, pattern))
    assert np.array_equal(hinted.beta, sol.beta)
    assert not hinted.infeasible and not hinted.degenerate
    assert hint[1] is pattern


@pytest.mark.parametrize("m", [3, 4])
def test_wrong_patterns_fall_back_to_the_enumeration(m):
    for seed in range(40):
        G, a, act = _instance(seed, m)
        M = G.T @ G
        sol, pattern = qp._solve_enumerated(M, a, act)
        assert pattern is not None
        for other in qp._patterns(m, m + act.size)[1]:
            if np.array_equal(other, pattern):
                continue
            assert qp._solve_certified(M, a, act, other) is None
            hinted, hint = qp._solve(M, a, act, (act, other))
            assert np.array_equal(hinted.beta, sol.beta)
            assert np.array_equal(hint[1], pattern)


def test_pattern_from_another_active_set_is_not_tried(monkeypatch):
    G, a, act = _instance(3, 4)
    sol, pattern = qp._solve_enumerated(G.T @ G, a, act)
    tried = []
    monkeypatch.setattr(qp, "_solve_certified", lambda *args: tried.append(args))
    other_act = np.setdiff1d(np.arange(4), act)
    hinted, hint = qp._solve(G.T @ G, a, act, (other_act, pattern))
    assert tried == []
    assert np.array_equal(hinted.beta, sol.beta)
    assert hint[0] is act and np.array_equal(hint[1], pattern)


def test_wrong_multiplier_sign_falls_back():
    # M = I and a on the simplex: the optimum is a itself, inside the simplex.
    # Holding beta_0 = 0 gives a feasible point whose bound multiplier has
    # the wrong sign (the objective would rather raise beta_0).
    G, a, act = np.eye(3), np.array([0.5, 0.3, 0.2]), np.arange(3)
    M = G.T @ G
    sol, pattern = qp._solve_enumerated(M, a, act)
    assert pattern.size == 0 and sol.beta == pytest.approx(a, abs=1e-15)
    bound = np.array([0])
    Q2, c2, rows = qp._qp_data(M, a, act)
    beta, nu = qp._kkt_points(Q2, c2, rows, bound[None])
    assert beta[0] == pytest.approx([0.0, 0.55, 0.45], abs=1e-12)
    assert nu[0, 1] > 0.0
    assert qp._solve_certified(M, a, act, bound) is None
    hinted, hint = qp._solve(M, a, act, (act, bound))
    assert np.array_equal(hinted.beta, sol.beta)
    assert hint[1] is pattern


def test_infeasible_enumeration_gives_no_hint():
    # At |G| ~ 1e6 the slack rows can fail the absolute KKT residual
    # tolerance, so no pattern meets the J constraints and the bound-only
    # fallback wins.
    rng = np.random.default_rng(0)
    G, a, act = rng.normal(size=(4, 3)) * 1e6, rng.normal(size=3) * 1e12, np.arange(3)
    sol, pattern = qp._solve_enumerated(G.T @ G, a, act)
    assert sol.infeasible and pattern is None
    some = qp._patterns(3, 6)[1][1]
    hinted, hint = qp._solve(G.T @ G, a, act, (act, some))
    assert hint is None
    assert hinted.infeasible and np.array_equal(hinted.beta, sol.beta)


@pytest.mark.parametrize("m", [1, 2])
def test_small_m_never_hints(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        G = rng.normal(size=(4, m))
        assert qp._solve(G.T @ G, rng.normal(size=m), np.arange(m))[1] is None
    assert qp._solve(np.zeros((3, 3)), np.zeros(3), np.arange(3))[1] is None
