"""Anchor construction, simplex projection and the active-set QP solver."""

import math
from unittest import mock

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
    beta, nu = qp._kkt_points(Q2, c2, rows[bound[None]])
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


# ---------------------------------------------------------------------------
# stacked solves: a stack of rows equals each row solved alone, bit for bit
# ---------------------------------------------------------------------------

_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-1e3, 1e3))
_MASKS = st.sampled_from([(True, True), (True, False), (False, True), (False, False)])


@st.composite
def _m2_row(draw):
    """One m = 2 row (M, a, active mask), often one of the interval
    solve's edge cases."""
    kind = draw(st.sampled_from(["free", "refused", "relief", "flat+", "flat-", "zero"]))
    mask = np.array(draw(_MASKS))
    a = np.array([draw(_ENTRY), draw(_ENTRY)])
    M = np.array([[draw(_ENTRY), draw(_ENTRY)], [draw(_ENTRY), draw(_ENTRY)]])
    if kind == "refused":  # d_j = 0 with c_j < 0
        j = draw(st.integers(0, 1))
        mask[j] = True
        M[j, 1] = -draw(st.floats(1e-6, 1e3))
        M[j, 0] = M[j, 1]
    elif kind == "relief":  # lo > hi by 1e-9, an interval only _RELIEF opens
        M = np.array([[0.5 - 1e-9, -0.5 - 1e-9], [-0.5, 0.5]])
        mask[:] = True
    elif kind in ("flat+", "flat-"):  # alpha underflows to 0, half_beta keeps its sign
        M = np.array([[1e-170, 0.0], [1e-170, 0.0]])
        a[:] = -1.0 if kind == "flat+" else 1.0
    elif kind == "zero":
        M[:] = 0.0
    return M, a, mask


@settings(deadline=None, max_examples=300)
@given(st.lists(_m2_row(), min_size=1, max_size=8))
def test_stacked_m2_solve_equals_the_scalar_solve(rows):
    M = np.array([row[0] for row in rows])
    A = np.array([row[1] for row in rows])
    act = np.array([row[2] for row in rows])
    beta, infeasible = qp._solve_m2_rows(M, A, act)
    for i, (Mi, ai, mask) in enumerate(rows):
        want, flag = qp._solve_m2(Mi, ai, np.flatnonzero(mask))
        assert beta[i].tobytes() == want.tobytes(), (Mi, ai, mask)
        assert bool(infeasible[i]) is flag
    # through the stacked dispatch, as one stack and row by row: an
    # all-zero Gram is degenerate, as alone
    for stack_from in (1, len(rows) + 1):
        with mock.patch.object(qp, "_M2_STACK", stack_from):
            stacked, degenerate, hints = qp._solve_rows(M, A, act, [None] * len(rows))
        assert hints == [None] * len(rows)
        for i, (Mi, ai, mask) in enumerate(rows):
            alone, hint = qp._solve(Mi, ai, np.flatnonzero(mask))
            assert bool(degenerate[i]) is alone.degenerate and hint is None
            if not alone.degenerate:
                assert stacked[i].tobytes() == alone.beta.tobytes()


def test_a_small_m2_stack_solves_row_by_row(monkeypatch):
    # _M2_STACK counts the live rows: a degenerate row does not make a
    # stack of _M2_STACK - 1 solvable rows big enough to stack
    stacks, rows_alone = [], []
    solve_m2, solve_m2_rows = qp._solve_m2, qp._solve_m2_rows

    def counting(M, a, act):
        rows_alone.append(len(act))
        return solve_m2(M, a, act)

    def counting_rows(M, A, act):
        stacks.append(len(M))
        return solve_m2_rows(M, A, act)

    monkeypatch.setattr(qp, "_solve_m2", counting)
    monkeypatch.setattr(qp, "_solve_m2_rows", counting_rows)
    rng = np.random.default_rng(3)
    for live in (qp._M2_STACK - 1, qp._M2_STACK):
        G = rng.normal(size=(live + 1, 5, 2))
        M = np.einsum("rni,rnj->rij", G, G)
        M[0] = 0.0  # degenerate
        A = rng.random((live + 1, 2))
        act = rng.random((live + 1, 2)) < 0.6
        beta, degenerate, _ = qp._solve_rows(M, A, act, [None] * (live + 1))
        assert degenerate.tolist() == [True] + [False] * live
        for i in range(1, live + 1):
            want = solve_m2(M[i], A[i], np.flatnonzero(act[i]))[0]
            assert beta[i].tobytes() == want.tobytes()
    assert len(rows_alone) == qp._M2_STACK - 1
    assert stacks == [qp._M2_STACK]


def test_stacked_m2_solve_meets_each_edge_case():
    # the relief row needs the retry, the refused row stays infeasible, and
    # a flat row takes hi or lo by the sign of half_beta
    M = np.array(
        [
            [[0.5 - 1e-9, -0.5 - 1e-9], [-0.5, 0.5]],
            [[-2.0, -2.0], [0.0, 1.0]],
            [[1e-170, 0.0], [1e-170, 0.0]],
            [[1e-170, 0.0], [1e-170, 0.0]],
        ]
    )
    A = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])
    act = np.array([[True, True], [True, False], [False, False], [False, False]])
    beta, infeasible = qp._solve_m2_rows(M, A, act)
    assert infeasible.tolist() == [False, True, False, False]
    assert beta[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert beta[2].tolist() == [1.0, 0.0] and beta[3].tolist() == [0.0, 1.0]


def _certification_rows(seed: int, m: int) -> list:
    """(M, a, active indices, hint) rows: correct hints, wrong patterns,
    hints from another active set, no hint, full and tied active sets,
    a wrong multiplier sign and a degenerate Gram."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(10):
        G = rng.normal(size=(int(rng.integers(m, 9)), m))
        act = np.arange(m)
        if rng.random() >= 0.5:  # a tied or partial active set
            act = np.sort(rng.choice(m, int(rng.integers(1, m)), replace=False))
        M, a = G.T @ G, rng.normal(size=m)
        _, pattern = qp._solve_enumerated(M, a, act)
        kind = rng.integers(4)
        if pattern is None or kind == 0:
            hint = None
        elif kind == 1:
            hint = (act, pattern)
        elif kind == 2:
            flat = qp._patterns(m, m + act.size)[1]
            hint = (act, flat[int(rng.integers(len(flat)))])
        else:
            hint = (np.setdiff1d(np.arange(m), act), pattern)
        rows.append((M, a, act, hint))
    # M = I with a on the simplex: holding beta_0 = 0 is feasible, but its
    # bound multiplier has the wrong sign
    a = np.full(m, 1.0 / m) + np.linspace(-0.05, 0.05, m)
    rows.append((np.eye(m), a, np.arange(m), (np.arange(m), np.array([0]))))
    rows.append((np.zeros((m, m)), a, np.arange(m), None))
    return rows


def _mask(act: np.ndarray, m: int) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    mask[act] = True
    return mask


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**9), st.integers(3, 4))
def test_batched_certification_equals_each_row_certified_alone(seed, m):
    rows = _certification_rows(seed, m)
    M, a, act, (_, pattern) = rows[-2]
    assert qp._solve_certified(M, a, act, pattern) is None  # the wrong sign
    # one _certify call per pattern size: each row as certified alone
    sizes: dict = {}
    for row in rows:
        if row[3] is not None:
            sizes.setdefault(row[3][1].size, []).append(row)
    for group in sizes.values():
        beta, ok = qp._certify(
            np.array([M for M, _, _, _ in group]),
            np.array([a for _, a, _, _ in group]),
            np.array([_mask(act, m) for _, _, act, _ in group]),
            np.array([hint[1] for _, _, _, hint in group]),
        )
        for j, (M, a, act, (_, pattern)) in enumerate(group):
            alone = qp._solve_certified(M, a, act, pattern)
            assert bool(ok[j]) is (alone is not None)
            if alone is not None:
                assert beta[j].tobytes() == alone.beta.tobytes()
                solution, winner = qp._solve_enumerated(M, a, act)
                if np.array_equal(winner, pattern):
                    assert beta[j].tobytes() == solution.beta.tobytes()
    # the whole mixed stack through the stacked dispatch: as _solve alone
    beta, degenerate, hints = qp._solve_rows(
        np.array([M for M, _, _, _ in rows]),
        np.array([a for _, a, _, _ in rows]),
        np.array([_mask(act, m) for _, _, act, _ in rows]),
        [hint for _, _, _, hint in rows],
    )
    assert degenerate.tolist() == [False] * (len(rows) - 1) + [True]
    for (M, a, act, hint), got, found in zip(rows, beta, hints):
        alone, want = qp._solve(M, a, act, hint)
        if not alone.degenerate:
            assert got.tobytes() == alone.beta.tobytes()
        if want is None or want is hint:
            assert found is want
        else:
            assert np.array_equal(found[0], want[0]) and np.array_equal(found[1], want[1])

