"""Feasible regions, inner descent and discretization selection."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoscan import qp, relax
from paretoscan.relax import (
    Box,
    ExhaustedNeighborhoodError,
    InnerResult,
    NumericalFailureError,
    SimplexRows,
    TaskContract,
    discretize_select,
    inner_descent,
)
from paretoscan.tasks import SyntheticTask, make_task
from paretoscan.weights import lift_positive, weight_grid

#: The stub tasks' feasible region: the whole space.
_FREE = Box(-np.inf, np.inf)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_box_projection_clips():
    box = Box(-1.0, 1.0)
    assert box.project(np.array([-3.0, 0.2, 5.0])) == pytest.approx([-1.0, 0.2, 1.0])


def test_simplex_rows_projection():
    region = SimplexRows(2, 3)
    flat = np.array([0.4, 0.1, 0.1, 2.0, 0.0, 0.0])
    out = region.project(flat).reshape(2, 3)
    assert out.sum(axis=1) == pytest.approx([1.0, 1.0])
    assert out.min() >= 0.0
    assert out[1] == pytest.approx([1.0, 0.0, 0.0])


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 2.0), (-np.inf, np.inf)])
def test_box_projection_equals_clip(lo, hi):
    box = Box(lo, hi)
    specials = [-np.inf, np.inf, np.nan, 0.0, 0.5, 1e300, -1e300, 5e-324, -5e-324]
    edges = [b for b in (lo, hi) if np.isfinite(b)]
    near = [np.nextafter(b, d) for b in edges for d in (-np.inf, np.inf)]
    x = np.array(specials + edges + near)
    out = box.project(x)
    assert np.array_equal(np.isnan(out), np.isnan(x))  # NaN stays, in place
    assert np.array_equal(out, np.clip(x, lo, hi), equal_nan=True)
    assert out.dtype == np.float64 and out.shape == x.shape


def test_box_projection_maps_negative_zero_at_a_zero_bound_to_positive_zero():
    # np.clip keeps -0.0 on Box(0, 1); maximum(-0.0, 0.0) gives +0.0.  No
    # relaxed vector holds -0.0: starts are +0.0 or 1.0, and x - eta * d is
    # -0.0 only when x is, since +0.0 - 0.0 and +0.0 - (-0.0) are +0.0 and a
    # negative result clamps to +0.0.  Off the bound the sign is kept.
    assert not np.signbit(Box(0.0, 1.0).project(np.array([-0.0]))).any()
    assert np.signbit(Box(-2.0, 2.0).project(np.array([-0.0]))).all()
    x = np.zeros(4)
    step = 0.1 * np.array([0.0, -0.0, 1e-300, -1e-300])
    assert not np.signbit(Box(0.0, 1.0).project(x - step)).any()


# ---------------------------------------------------------------------------
# scripted stub task for loop behavior
# ---------------------------------------------------------------------------


class _StubTask(TaskContract):
    """Quadratic bowl with hooks to inject failures and scripted candidates."""

    m = 2
    region = _FREE

    def __init__(self, fail_grad_round=None, fail_loss_round=None, candidates=None):
        super().__init__()
        self.fail_grad_round = fail_grad_round
        self.fail_loss_round = fail_loss_round
        self.scripted = candidates
        self.calls = 0

    def _discrete_losses(self, candidate):
        x = np.asarray(candidate, dtype=np.float64)
        return np.array([float(x @ x), float((x - 1.0) @ (x - 1.0))])

    def relax(self, candidate):
        return np.asarray(candidate, dtype=np.float64)

    def losses_and_gradients(self, x):
        k = self.calls
        self.calls += 1
        losses = np.array([float(x @ x), float((x - 1.0) @ (x - 1.0))])
        grads = np.stack([2.0 * x, 2.0 * (x - 1.0)], axis=1)
        if k == self.fail_loss_round:
            losses = np.array([np.nan, 1.0])
        if k == self.fail_grad_round:
            grads = np.full((x.size, 2), np.nan)
        return losses, grads

    def neighborhood_discretize(self, x, count, rng):
        if self.scripted is not None:
            return list(self.scripted)
        return [x.copy() for _ in range(count)]

    def candidate_id(self, candidate):
        return ",".join(f"{v:.3f}" for v in np.asarray(candidate).ravel())

    def random_candidate(self, rng):
        return rng.normal(size=2)


class _ZeroGradTask(_StubTask):
    def losses_and_gradients(self, x):
        losses, _ = super().losses_and_gradients(x)
        return losses, np.zeros((x.size, 2))


# ---------------------------------------------------------------------------
# inner descent
# ---------------------------------------------------------------------------


def test_inner_descent_reduces_relative_max():
    task = SyntheticTask(n=6)
    # balanced off-front start: both losses should fall under pure descent
    x0 = np.array([30, -30, 30, -30, 30, -30], dtype=np.int64)
    weights = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    result = inner_descent(
        task, task.relax(x0), weights, eta=0.05, rounds=12, mode="epo"
    )
    assert isinstance(result, InnerResult)
    assert len(result.trace) == 12
    assert result.trace[0].mu == 0.0
    assert result.trace[-1].r_check < result.trace[0].r_check
    assert np.all(result.trace[-1].losses < result.trace[0].losses)
    assert [row.round_index for row in result.trace] == list(range(12))
    assert all(row.mode == "epo" for row in result.trace)


def test_inner_descent_holds_position_on_conflicting_front_point():
    # On the optimal segment with unbalanced losses every objective is
    # constrained (J = [m]) and the gradients are anti-parallel, so the
    # feasible step shrinks to (almost) nothing: the point must not regress.
    task = SyntheticTask(n=6)
    x0 = np.zeros(6, dtype=np.int64) + 30  # 0.3 per axis = 0.73 * center
    weights = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    out = inner_descent(task, task.relax(x0), weights, eta=0.05, rounds=6)
    start = out.trace[0].losses
    for row in out.trace[1:]:
        assert np.all(row.losses <= start + 1e-6)


def test_inner_descent_ls_mode_moves_too():
    task = SyntheticTask(n=6)
    x0 = np.zeros(6, dtype=np.int64) + 30
    weights = np.array([0.9, 0.1])
    out = inner_descent(task, task.relax(x0), weights, eta=0.05, rounds=8, mode="ls")
    assert out.trace[-1].mode == "ls"
    assert not np.allclose(out.point, task.relax(x0))


def test_inner_descent_eta_zero_is_constant():
    task = _StubTask()
    out = inner_descent(task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.0, rounds=5)
    assert out.point == pytest.approx([0.4, 0.7])
    assert len(out.trace) == 5
    assert all(
        row.losses == pytest.approx(out.trace[0].losses) for row in out.trace
    )
    assert not out.converged  # directions are nonzero even if the step is not


def test_inner_descent_converged_on_zero_gradients():
    task = _ZeroGradTask()
    out = inner_descent(task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.5, rounds=3)
    assert out.converged
    assert out.point == pytest.approx([0.4, 0.7])


class _ClampWatch(_StubTask):
    """Stub that records the points its clamp makes and the points it is asked about."""

    def __init__(self):
        super().__init__()
        self.clamped = []
        self.asked = []

    def clamp(self, x):
        out = super().clamp(x)
        self.clamped.append(out)
        return out

    def losses_and_gradients(self, x):
        self.asked.append(x)
        return super().losses_and_gradients(x)


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_inner_descent_asks_the_task_once_per_round_at_a_clamped_point(mode):
    task = _ClampWatch()
    inner_descent(
        task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.1, rounds=6, mode=mode
    )
    assert task.calls == 6
    # round k is asked about the point the k-th clamp made, not a copy
    assert all(a is c for a, c in zip(task.asked, task.clamped))


class _BoxedStub(_StubTask):
    region = Box(-1.0, 1.0)


def test_inner_descent_returns_a_previous_result_from_the_same_clamped_start():
    task = _BoxedStub()
    first = inner_descent(task, np.array([1.5, 0.7]), [1.0, 1.0], eta=0.1, rounds=5)
    assert task.calls == 5
    assert np.array_equal(first.start, [1.0, 0.7])
    # another vector that clamps to the same start: no task call, the same object
    again = inner_descent(
        task, np.array([3.0, 0.7]), [1.0, 1.0], eta=0.1, rounds=5, previous=first
    )
    assert again is first
    assert task.calls == 5


def test_inner_descent_recomputes_from_a_different_start():
    task = _BoxedStub()
    first = inner_descent(task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.1, rounds=5)
    moved = np.array([0.4, np.nextafter(0.7, 1.0)])
    other = inner_descent(task, moved, [1.0, 1.0], eta=0.1, rounds=5, previous=first)
    assert other is not first
    assert task.calls == 10
    fresh = inner_descent(_BoxedStub(), moved, [1.0, 1.0], eta=0.1, rounds=5)
    assert np.array_equal(other.start, fresh.start)
    assert np.array_equal(other.point, fresh.point)
    assert [r.losses.tobytes() for r in other.trace] == [r.losses.tobytes() for r in fresh.trace]


def test_inner_descent_rejects_unknown_mode():
    task = _StubTask()
    with pytest.raises(ValueError):
        inner_descent(
            task,
            np.zeros(2),
            [1.0, 1.0],
            eta=0.1,
            rounds=1,
            mode="sgd",
        )


def test_inner_descent_failure_carries_round_index():
    task = _StubTask(fail_grad_round=2)
    with pytest.raises(NumericalFailureError) as exc:
        inner_descent(
            task,
            np.array([0.4, 0.7]),
            [1.0, 1.0],
            eta=0.1,
            rounds=10,
        )
    assert exc.value.round_index == 2
    assert "inner round 2" in str(exc.value)


def test_inner_descent_failure_on_losses_at_first_round():
    task = _StubTask(fail_loss_round=0)
    with pytest.raises(NumericalFailureError) as exc:
        inner_descent(
            task,
            np.zeros(2),
            [1.0, 1.0],
            eta=0.1,
            rounds=3,
        )
    assert exc.value.round_index == 0


class _GuardStub(_StubTask):
    """Stub whose round ``bad_round`` returns the given losses and gradients."""

    def __init__(self, bad_round, losses=None, grads=None):
        super().__init__()
        self.bad_round = bad_round
        self.bad_losses = losses
        self.bad_grads = grads

    def losses_and_gradients(self, x):
        k = self.calls
        losses, grads = super().losses_and_gradients(x)
        if k == self.bad_round:
            if self.bad_losses is not None:
                losses = np.array(self.bad_losses)
            if self.bad_grads is not None:
                grads = np.full((x.size, 2), self.bad_grads)
        return losses, grads


def test_inner_descent_accepts_a_finite_direction_whose_squared_norm_overflows():
    # d = G lam has entries 2e200: finite, but d . d overflows to inf
    task = _GuardStub(1, grads=1e200)
    with np.errstate(over="ignore"):
        out = inner_descent(
            task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.0, rounds=3, mode="ls"
        )
    assert len(out.trace) == 3
    assert not out.converged


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"losses": [np.nan, 1.0]}, "non-finite relaxed losses"),
        ({"losses": [1.0, np.inf]}, "non-finite relaxed losses"),
        ({"losses": [-np.inf, 1.0]}, "non-finite relaxed losses"),
        ({"grads": np.nan}, "non-finite gradients"),
        ({"grads": -np.inf}, "non-finite gradients"),
        ({"grads": 1e308}, "non-finite step direction"),  # G lam overflows
    ],
)
def test_inner_descent_non_finite_values_raise_at_their_round(bad, message):
    task = _GuardStub(2, **bad)
    with pytest.raises(NumericalFailureError) as exc, np.errstate(over="ignore"):
        inner_descent(task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.1, rounds=5, mode="ls")
    assert str(exc.value) == f"{message} (inner round 2)"
    assert exc.value.round_index == 2


@pytest.mark.parametrize("beta", [[np.nan, 1.0], [np.inf, 0.0]])
def test_inner_descent_non_finite_qp_direction_raises(monkeypatch, beta):
    solve = qp._solve

    def broken(M, a, act, hint=None):
        solution, hint = solve(M, a, act, hint)
        return qp.QPSolution(beta=np.array(beta)), hint

    monkeypatch.setattr(qp, "_solve", broken)
    with pytest.raises(NumericalFailureError) as exc:
        inner_descent(_StubTask(), np.array([0.4, 0.7]), [1.0, 1.0], eta=0.1, rounds=3)
    assert str(exc.value) == "non-finite step direction (inner round 0)"


def test_inner_descent_negative_losses_still_raise_value_error():
    task = _GuardStub(1, losses=[0.5, -1e-300])
    with pytest.raises(ValueError, match="objective vector contains negative entries"):
        inner_descent(task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.1, rounds=3)
    assert task.calls == 2


@pytest.mark.parametrize(
    "losses, message", [([-0.1, 1.0], "negative"), ([0.5, 0.5, 0.5], "length 3")]
)
def test_inner_descent_rejects_malformed_task_losses(losses, message):
    task = _StubTask()
    task.losses_and_gradients = lambda x: (np.array(losses), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=message):
        inner_descent(
            task,
            np.zeros(2),
            [1.0, 1.0],
            eta=0.1,
            rounds=2,
        )


# ---------------------------------------------------------------------------
# rows descended together
# ---------------------------------------------------------------------------


def _trace_bytes(result):
    """Every recorded value of a descent, as bytes."""
    rows = [
        (row.round_index, row.losses.tobytes(), struct.pack("<dd", row.mu, row.r_check), row.mode)
        for row in result.trace
    ]
    return result.start.tobytes(), result.point.tobytes(), result.converged, rows


_SHARE = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0]),  # repeated values tie at the top
    st.floats(1e-300, 1e3),
)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_stacked_profiles_equal_the_profile_of_each_row(data):
    m = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(1, 6))
    row = st.lists(_SHARE, min_size=m, max_size=m)
    losses = np.array(data.draw(st.lists(row, min_size=count, max_size=count)))
    if data.draw(st.booleans()):
        losses[data.draw(st.integers(0, count - 1))] = 0.0  # a degenerate row
    weight = st.lists(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)), min_size=m, max_size=m)
    weights = np.array(data.draw(st.lists(weight, min_size=count, max_size=count)))
    weighted = losses * weights
    for prod, w, (mu, anchor, active) in zip(
        weighted, weights, relax._profiles(weighted, weights)
    ):
        try:
            want = qp._profile(prod, w)
        except qp.DegenerateLossError:
            assert (mu, anchor, active) == (0.0, None, None)
            continue
        assert struct.pack("<d", mu) == struct.pack("<d", want[0])
        assert anchor.tobytes() == want[1].tobytes()
        assert active.dtype == want[2].dtype and np.array_equal(active, want[2])


class _FortranStub(_StubTask):
    """Stub whose gradient matrix is Fortran-ordered, as the surrogate's is."""

    def losses_and_gradients(self, x):
        losses, grads = super().losses_and_gradients(x)
        return losses, np.asfortranarray(grads)


def _spy_on_stacks(monkeypatch) -> list:
    """Patch ``relax._step_stack`` to record (rows, Fortran order, stepped)
    per call, where stepped says it returned steps rather than None."""
    stacked, step_stack = [], relax._step_stack

    def spy(rows, fortran, *args):
        steps = step_stack(rows, fortran, *args)
        stacked.append((len(rows), fortran, steps is not None))
        return steps

    monkeypatch.setattr(relax, "_step_stack", spy)
    return stacked


def test_rows_of_any_shape_order_and_step_equal_their_one_row_descents(monkeypatch):
    # three rows of each gradient shape and memory order, at different
    # etas, descend in one call; every group steps as a stack in every
    # round, and each row equals the descent it makes alone
    kinds = [
        (lambda: SyntheticTask(n=4), (0.05, 0.11, 0.02)),
        (lambda: make_task("ngram-uni", l_max=3), (0.2, 0.1, 0.3)),
        (lambda: make_task("ngram-bi", l_max=4), (0.3, 0.2, 0.1)),
        (lambda: make_task("surrogate", m=4, epochs=50), (0.1, 0.05, 0.2)),
        (lambda: make_task("surrogate", n_b=6, m=1, epochs=50), (0.1, 0.2, 0.3)),
        (_StubTask, (0.1, 0.05, 0.2)),
        (_FortranStub, (0.1, 0.05, 0.2)),
    ]

    def build():
        return [(make(), eta) for make, etas in kinds for eta in etas]

    stacked = _spy_on_stacks(monkeypatch)
    rng = np.random.default_rng(5)
    rows = build()
    starts, weights = [], []
    for task, _ in rows:
        starts.append(task.clamp(task.relax(task.random_candidate(rng))))
        weights.append(lift_positive(rng.uniform(0.2, 1.0, task.m)))
    for mode in ("epo", "ls"):
        stacked.clear()
        together = relax._descend_rows(
            [task for task, _ in rows], starts, weights, [eta for _, eta in rows],
            rounds=8, mode=mode,
        )
        assert [(size, ok) for size, _, ok in stacked] == [(3, True)] * (len(kinds) * 8)
        assert sum(fortran for _, fortran, _ in stacked) == 2 * 8  # surrogate m = 4, stub
        for (task, eta), start, w, got in zip(build(), starts, weights, together):
            alone = inner_descent(task, start, w, eta=eta, rounds=8, mode=mode)
            assert _trace_bytes(got) == _trace_bytes(alone), (type(task).__name__, mode)


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_a_group_of_three_rows_stacks_and_a_group_of_two_steps_row_by_row(monkeypatch, mode):
    # two C-ordered and three Fortran-ordered stub rows in one call: only
    # the three stack, and every row equals the descent it makes alone
    def build():
        return [_StubTask(), _FortranStub(), _StubTask(), _FortranStub(), _FortranStub()]

    stacked = _spy_on_stacks(monkeypatch)
    starts = [np.array(x) for x in ([0.4, 0.7], [0.1, 0.9], [-0.3, 0.2], [1.5, -0.5], [0.8, 0.8])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.9, 0.1], [0.2, 1.0], [0.5, 0.5])]
    etas = [0.1, 0.05, 0.2, 0.15, 0.1]
    out = relax._descend_rows(build(), starts, weights, etas, rounds=5, mode=mode)
    assert stacked == [(3, True, True)] * 5
    for task, start, w, eta, got in zip(build(), starts, weights, etas, out):
        alone = inner_descent(task, start, w, eta=eta, rounds=5, mode=mode)
        assert _trace_bytes(got) == _trace_bytes(alone), type(task).__name__


@pytest.mark.parametrize("mode", ["epo", "ls"])
@pytest.mark.parametrize(
    "bad",
    [
        {"losses": [np.nan, 1.0]},
        {"losses": [1.0, np.inf]},
        {"grads": np.nan},
        {"grads": -np.inf},
        {"losses": [0.5, -1e-300]},
        {"losses": [0.5, 0.5, 0.5]},
    ],
)
def test_a_failing_row_stops_alone_with_its_one_row_error(bad, mode):
    starts = [np.array([0.4, 0.7]), np.array([0.1, 0.9]), np.array([-0.3, 0.2])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.9, 0.1])]
    etas = [0.1, 0.05, 0.2]
    tasks = [_StubTask(), _GuardStub(2, **bad), _StubTask()]
    out = relax._descend_rows(tasks, starts, weights, etas, rounds=5, mode=mode)
    assert isinstance(out[1], Exception)
    with pytest.raises(Exception) as alone:
        inner_descent(_GuardStub(2, **bad), starts[1], weights[1], eta=etas[1], rounds=5, mode=mode)
    assert type(out[1]) is type(alone.value)
    assert str(out[1]) == str(alone.value)
    assert getattr(out[1], "round_index", None) == getattr(alone.value, "round_index", None)
    for j in (0, 2):
        clean = inner_descent(_StubTask(), starts[j], weights[j], eta=etas[j], rounds=5, mode=mode)
        assert _trace_bytes(out[j]) == _trace_bytes(clean)


def test_a_row_whose_qp_raises_stops_alone(monkeypatch):
    solve = qp._solve

    def refusing(M, a, act, hint=None):
        if M[0, 0] > 100.0:  # only the row started at (8, 8) has gradients this large
            raise RuntimeError("no pattern")
        return solve(M, a, act, hint)

    monkeypatch.setattr(qp, "_solve", refusing)
    starts = [np.array([0.4, 0.7]), np.array([8.0, 8.0]), np.array([0.1, 0.9])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.9, 0.1])]
    tasks = [_StubTask(), _StubTask(), _StubTask()]
    out = relax._descend_rows(tasks, starts, weights, [0.1] * 3, rounds=5, mode="epo")
    assert isinstance(out[1], RuntimeError) and str(out[1]) == "no pattern"
    with pytest.raises(RuntimeError, match="no pattern"):
        inner_descent(_StubTask(), starts[1], weights[1], eta=0.1, rounds=5)
    for j in (0, 2):
        clean = inner_descent(_StubTask(), starts[j], weights[j], eta=0.1, rounds=5)
        assert _trace_bytes(out[j]) == _trace_bytes(clean)


def test_a_row_whose_task_raises_stops_alone():
    class _Refusing(_StubTask):
        def losses_and_gradients(self, x):
            if self.calls == 3:
                raise RuntimeError("refused")
            return super().losses_and_gradients(x)

    starts = [np.array([0.4, 0.7]), np.array([0.1, 0.9])]
    weights = [lift_positive([1.0, 1.0])] * 2
    out = relax._descend_rows(
        [_Refusing(), _StubTask()], starts, weights, [0.1, 0.1], rounds=5, mode="epo"
    )
    assert isinstance(out[0], RuntimeError) and str(out[0]) == "refused"
    clean = inner_descent(_StubTask(), starts[1], weights[1], eta=0.1, rounds=5)
    assert _trace_bytes(out[1]) == _trace_bytes(clean)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_select_minimizes_relative_max():
    cands = [np.array([0.5, 0.5]), np.array([0.1, 0.1]), np.array([0.9, 0.9])]
    # losses: [x@x, (x-1)@(x-1)]; weights (1, 1)
    # r_check: 0.5 -> 0.5, 0.1 -> 1.62, 0.9 -> 1.62
    task = _StubTask(candidates=cands)
    candidate, objectives = discretize_select(
        task, np.zeros(2), [1.0, 1.0], 3, np.random.default_rng(0)
    )
    assert candidate == pytest.approx([0.5, 0.5])
    assert objectives == pytest.approx([0.5, 0.5])
    assert task.oracle_calls == 3 * 2  # every candidate evaluated once


def test_discretize_select_tie_break_weighted_sum_then_order():
    class _Scripted(TaskContract):
        m = 2

        def __init__(self, table):
            super().__init__()
            self.table = table

        def _discrete_losses(self, candidate):
            return np.array(self.table[candidate])

        def relax(self, candidate):
            raise NotImplementedError

        def losses_and_gradients(self, x):
            raise NotImplementedError

        def neighborhood_discretize(self, x, count, rng):
            return list(self.table)

        def candidate_id(self, candidate):
            return candidate

        def random_candidate(self, rng):
            return next(iter(self.table))

    table = {
        "a": [0.6, 0.2],  # r = 0.6, sum = 0.8
        "b": [0.6, 0.1],  # r = 0.6, sum = 0.7  <- winner
        "c": [0.6, 0.1],  # identical to b, later draw
    }
    task = _Scripted(table)
    candidate, _ = discretize_select(
        task, np.zeros(1), [1.0, 1.0], 3, np.random.default_rng(0)
    )
    assert candidate == "b"


def test_discretize_select_counts_oracle_calls():
    task = _StubTask()
    discretize_select(task, np.array([0.2, 0.2]), [1.0, 1.0], 4, np.random.default_rng(0))
    assert task.oracle_calls == 8  # 4 candidates x m=2


def test_discretize_select_empty_neighborhood_raises():
    task = _StubTask(candidates=[])
    with pytest.raises(ExhaustedNeighborhoodError):
        discretize_select(
            task, np.zeros(2), [1.0, 1.0], 2, np.random.default_rng(0)
        )


# ---------------------------------------------------------------------------
# the relaxed descent path, pinned bit for bit
# ---------------------------------------------------------------------------

#: sha256 of every ``RoundTrace`` row and the final vector of the seeded
#: descents in ``_inner_path_digest``, written at the commit before relaxed
#: points became plain vectors.  The byte goldens record only oracle losses
#: of selected candidates, so they miss a last-ulp change of the relaxed
#: path; these do not.
_INNER_PATH_DIGESTS = {
    ("synthetic", "epo"): (
        "c418f7db9866d6151a50566d5ab2fe32"
        "8ce974fbc5735e8aa3f155e80d6f14cd"
    ),
    ("synthetic", "ls"): (
        "68e1d836b7abfe1ff91793383be098d7"
        "a782b33a78558bf94db2f745eb532c45"
    ),
    ("ngram-uni", "epo"): (
        "e49e7c99a963198447ac013d6debfb42"
        "7755211c73581cc1c460861e89b12f28"
    ),
    ("ngram-uni", "ls"): (
        "254c778e22417c28d8e20e76521ac530"
        "475c69823e1bf3db8d9078d7ab61bbf4"
    ),
    ("ngram-bi", "epo"): (
        "951e6e9f0ed0b266f0e6d435503d5ba4"
        "37eb22a76559d8a825e946d1f575e5cc"
    ),
    ("ngram-bi", "ls"): (
        "edd2e7bb15a6a291aea7bf0c3324f5b7"
        "b5582514c0af864ed5e068d108fb1a64"
    ),
    # The surrogate digests moved when the net's training gained momentum:
    # its 200 steps now give other parameters.
    ("surrogate", "epo"): (
        "6723bb648d967bb4d4574af663882d87"
        "e07fceb217be5364dad318e473bb527c"
    ),
    ("surrogate", "ls"): (
        "f6537928b421036c553269d8b96fb74b"
        "74e0c4334e5de4b80173fceb7bfb8afe"
    ),
}

#: Task parameters of the pinned descents: the surrogate runs at m = 4 with
#: a briefly trained net.
_INNER_PATH_PARAMS = {"surrogate": {"m": 4, "epochs": 200}}


def _inner_path_digest(name, mode):
    task = make_task(name, **_INNER_PATH_PARAMS.get(name, {}))
    digest = hashlib.sha256()
    for i, weights in enumerate(weight_grid(task.m, 3)):
        rng = np.random.default_rng(100 + i)
        start = task.relax(task.random_candidate(rng))
        out = inner_descent(
            task, start, lift_positive(weights), eta=task.default_eta, rounds=20, mode=mode
        )
        for row in out.trace:
            digest.update(struct.pack("<q", row.round_index))
            digest.update(row.losses.tobytes())
            digest.update(struct.pack("<dd", row.mu, row.r_check))
            digest.update(row.mode.encode())
        digest.update(out.point.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, mode", sorted(_INNER_PATH_DIGESTS))
def test_inner_descent_path_is_pinned(name, mode):
    assert _inner_path_digest(name, mode) == _INNER_PATH_DIGESTS[name, mode]
