"""Feasible regions, inner descent and discretization selection."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import select_by_tuple_key
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
from paretoscan.tasks import NGramTask, SurrogateTask, SyntheticTask, make_task
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


def test_a_stack_projects_row_by_row_bit_for_bit():
    rng = np.random.default_rng(11)
    box_rows = rng.uniform(-3.0, 3.0, size=(5, 4))
    box_rows[1] = [-0.0, 0.0, -1e-300, 1.0]
    box_rows[3, 2] = np.nan
    for box in (Box(0.0, 1.0), Box(-2.0, 2.0)):
        out = box.project(box_rows)
        for row, got in zip(box_rows, out):
            assert got.tobytes() == box.project(row).tobytes()
    assert not np.signbit(Box(0.0, 1.0).project(box_rows)[1]).any()
    region = SimplexRows(2, 3)
    simplex_rows = rng.normal(scale=2.0, size=(4, 6))
    simplex_rows[1, 3:] = [3.75e18, 3.75e18, 5e18]  # the shifted retry
    simplex_rows[2, 0] = np.nan
    out = region.project(simplex_rows)
    assert out.shape == simplex_rows.shape
    for row, got in zip(simplex_rows, out):
        assert got.tobytes() == region.project(row).tobytes()
    assert out[1, 3:].tolist() == [0.0, 0.0, 1.0] and np.isnan(out[2, :3]).all()


# ---------------------------------------------------------------------------
# scripted stub task for loop behavior
# ---------------------------------------------------------------------------


def _bowl(X):
    """The stub's bowl losses ||x||^2, ||x - 1||^2 and their gradients at
    each row of X."""
    L = np.stack([(X * X).sum(axis=1), ((X - 1.0) * (X - 1.0)).sum(axis=1)], axis=1)
    G = np.stack([2.0 * X, 2.0 * (X - 1.0)], axis=2)
    return L, G


class _StubTask(TaskContract):
    """Quadratic bowl with hooks to inject failures and scripted candidates.

    Rows of stub tasks stack.  The failure hooks act on the stub's k-th
    call, so a stub that has one holds a key of its own.
    """

    m = 2
    region = _FREE

    def __init__(self, fail_grad_round=None, fail_loss_round=None, candidates=None):
        super().__init__()
        self.fail_grad_round = fail_grad_round
        self.fail_loss_round = fail_loss_round
        self.scripted = candidates
        self.calls = 0
        if fail_grad_round is not None or fail_loss_round is not None:
            self.stack_key = object()

    def _discrete_losses(self, candidate):
        x = np.asarray(candidate, dtype=np.float64)
        return np.array([float(x @ x), float((x - 1.0) @ (x - 1.0))])

    def relax(self, candidate):
        return np.asarray(candidate, dtype=np.float64)

    def losses_and_gradients(self, X):
        k = self.calls
        self.calls += 1
        L, G = _bowl(X)
        if k == self.fail_loss_round:
            L[:] = [np.nan, 1.0]
        if k == self.fail_grad_round:
            G[:] = np.nan
        return L, G

    def neighborhood_discretize(self, x, count, rng):
        if self.scripted is not None:
            return list(self.scripted)
        return [x.copy() for _ in range(count)]

    def candidate_id(self, candidate):
        return ",".join(f"{v:.3f}" for v in np.asarray(candidate).ravel())

    def random_candidate(self, rng):
        return rng.normal(size=2)


class _ZeroGradTask(_StubTask):
    def losses_and_gradients(self, X):
        L, G = super().losses_and_gradients(X)
        return L, np.zeros_like(G)


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

    def losses_and_gradients(self, X):
        self.asked.append(X)
        return super().losses_and_gradients(X)


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_inner_descent_asks_the_task_once_per_round_at_a_clamped_point(mode):
    task = _ClampWatch()
    inner_descent(
        task, np.array([0.4, 0.7]), [1.0, 1.0], eta=0.1, rounds=6, mode=mode
    )
    assert task.calls == 6
    # round k is asked about the point the k-th clamp made, as a (1, n)
    # view of it, not a copy
    assert all(a.shape == (1, 2) and a.base is c for a, c in zip(task.asked, task.clamped))


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
    """Stub whose round ``bad_round`` returns the given losses and gradients
    in every row; it holds a key of its own."""

    def __init__(self, bad_round, losses=None, grads=None):
        super().__init__()
        self.bad_round = bad_round
        self.bad_losses = losses
        self.bad_grads = grads
        self.stack_key = object()

    def losses_and_gradients(self, X):
        k = self.calls
        L, G = super().losses_and_gradients(X)
        if k == self.bad_round:
            if self.bad_losses is not None:
                L = np.tile(self.bad_losses, (len(X), 1))
            if self.bad_grads is not None:
                G = np.full(G.shape, self.bad_grads)
        return L, G


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
    task.losses_and_gradients = lambda X: (np.array([losses]), np.zeros((1, 2, 2)))
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
    for prod, w, mu, anchor, active in zip(weighted, weights, *relax._profiles(weighted, weights)):
        try:
            want = qp._profile(prod, w)
        except qp.DegenerateLossError:
            assert struct.pack("<d", mu) == struct.pack("<d", 0.0)
            assert not anchor.any() and not active.any()
            continue
        assert struct.pack("<d", mu) == struct.pack("<d", want[0])
        assert anchor.tobytes() == want[1].tobytes()
        assert np.array_equal(np.flatnonzero(active), want[2])


def _fortran_bowl(X):
    """The bowl with Fortran-ordered gradient slices, as the surrogate's are."""
    L, G = _bowl(X)
    return L, np.ascontiguousarray(G.transpose(0, 2, 1)).transpose(0, 2, 1)


class _FortranStub(_StubTask):
    """Stub whose gradient matrices are Fortran-ordered."""

    def losses_and_gradients(self, X):
        return _fortran_bowl(X)


def _spy_on_stacks(monkeypatch) -> list:
    """Patch ``relax._step_stack`` to record (rows, Fortran order, stepped)
    per call, where stepped says it returned steps rather than None or
    raising."""
    stacked, step_stack = [], relax._step_stack

    def spy(L, G, *args):
        fortran = G[0].flags.f_contiguous and not G[0].flags.c_contiguous
        stacked.append((len(L), fortran, False))
        steps = step_stack(L, G, *args)
        stacked[-1] = (len(L), fortran, steps is not None)
        return steps

    monkeypatch.setattr(relax, "_step_stack", spy)
    return stacked


def _spy_on_groups(monkeypatch) -> list:
    """Patch ``relax._group`` to record the live row count of each call."""
    grouped, group = [], relax._group

    def spy(*args):
        grouped.append(len(args[-1]))
        return group(*args)

    monkeypatch.setattr(relax, "_group", spy)
    return grouped


def test_rows_of_any_shape_order_and_step_equal_their_one_row_descents(monkeypatch):
    # three rows of each task kind, at different etas, descend in one
    # call; each kind's rows take their losses from one call and step as
    # a stack in every round, the gradient slices keep their memory
    # order, and each row equals the descent it makes alone
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
    formed, form = [], SyntheticTask.losses_and_gradients

    def spy(self, X):
        formed.append(X.shape)
        return form(self, X)

    monkeypatch.setattr(SyntheticTask, "losses_and_gradients", spy)
    rng = np.random.default_rng(5)
    rows = build()
    starts, weights = [], []
    for task, _ in rows:
        starts.append(task.clamp(task.relax(task.random_candidate(rng))))
        weights.append(lift_positive(rng.uniform(0.2, 1.0, task.m)))
    for mode in ("epo", "ls"):
        stacked.clear()
        formed.clear()
        together = relax._descend_rows(
            [task for task, _ in rows], starts, weights, [eta for _, eta in rows],
            rounds=8, mode=mode,
        )
        assert formed == [(3, 4)] * 8
        assert [(size, ok) for size, _, ok in stacked] == [(3, True)] * (len(kinds) * 8)
        assert sum(fortran for _, fortran, _ in stacked) == 2 * 8  # surrogate m = 4, stub
        for (task, eta), start, w, got in zip(build(), starts, weights, together):
            alone = inner_descent(task, start, w, eta=eta, rounds=8, mode=mode)
            assert _trace_bytes(got) == _trace_bytes(alone), (type(task).__name__, mode)


def test_rows_share_a_stacked_call_only_when_their_tasks_keys_are_equal(monkeypatch):
    # unigram and bigram tasks of one length, and surrogate tasks trained
    # for different epochs, hold different keys and never share a call;
    # three surrogate tasks of equal settings share one net and one call
    calls = []
    for cls in (NGramTask, SurrogateTask):

        def spy(self, X, form=cls.losses_and_gradients):
            calls.append((self.stack_key, len(X)))
            return form(self, X)

        monkeypatch.setattr(cls, "losses_and_gradients", spy)

    def build():
        return (
            [make_task(name, l_max=4) for name in ("ngram-uni", "ngram-bi") for _ in range(3)]
            + [make_task("surrogate", n_b=6, epochs=50) for _ in range(3)]
            + [make_task("surrogate", n_b=6, epochs=e) for e in (60, 70, 80)]
        )

    tasks = build()
    rng = np.random.default_rng(8)
    starts = [task.clamp(task.relax(task.random_candidate(rng))) for task in tasks]
    weights = [lift_positive(rng.uniform(0.2, 1.0, task.m)) for task in tasks]
    etas = [task.default_eta for task in tasks]
    out = relax._descend_rows(tasks, starts, weights, etas, rounds=4, mode="epo")
    lone = [(task.net, 1) for task in tasks[9:]]
    assert calls == ([("unigram", 3), ("bigram", 3), (tasks[6].net, 3)] + lone) * 4
    assert len({task.net for task in tasks[6:]}) == 4
    for task, start, w, eta, got in zip(build(), starts, weights, etas, out):
        alone = inner_descent(task, start, w, eta=eta, rounds=4)
        assert _trace_bytes(got) == _trace_bytes(alone)


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_a_group_of_three_rows_stacks_and_a_group_of_two_steps_row_by_row(monkeypatch, mode):
    # two rows of one task class and three of another in one call: only
    # the three stack, the rows are grouped once for all five rounds, and
    # every row equals the descent it makes alone
    def build():
        return [_StubTask(), _FortranStub(), _StubTask(), _FortranStub(), _FortranStub()]

    stacked, grouped = _spy_on_stacks(monkeypatch), _spy_on_groups(monkeypatch)
    starts = [np.array(x) for x in ([0.4, 0.7], [0.1, 0.9], [-0.3, 0.2], [1.5, -0.5], [0.8, 0.8])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.9, 0.1], [0.2, 1.0], [0.5, 0.5])]
    etas = [0.1, 0.05, 0.2, 0.15, 0.1]
    out = relax._descend_rows(build(), starts, weights, etas, rounds=5, mode=mode)
    assert stacked == [(3, True, True)] * 5
    assert grouped == [5]
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
def test_a_failing_row_stops_alone_with_its_one_row_error(monkeypatch, bad, mode):
    # the guard row is of another class, so it steps alone beside a stack
    # of three stub rows, which its failure leaves untouched
    starts = [np.array(x) for x in ([0.4, 0.7], [0.1, 0.9], [-0.3, 0.2], [1.5, -0.5])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.9, 0.1], [0.2, 1.0])]
    etas = [0.1, 0.05, 0.2, 0.15]
    tasks = [_StubTask(), _GuardStub(2, **bad), _StubTask(), _StubTask()]
    stacked = _spy_on_stacks(monkeypatch)
    out = relax._descend_rows(tasks, starts, weights, etas, rounds=5, mode=mode)
    assert stacked == [(3, False, True)] * 5
    assert isinstance(out[1], Exception)
    with pytest.raises(Exception) as alone:
        inner_descent(_GuardStub(2, **bad), starts[1], weights[1], eta=etas[1], rounds=5, mode=mode)
    assert type(out[1]) is type(alone.value)
    assert str(out[1]) == str(alone.value)
    assert getattr(out[1], "round_index", None) == getattr(alone.value, "round_index", None)
    for j in (0, 2, 3):
        clean = inner_descent(_StubTask(), starts[j], weights[j], eta=etas[j], rounds=5, mode=mode)
        assert _trace_bytes(out[j]) == _trace_bytes(clean)


def test_a_row_whose_qp_raises_stops_alone(monkeypatch):
    # a stack that holds the row is refused, by the stacked m = 2 solve or,
    # below qp._M2_STACK rows, by the row's own solve, so its rows step
    # alone, and the one-row solve refuses the row itself
    solve_m2, solve_rows = qp._solve_m2, qp._solve_m2_rows

    def refusing(M, a, act):
        if M[0, 0] > 100.0:  # only the row started at (8, 8) has gradients this large
            raise RuntimeError("no pattern")
        return solve_m2(M, a, act)

    def refusing_rows(M, A, act):
        if (M[:, 0, 0] > 100.0).any():
            raise RuntimeError("no stacked pattern")
        return solve_rows(M, A, act)

    monkeypatch.setattr(qp, "_solve_m2", refusing)
    monkeypatch.setattr(qp, "_solve_m2_rows", refusing_rows)
    stacked = _spy_on_stacks(monkeypatch)
    starts = [np.array([0.4, 0.7]), np.array([8.0, 8.0]), np.array([0.1, 0.9])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.9, 0.1])]
    for stack_from in (qp._M2_STACK, 3):  # the three rows row by row, then as one stack
        monkeypatch.setattr(qp, "_M2_STACK", stack_from)
        stacked.clear()
        tasks = [_StubTask(), _StubTask(), _StubTask()]
        out = relax._descend_rows(tasks, starts, weights, [0.1] * 3, rounds=5, mode="epo")
        assert stacked == [(3, False, False)]  # then two rows are left, which step alone
        assert isinstance(out[1], RuntimeError) and str(out[1]) == "no pattern"
        with pytest.raises(RuntimeError, match="no pattern"):
            inner_descent(_StubTask(), starts[1], weights[1], eta=0.1, rounds=5)
        for j in (0, 2):
            clean = inner_descent(_StubTask(), starts[j], weights[j], eta=0.1, rounds=5)
            assert _trace_bytes(out[j]) == _trace_bytes(clean)


def test_a_subclass_that_overrides_a_method_forms_its_own_stacks(monkeypatch):
    # stub rows, rows of a subclass that overrides clamp and rows of one
    # that overrides the losses make three stacks of three; each stack's
    # calls are made on its first row's task, so each method, the
    # inherited ones included, gets the whole (3, 2) stack once a round
    shapes, plain = [], TaskContract.clamp

    def counting(self, X):
        shapes.append((type(self).__name__, "clamp", X.shape))
        return plain(self, X)

    class _OwnClamp(_StubTask):
        def clamp(self, X):
            shapes.append(("_OwnClamp", "own clamp", X.shape))
            return _FREE.project(X)

    class _OwnLosses(_StubTask):
        def losses_and_gradients(self, X):
            shapes.append(("_OwnLosses", "own losses", X.shape))
            return _bowl(X)

    def build():
        return [cls() for cls in (_StubTask, _OwnClamp, _OwnLosses) for _ in range(3)]

    monkeypatch.setattr(TaskContract, "clamp", counting)
    steps = _spy_on_stacks(monkeypatch)
    rng = np.random.default_rng(3)
    starts = list(rng.normal(size=(9, 2)))
    weights = [lift_positive(w) for w in rng.uniform(0.2, 1.0, (9, 2))]
    etas = list(rng.uniform(0.05, 0.2, 9))
    out = relax._descend_rows(build(), starts, weights, etas, rounds=4, mode="epo")
    assert steps == [(3, False, True)] * 3 * 4
    assert shapes == [
        ("_OwnLosses", "own losses", (3, 2)),
        ("_StubTask", "clamp", (3, 2)),
        ("_OwnClamp", "own clamp", (3, 2)),
        ("_OwnLosses", "clamp", (3, 2)),
    ] * 4
    for task, start, w, eta, got in zip(build(), starts, weights, etas, out):
        alone = relax._descend_rows([task], [start], [w], [eta], rounds=4, mode="epo")[0]
        assert _trace_bytes(got) == _trace_bytes(alone)


class _Picky:
    """A region that refuses any vector whose first coordinate exceeds 5."""

    def project(self, x):
        if (x[..., 0] > 5.0).any():
            raise ValueError("outside the region")
        return x + 0.0


class _PickyStub(_StubTask):
    region = _Picky()


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_a_stacked_clamp_that_raises_stops_only_the_raising_row(monkeypatch, mode):
    starts = [np.array(x) for x in ([0.4, 0.7], [0.1, 0.9], [8.0, 8.0], [-0.3, 0.2])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.5, 0.5], [0.9, 0.1])]
    etas = [0.1, 0.05, 0.1, 0.2]
    stacked = _spy_on_stacks(monkeypatch)
    out = relax._descend_rows(
        [_PickyStub() for _ in starts], starts, weights, etas, rounds=5, mode=mode
    )
    assert stacked == [(4, False, True)] + [(3, False, True)] * 4
    alone = [
        relax._descend_rows([_PickyStub()], [x], [w], [eta], rounds=5, mode=mode)[0]
        for x, w, eta in zip(starts, weights, etas)
    ]
    assert type(out[2]) is ValueError and str(out[2]) == str(alone[2]) == "outside the region"
    for j in (0, 1, 3):
        assert _trace_bytes(out[j]) == _trace_bytes(alone[j])


def _poisoned_bowl(X):
    """The bowl, with a NaN first loss at a row whose norm lies in (5, 9)."""
    L, G = _bowl(X)
    norm = np.sqrt(L[:, 0])
    L[(norm > 5.0) & (norm < 9.0), 0] = np.nan
    return L, G


class _PoisonStub(_StubTask):
    """Stub whose losses turn NaN on the way in from a far start, so a row
    started at (8, 8) fails at an inner round k >= 1."""

    def losses_and_gradients(self, X):
        return _poisoned_bowl(X)


def _lone_descents(build, starts, weights, etas, rounds, mode):
    """Each row's descent as the only row, or the exception that stopped it."""
    return [
        relax._descend_rows([build()], [x], [w], [eta], rounds=rounds, mode=mode)[0]
        for x, w, eta in zip(starts, weights, etas)
    ]


def _assert_rows_equal(out, lone):
    for got, want in zip(out, lone):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            assert got.round_index == want.round_index
        else:
            assert _trace_bytes(got) == _trace_bytes(want)


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_a_stack_steps_on_without_the_row_that_failed_in_it(monkeypatch, mode):
    # the far row's losses turn NaN at round k >= 1, so the stack of four
    # steps alone in round k and the row stops; the rows are grouped once
    # more, and the other three step as one stack from round k + 1
    starts = [np.array(x) for x in ([0.4, 0.7], [8.0, 8.0], [0.1, 0.9], [-0.3, 0.2])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.5, 0.5], [0.6, 0.8], [0.9, 0.1])]
    etas = [0.1, 0.1, 0.05, 0.2]
    stacked, grouped = _spy_on_stacks(monkeypatch), _spy_on_groups(monkeypatch)
    out = relax._descend_rows(
        [_PoisonStub() for _ in starts], starts, weights, etas, rounds=6, mode=mode
    )
    assert grouped == [4, 3]
    lone = _lone_descents(_PoisonStub, starts, weights, etas, 6, mode)
    assert [isinstance(row, Exception) for row in lone] == [False, True, False, False]
    k = lone[1].round_index
    assert 1 <= k < 5
    assert stacked[: k + 1] == [(4, False, True)] * k + [(4, False, False)]
    assert stacked[k + 1 :] == [(3, False, True)] * (5 - k)
    _assert_rows_equal(out, lone)


@pytest.mark.parametrize("mode", ["epo", "ls"])
@pytest.mark.parametrize("broken", ["form", "step"])
def test_a_stack_refused_in_one_round_stacks_again_in_the_next(monkeypatch, broken, mode):
    # in round 2 the stack's losses call raises, or the stacked step does,
    # though no row fails: the rows step alone in that round, each after
    # its own call when the stack's call raised, are grouped once more
    # and step as one stack again from round 3
    formed, step_stack = [], relax._step_stack

    class _Flaky(_StubTask):
        def losses_and_gradients(self, X):
            formed.append(len(X))
            if broken == "form" and len(formed) == 3:
                raise RuntimeError("not this round")
            return _bowl(X)

    def flaky_step(*args):
        if len(formed) == 3:
            raise RuntimeError("not this round")
        return step_stack(*args)

    if broken == "step":
        monkeypatch.setattr(relax, "_step_stack", flaky_step)
    starts = [np.array(x) for x in ([0.4, 0.7], [1.5, -0.5], [0.1, 0.9], [-0.3, 0.2])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.2, 1.0], [0.6, 0.8], [0.9, 0.1])]
    etas = [0.1, 0.15, 0.05, 0.2]
    stacked, grouped = _spy_on_stacks(monkeypatch), _spy_on_groups(monkeypatch)
    out = relax._descend_rows([_Flaky() for _ in starts], starts, weights, etas, rounds=6, mode=mode)
    if broken == "form":
        assert formed == [4] * 3 + [1] * 4 + [4] * 3
        assert stacked == [(4, False, True)] * 5  # round 2 takes no stacked step
    else:
        assert formed == [4] * 6
        assert stacked == [(4, False, True)] * 2 + [(4, False, False)] + [(4, False, True)] * 3
    assert grouped == [4, 4]
    _assert_rows_equal(out, _lone_descents(_StubTask, starts, weights, etas, 6, mode))


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_rows_left_below_the_stack_size_by_failures_step_alone(monkeypatch, mode):
    # two far rows of a stack of four fail in one round; the two left over
    # are too few to stack and step alone from then on
    starts = [np.array(x) for x in ([8.0, 8.0], [0.4, 0.7], [7.5, 8.0], [0.1, 0.9])]
    weights = [lift_positive(w) for w in ([0.5, 0.5], [1.0, 1.0], [0.9, 0.1], [0.6, 0.8])]
    etas = [0.1, 0.1, 0.1, 0.05]
    stacked, grouped = _spy_on_stacks(monkeypatch), _spy_on_groups(monkeypatch)
    out = relax._descend_rows(
        [_PoisonStub() for _ in starts], starts, weights, etas, rounds=6, mode=mode
    )
    assert grouped == [4, 2]
    lone = _lone_descents(_PoisonStub, starts, weights, etas, 6, mode)
    assert [isinstance(row, Exception) for row in lone] == [True, False, True, False]
    k = lone[0].round_index
    assert 1 <= k == lone[2].round_index < 5
    assert stacked == [(4, False, True)] * k + [(4, False, False)]
    _assert_rows_equal(out, lone)


def test_a_row_whose_task_raises_stops_alone():
    # the task raises, or returns gradients that make no array
    class _Refusing(_StubTask):
        def losses_and_gradients(self, X):
            if self.calls == 3:
                raise RuntimeError("refused")
            return super().losses_and_gradients(X)

    class _Ragged(_StubTask):
        def losses_and_gradients(self, X):
            if self.calls == 3:
                return np.ones((1, 2)), [[[1.0], [1.0, 2.0]]]
            return super().losses_and_gradients(X)

    starts = [np.array([0.4, 0.7]), np.array([0.1, 0.9])]
    weights = [lift_positive([1.0, 1.0])] * 2
    clean = inner_descent(_StubTask(), starts[1], weights[1], eta=0.1, rounds=5)
    for failing, error, message in (
        (_Refusing, RuntimeError, "refused"),
        (_Ragged, ValueError, None),
    ):
        out = relax._descend_rows(
            [failing(), _StubTask()], starts, weights, [0.1, 0.1], rounds=5, mode="epo"
        )
        assert type(out[0]) is error and message in (None, str(out[0]))
        assert _trace_bytes(out[1]) == _trace_bytes(clean)


def _trapped_bowl(X):
    """The bowl, with NaN gradients at a row whose first coordinate exceeds 5."""
    L, G = _bowl(X)
    G[X[:, 0] > 5.0] = np.nan
    return L, G


@pytest.mark.parametrize("mode", ["epo", "ls"])
@pytest.mark.parametrize("broken", ["raises", "shape", "values"])
def test_a_stacked_form_that_fails_falls_back_to_each_rows_own_losses(broken, mode):
    # a call on a stack holding the faulty row raises or returns a wrong
    # shape, and each row retries its own call on its (1, n) stack, or it
    # returns the row's NaN gradients, and the stack steps row by row; only
    # the faulty row stops, with its one-row error, and the rest stack again
    formed = []

    class _PureBowl(_StubTask):
        def losses_and_gradients(self, X):
            formed.append(len(X))
            if len(X) > 1 and (X[:, 0] > 5.0).any():
                if broken == "raises":
                    raise RuntimeError("stack refused")
                if broken == "shape":
                    return np.zeros((len(X), 3)), np.zeros((len(X), X.shape[1], 3))
            return _trapped_bowl(X)

    starts = [np.array(x) for x in ([0.4, 0.7], [0.1, 0.9], [8.0, 8.0], [-0.3, 0.2])]
    weights = [lift_positive(w) for w in ([1.0, 1.0], [0.6, 0.8], [0.5, 0.5], [0.9, 0.1])]
    etas = [0.1, 0.05, 0.1, 0.2]
    out = relax._descend_rows(
        [_PureBowl() for _ in starts], starts, weights, etas, rounds=5, mode=mode
    )
    assert formed == [4] + [1] * 4 * (broken != "values") + [3] * 4
    with pytest.raises(NumericalFailureError) as alone:
        inner_descent(_PureBowl(), starts[2], weights[2], eta=etas[2], rounds=5, mode=mode)
    assert type(out[2]) is NumericalFailureError and str(out[2]) == str(alone.value)
    assert out[2].round_index == alone.value.round_index == 0
    for j in (0, 1, 3):
        clean = inner_descent(_PureBowl(), starts[j], weights[j], eta=etas[j], rounds=5, mode=mode)
        assert _trace_bytes(out[j]) == _trace_bytes(clean)


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


class _TableTask(TaskContract):
    """Candidates 0..C-1 whose oracle losses are the rows of a (C, m) table."""

    def __init__(self, table):
        super().__init__()
        self.table = table
        self.m = table.shape[1]

    def _discrete_losses(self, candidate):
        return self.table[candidate]

    def relax(self, candidate):
        raise NotImplementedError

    def losses_and_gradients(self, x):
        raise NotImplementedError

    def neighborhood_discretize(self, x, count, rng):
        return list(range(count))

    def candidate_id(self, candidate):
        return str(candidate)

    def random_candidate(self, rng):
        return 0


@settings(deadline=None, max_examples=300)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(1, 4), min_size=m, max_size=m),
            st.lists(
                st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=1, max_size=12
            ),
        )
    )
)
def test_discretize_select_equals_the_tuple_key_pick(case):
    # quantised losses and weights tie often, in the max and in the sum
    weights, rows = case
    table = np.array(rows) / 4.0
    wv = np.array(weights) / 4.0
    task = _TableTask(table)
    candidate, objectives = discretize_select(
        task, np.zeros(1), wv, len(rows), np.random.default_rng(0)
    )
    want = select_by_tuple_key(list(table), wv)
    assert candidate == want
    assert objectives.tobytes() == table[want].tobytes()
    assert task.oracle_calls == len(rows) * table.shape[1]


def test_discretize_select_picks_the_first_of_equal_candidates():
    for m, count in ((2, 1), (3, 7), (4, 12)):
        task = _TableTask(np.full((count, m), 0.25))
        candidate, _ = discretize_select(
            task, np.zeros(1), np.ones(m), count, np.random.default_rng(0)
        )
        assert candidate == 0


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
    # The surrogate digests moved when the net's training gained momentum,
    # and again when it became L-BFGS: its 200-iteration cap now gives
    # the net that stops at its plateau after 150.
    ("surrogate", "epo"): (
        "76531760e7d1bb5d282c6daf8a984dfe"
        "775a94081232ae4277e53c204d21eaea"
    ),
    ("surrogate", "ls"): (
        "608452ab3d11233b3248c2fc3525a703"
        "c01c7d006911e1ecd66ec4d2dbd60f6c"
    ),
}

#: Task parameters of the pinned descents: the surrogate runs at m = 4 with
#: its net capped at 200 training iterations.
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
