"""Feasible regions, inner descent and discretization selection."""

import numpy as np
import pytest

from paretoscan.relax import (
    Box,
    ExhaustedNeighborhoodError,
    InnerResult,
    NumericalFailureError,
    RelaxedPoint,
    SimplexRows,
    TaskContract,
    discretize_select,
    inner_descent,
)
from paretoscan.tasks import SyntheticTask

#: The stub tasks' feasible region: the whole space.
_FREE = Box(-np.inf, np.inf)


# ---------------------------------------------------------------------------
# regions and points
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


def test_relaxed_point_ravels_and_casts():
    p = RelaxedPoint(np.array([[1, 2], [3, 4]]), _FREE)
    assert p.params.shape == (4,)
    assert p.params.dtype == np.float64


# ---------------------------------------------------------------------------
# scripted stub task for loop behavior
# ---------------------------------------------------------------------------


class _StubTask(TaskContract):
    """Quadratic bowl with hooks to inject failures and scripted candidates."""

    m = 2

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
        return RelaxedPoint(np.asarray(candidate, dtype=np.float64), _FREE)

    def losses_and_gradients(self, point):
        k = self.calls
        self.calls += 1
        x = point.params
        losses = np.array([float(x @ x), float((x - 1.0) @ (x - 1.0))])
        grads = np.stack([2.0 * x, 2.0 * (x - 1.0)], axis=1)
        if k == self.fail_loss_round:
            losses = np.array([np.nan, 1.0])
        if k == self.fail_grad_round:
            grads = np.full((x.size, 2), np.nan)
        return losses, grads

    def neighborhood_discretize(self, point, count, rng):
        if self.scripted is not None:
            return list(self.scripted)
        return [point.params.copy() for _ in range(count)]

    def candidate_id(self, candidate):
        return ",".join(f"{v:.3f}" for v in np.asarray(candidate).ravel())

    def random_candidate(self, rng):
        return rng.normal(size=2)


class _ZeroGradTask(_StubTask):
    def losses_and_gradients(self, point):
        losses, _ = super().losses_and_gradients(point)
        return losses, np.zeros((point.params.size, 2))


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
    assert not np.allclose(out.point.params, task.relax(x0).params)


def test_inner_descent_eta_zero_is_constant():
    task = _StubTask()
    start = RelaxedPoint(np.array([0.4, 0.7]), _FREE)
    out = inner_descent(task, start, [1.0, 1.0], eta=0.0, rounds=5)
    assert out.point.params == pytest.approx([0.4, 0.7])
    assert len(out.trace) == 5
    assert all(
        row.losses == pytest.approx(out.trace[0].losses) for row in out.trace
    )
    assert not out.converged  # directions are nonzero even if the step is not


def test_inner_descent_converged_on_zero_gradients():
    task = _ZeroGradTask()
    start = RelaxedPoint(np.array([0.4, 0.7]), _FREE)
    out = inner_descent(task, start, [1.0, 1.0], eta=0.5, rounds=3)
    assert out.converged
    assert out.point.params == pytest.approx([0.4, 0.7])


class _ClampWatch(_StubTask):
    """Stub that records the points its clamp makes and the points it is asked about."""

    def __init__(self):
        super().__init__()
        self.clamped = []
        self.asked = []

    def clamp(self, point):
        out = super().clamp(point)
        self.clamped.append(out)
        return out

    def losses_and_gradients(self, point):
        self.asked.append(point)
        return super().losses_and_gradients(point)


@pytest.mark.parametrize("mode", ["epo", "ls"])
def test_inner_descent_asks_the_task_once_per_round_at_a_clamped_point(mode):
    task = _ClampWatch()
    inner_descent(
        task, RelaxedPoint(np.array([0.4, 0.7]), _FREE), [1.0, 1.0],
        eta=0.1, rounds=6, mode=mode,
    )
    assert task.calls == 6
    # round k is asked about the point the k-th clamp made, not a copy
    assert all(a is c for a, c in zip(task.asked, task.clamped))


def test_inner_descent_rejects_unknown_mode():
    task = _StubTask()
    with pytest.raises(ValueError):
        inner_descent(
            task,
            RelaxedPoint(np.zeros(2), _FREE),
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
            RelaxedPoint(np.array([0.4, 0.7]), _FREE),
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
            RelaxedPoint(np.zeros(2), _FREE),
            [1.0, 1.0],
            eta=0.1,
            rounds=3,
        )
    assert exc.value.round_index == 0


@pytest.mark.parametrize(
    "losses, message", [([-0.1, 1.0], "negative"), ([0.5, 0.5, 0.5], "length 3")]
)
def test_inner_descent_rejects_malformed_task_losses(losses, message):
    task = _StubTask()
    task.losses_and_gradients = lambda point: (np.array(losses), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=message):
        inner_descent(
            task,
            RelaxedPoint(np.zeros(2), _FREE),
            [1.0, 1.0],
            eta=0.1,
            rounds=2,
        )


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_select_minimizes_relative_max():
    cands = [np.array([0.5, 0.5]), np.array([0.1, 0.1]), np.array([0.9, 0.9])]
    # losses: [x@x, (x-1)@(x-1)]; weights (1, 1)
    # r_check: 0.5 -> 0.5, 0.1 -> 1.62, 0.9 -> 1.62
    task = _StubTask(candidates=cands)
    sel = discretize_select(
        task, RelaxedPoint(np.zeros(2), _FREE), [1.0, 1.0], 3,
        np.random.default_rng(0),
    )
    assert sel.candidate == pytest.approx([0.5, 0.5])
    assert sel.objectives == pytest.approx([0.5, 0.5])
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

        def losses_and_gradients(self, point):
            raise NotImplementedError

        def neighborhood_discretize(self, point, count, rng):
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
    sel = discretize_select(
        task, RelaxedPoint(np.zeros(1), _FREE), [1.0, 1.0], 3,
        np.random.default_rng(0),
    )
    assert sel.candidate == "b"


def test_discretize_select_counts_oracle_calls():
    task = _StubTask()
    point = RelaxedPoint(np.array([0.2, 0.2]), _FREE)
    discretize_select(task, point, [1.0, 1.0], 4, np.random.default_rng(0))
    assert task.oracle_calls == 8  # 4 candidates x m=2


def test_discretize_select_empty_neighborhood_raises():
    task = _StubTask(candidates=[])
    with pytest.raises(ExhaustedNeighborhoodError):
        discretize_select(
            task, RelaxedPoint(np.zeros(2), _FREE), [1.0, 1.0], 2,
            np.random.default_rng(0),
        )
