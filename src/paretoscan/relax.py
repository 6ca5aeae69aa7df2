"""Task contract and the relax-descend-discretize inner machinery.

A task exposes a discrete candidate space with an oracle evaluation, a smooth
relaxation of that space with losses and per-objective gradients, and a way to
sample discrete candidates near a relaxed point.  The inner loop descends the
relaxation along non-dominating (or fixed linear-scalarization) directions;
discretization then evaluates a small batch of nearby candidates with the
oracle and keeps the one with the smallest weighted relative max.

Oracle accounting: one discrete evaluation costs m calls (one per objective).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from . import qp
from .core import DimensionMismatchError, as_objectives, as_weights

__all__ = [
    "Box",
    "SimplexRows",
    "Unconstrained",
    "RelaxedPoint",
    "TaskContract",
    "InvalidRelaxationError",
    "ExhaustedNeighborhoodError",
    "NumericalFailureError",
    "RoundTrace",
    "InnerResult",
    "SelectionResult",
    "inner_descent",
    "discretize_select",
]

#: Step directions with norm below this count as converged.
CONVERGENCE_NORM = 1e-9


class InvalidRelaxationError(ValueError):
    """Raised when relaxed parameters leave the task's feasible region."""


class ExhaustedNeighborhoodError(RuntimeError):
    """Raised when discretization produces no candidates."""


class NumericalFailureError(RuntimeError):
    """Non-finite loss or gradient encountered during descent.

    Attributes:
        round_index: Inner round at which the failure occurred.
    """

    def __init__(self, message: str, round_index: int) -> None:
        super().__init__(f"{message} (inner round {round_index})")
        self.round_index = round_index


@dataclass(frozen=True)
class Box:
    """Axis-aligned box feasible region with shared scalar bounds."""

    lo: float
    hi: float

    def project(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params, self.lo, self.hi)


@dataclass(frozen=True)
class SimplexRows:
    """Product of probability simplices, one per row of a flattened matrix."""

    rows: int
    cols: int

    def project(self, params: np.ndarray) -> np.ndarray:
        return qp.project_simplex(params.reshape(self.rows, self.cols)).ravel()


@dataclass(frozen=True)
class Unconstrained:
    """No feasible-region restriction."""

    def project(self, params: np.ndarray) -> np.ndarray:
        return params


@dataclass
class RelaxedPoint:
    """Continuous parameters plus the feasible region they live in."""

    params: np.ndarray
    region: Box | SimplexRows | Unconstrained

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64).ravel()


class TaskContract(abc.ABC):
    """Discrete optimization task with a differentiable relaxation.

    Subclasses define the candidate space, the oracle, the relaxation and its
    gradients.  ``eval_discrete`` is the only operation that touches the
    oracle counter.
    """

    #: Number of objectives; set by subclasses.
    m: int = 0

    def __init__(self) -> None:
        self._oracle_calls = 0

    @property
    def oracle_calls(self) -> int:
        """Cumulative oracle calls consumed by discrete evaluations."""
        return self._oracle_calls

    def eval_discrete(self, candidate) -> np.ndarray:
        """Evaluate a discrete candidate with the oracle (counted)."""
        self._oracle_calls += self.m
        return as_objectives(self._discrete_losses(candidate))

    def clamp(self, point: RelaxedPoint) -> RelaxedPoint:
        """Project a relaxed point back onto the task's feasible region."""
        return RelaxedPoint(point.region.project(point.params), point.region)

    @abc.abstractmethod
    def _discrete_losses(self, candidate) -> np.ndarray:
        """Oracle losses of a discrete candidate (uncounted internal hook)."""

    @abc.abstractmethod
    def relax(self, candidate) -> RelaxedPoint:
        """Embed a discrete candidate into the continuous search space."""

    @abc.abstractmethod
    def relaxed_losses(self, point: RelaxedPoint) -> np.ndarray:
        """Differentiable losses at a relaxed point."""

    @abc.abstractmethod
    def gradients(self, point: RelaxedPoint) -> np.ndarray:
        """(n, m) matrix of per-objective gradients at a relaxed point."""

    @abc.abstractmethod
    def neighborhood_discretize(self, point: RelaxedPoint, count: int, rng) -> list:
        """Discrete candidates near ``point``; first entry is deterministic."""

    @abc.abstractmethod
    def candidate_id(self, candidate) -> str:
        """Stable identifier for a discrete candidate."""

    @abc.abstractmethod
    def random_candidate(self, rng):
        """Seeded draw of an initial discrete candidate."""


@dataclass
class RoundTrace:
    """State recorded at the top of one inner descent round."""

    round_index: int
    losses: np.ndarray
    mu: float
    r_check: float
    mode: str


@dataclass
class InnerResult:
    """Outcome of :func:`inner_descent`."""

    point: RelaxedPoint
    trace: list[RoundTrace]
    converged: bool


def inner_descent(
    task: TaskContract,
    point: RelaxedPoint,
    weights,
    *,
    eta: float,
    rounds: int,
    mode: str = "epo",
    epsilon: float = qp.EPSILON_DEFAULT,
) -> InnerResult:
    """Gradient descent on the relaxation driven by the chosen direction rule.

    Args:
        task: The task providing relaxed losses/gradients.
        point: Starting relaxed point (clamped before use).
        weights: Preference weight vector lam.
        eta: Step size.
        rounds: Number of descent rounds (K).
        mode: "epo" for the non-dominating QP direction, "ls" for d = G lam.
        epsilon: Balance threshold for the QP mode.

    Returns:
        InnerResult with the final point, a per-round trace of
        (losses, mu, r_check), and a converged flag set when every round's
        direction norm fell below 1e-9.

    Raises:
        NumericalFailureError: On non-finite losses, gradients or direction,
            carrying the offending round index.
        ValueError: When the task returns negative losses, or a loss
            vector whose length differs from the weights'.
    """
    if mode not in ("epo", "ls"):
        raise ValueError(f"unknown descent mode {mode!r}")
    wv = as_weights(weights)
    x = task.clamp(point)
    trace: list[RoundTrace] = []
    max_norm = 0.0
    hint = None  # the last m >= 3 QP's winning pattern, tried first next round
    for k in range(rounds):
        losses = np.asarray(task.relaxed_losses(x), dtype=np.float64)
        if not np.all(np.isfinite(losses)):
            raise NumericalFailureError("non-finite relaxed losses", k)
        grads = np.asarray(task.gradients(x), dtype=np.float64)
        if not np.all(np.isfinite(grads)):
            raise NumericalFailureError("non-finite gradients", k)
        if np.any(losses < 0.0):
            raise ValueError("objective vector contains negative entries")
        if losses.shape != wv.shape:
            raise DimensionMismatchError(
                f"losses have length {losses.size} but weights have length {wv.size}"
            )
        try:
            mu, anchor, active = qp._profile(losses, wv, epsilon)
        except qp.DegenerateLossError:  # every loss is zero: the ideal point
            mu, anchor, active = 0.0, None, None
        r_check = float(np.max(losses * wv))
        trace.append(RoundTrace(k, losses.copy(), mu, r_check, mode))
        if mode == "ls":
            direction = grads @ wv
        elif anchor is None:
            direction = np.zeros(x.params.size)
        else:
            solution, hint = qp._solve(grads, anchor, active, hint)
            if solution.degenerate:
                direction = np.zeros(x.params.size)
            else:
                direction = grads @ solution.beta
        if not np.all(np.isfinite(direction)):
            raise NumericalFailureError("non-finite step direction", k)
        max_norm = max(max_norm, float(np.linalg.norm(direction)))
        x = task.clamp(RelaxedPoint(x.params - eta * direction, x.region))
    return InnerResult(point=x, trace=trace, converged=max_norm < CONVERGENCE_NORM)


@dataclass
class SelectionResult:
    """Outcome of :func:`discretize_select`: the kept candidate and its losses."""

    candidate: object
    objectives: np.ndarray


def discretize_select(
    task: TaskContract,
    point: RelaxedPoint,
    weights,
    count: int,
    rng,
) -> SelectionResult:
    """Sample candidates near a relaxed point and keep the best by r_check.

    Evaluates ``count`` discrete candidates with the oracle and returns the
    one minimizing the weighted relative max; ties break by lower weighted
    loss sum, then by draw order.

    Raises:
        ExhaustedNeighborhoodError: If the task yields no candidates.
    """
    wv = as_weights(weights)
    candidates = task.neighborhood_discretize(point, count, rng)
    if not candidates:
        raise ExhaustedNeighborhoodError("discretization produced no candidates")
    best_key: tuple[float, float, int] | None = None
    best: tuple[object, np.ndarray] | None = None
    for idx, cand in enumerate(candidates):
        objectives = task.eval_discrete(cand)
        weighted = objectives * wv
        r_check = float(np.max(weighted))
        key = (r_check, float(np.sum(weighted)), idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand, objectives)
    assert best is not None
    return SelectionResult(candidate=best[0], objectives=best[1])
