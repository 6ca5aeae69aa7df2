"""Task contract and the relax-descend-discretize inner machinery.

A task exposes a discrete candidate space with an oracle evaluation, a smooth
relaxation of that space with losses and per-objective gradients, and a way to
sample discrete candidates near a relaxed point.  The inner loop descends the
relaxation along non-dominating (or fixed linear-scalarization) directions;
discretization then evaluates a small batch of nearby candidates with the
oracle and keeps the one with the smallest weighted relative max.

A relaxed point is a plain 1-D float64 vector.  Its feasible region is fixed
per task, so it lives on the task (``TaskContract.region``: a ``Box`` or
``SimplexRows``), not on the point; ``clamp`` projects a vector onto it.

The engine hands a task only vectors that its own ``clamp`` made: one
``losses_and_gradients`` call per inner round, and one
``neighborhood_discretize`` call at the point the descent returned.  The
task may therefore trust the vector's shape and feasibility and skip
re-validating it; the loop checks what comes back.

Oracle accounting: one discrete evaluation costs m calls (one per objective).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from . import qp
from .core import DimensionMismatchError, as_objectives, as_weights

__all__ = [
    "Box",
    "SimplexRows",
    "TaskContract",
    "ExhaustedNeighborhoodError",
    "NumericalFailureError",
    "RoundTrace",
    "InnerResult",
    "inner_descent",
    "discretize_select",
]

#: Step directions with norm below this count as converged.
CONVERGENCE_NORM = 1e-9


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

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x, self.lo), self.hi)


@dataclass(frozen=True)
class SimplexRows:
    """Product of probability simplices, one per row of a flattened matrix."""

    rows: int
    cols: int

    def project(self, x: np.ndarray) -> np.ndarray:
        return qp.project_simplex(x.reshape(self.rows, self.cols)).ravel()


class TaskContract(abc.ABC):
    """Discrete optimization task with a differentiable relaxation.

    Subclasses define the candidate space, the oracle, the relaxation and its
    gradients.  ``eval_discrete`` is the only operation that touches the
    oracle counter.  ``losses_and_gradients`` and ``neighborhood_discretize``
    receive only vectors that :meth:`clamp` made.  A subclass that sets no ``default_eta`` runs only with
    an explicit ``RunConfig.eta``.
    """

    #: Number of objectives; set by subclasses.
    m: int = 0
    #: Feasible region of the relaxed vectors; set by subclasses.
    region: Box | SimplexRows
    #: Descent step a run takes when ``RunConfig.eta`` is None; set by subclasses.
    default_eta: float

    def __init__(self) -> None:
        self._oracle_calls = 0

    @property
    def oracle_calls(self) -> int:
        """Cumulative oracle calls consumed by discrete evaluations."""
        return self._oracle_calls

    def eval_discrete(self, candidate) -> np.ndarray:
        """Evaluate a discrete candidate with the oracle (counted).

        The m calls are charged once the oracle has returned, so a candidate
        the task refuses costs nothing.
        """
        losses = self._discrete_losses(candidate)
        self._oracle_calls += self.m
        return as_objectives(losses)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project a relaxed vector onto the task's feasible region."""
        return self.region.project(x)

    @abc.abstractmethod
    def _discrete_losses(self, candidate) -> np.ndarray:
        """Oracle losses of a discrete candidate (uncounted internal hook)."""

    @abc.abstractmethod
    def relax(self, candidate) -> np.ndarray:
        """Embed a discrete candidate as a 1-D float64 vector in ``region``."""

    @abc.abstractmethod
    def losses_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Differentiable losses and their (n, m) gradient matrix at ``x``.

        ``x`` comes from :meth:`clamp`, so it lies in the feasible region.
        """

    @abc.abstractmethod
    def neighborhood_discretize(self, x: np.ndarray, count: int, rng) -> list:
        """``count`` discrete candidates near ``x``; first entry is deterministic.

        ``x`` comes from :meth:`clamp`, so it lies in the feasible region,
        and :func:`discretize_select` has checked that ``count`` >= 1.
        """

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
    """Outcome of :func:`inner_descent`; ``start`` is the clamped start vector."""

    start: np.ndarray
    point: np.ndarray
    trace: list[RoundTrace]
    converged: bool


def inner_descent(
    task: TaskContract,
    x: np.ndarray,
    weights,
    *,
    eta: float,
    rounds: int,
    mode: str = "epo",
    previous: InnerResult | None = None,
) -> InnerResult:
    """Gradient descent on the relaxation driven by the chosen direction rule.

    The descent reads no random state, so its result depends only on the
    clamped start and the settings.  When ``previous`` started from the
    same clamped vector, it is returned itself and nothing is recomputed.
    ``previous`` must come from a call with the same task, weights, eta,
    rounds and mode; a run passes its last round's result.

    Each round checks the losses and gradients entry by entry.  The
    direction's sum of squares gives the norm for the converged flag and
    doubles as its finiteness check: a finite sum proves every entry
    finite, and only an infinite one, which finite entries can also give,
    is checked entry by entry.  So a direction fails exactly when an entry
    is NaN or infinite.

    Args:
        task: The task providing relaxed losses/gradients.
        x: Starting relaxed vector (clamped before use).
        weights: Preference weight vector lam.
        eta: Step size.
        rounds: Number of descent rounds (K).
        mode: "epo" for the non-dominating QP direction, "ls" for d = G lam.
        previous: The result of an earlier call with the same settings.

    Returns:
        InnerResult with the final vector, a per-round trace of
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
    x = task.clamp(x)
    if previous is not None and np.array_equal(previous.start, x):
        return previous
    start = x
    trace: list[RoundTrace] = []
    max_norm = 0.0
    hint = None  # the last m >= 3 QP's winning pattern, tried first next round
    for k in range(rounds):
        losses, grads = task.losses_and_gradients(x)
        losses = np.asarray(losses, dtype=np.float64)
        if not np.isfinite(losses).all():
            raise NumericalFailureError("non-finite relaxed losses", k)
        grads = np.asarray(grads, dtype=np.float64)
        if not np.isfinite(grads).all():
            raise NumericalFailureError("non-finite gradients", k)
        if (losses < 0.0).any():
            raise ValueError("objective vector contains negative entries")
        if losses.shape != wv.shape:
            raise DimensionMismatchError(
                f"losses have length {losses.size} but weights have length {wv.size}"
            )
        weighted = losses * wv
        try:
            mu, anchor, active = qp._profile(weighted, wv)
        except qp.DegenerateLossError:  # every loss is zero: the ideal point
            mu, anchor, active = 0.0, None, None
        r_check = float(weighted.max())
        trace.append(RoundTrace(k, losses.copy(), mu, r_check, mode))
        if mode == "ls":
            direction = grads @ wv
        elif anchor is None:
            direction = np.zeros(x.size)
        else:
            solution, hint = qp._solve(grads, anchor, active, hint)
            if solution.degenerate:
                direction = np.zeros(x.size)
            else:
                direction = grads @ solution.beta
        sq = float(direction.dot(direction))
        if not math.isfinite(sq) and not np.isfinite(direction).all():
            raise NumericalFailureError("non-finite step direction", k)
        max_norm = max(max_norm, math.sqrt(sq))
        x = task.clamp(x - eta * direction)
    return InnerResult(start, x, trace, converged=max_norm < CONVERGENCE_NORM)


def discretize_select(
    task: TaskContract,
    x: np.ndarray,
    weights,
    count: int,
    rng,
) -> tuple[object, np.ndarray]:
    """Sample candidates near a relaxed vector and keep the best by r_check.

    Evaluates ``count`` discrete candidates with the oracle and returns the
    ``(candidate, objectives)`` pair minimizing the weighted relative max;
    ties break by lower weighted loss sum, then by draw order.

    ``x`` must come from ``task.clamp``, as :func:`inner_descent`'s point does.

    Raises:
        ValueError: If ``count`` is below 1, before any oracle call.
        ExhaustedNeighborhoodError: If the task yields no candidates.
    """
    if count < 1:
        raise ValueError("count must be positive")
    wv = as_weights(weights)
    candidates = task.neighborhood_discretize(x, count, rng)
    if not candidates:
        raise ExhaustedNeighborhoodError("discretization produced no candidates")
    best_key: tuple[float, float, int] | None = None
    best: tuple[object, np.ndarray] | None = None
    for idx, cand in enumerate(candidates):
        objectives = task.eval_discrete(cand)
        weighted = objectives * wv
        key = (float(max(weighted)), float(weighted.sum()), idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand, objectives)
    assert best is not None
    return best
