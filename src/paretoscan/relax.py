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
    rounds and mode; a run passes its last round's result, and a scan the
    ray's row of the stack it descended this round.  Otherwise each round
    is one ``_step_row``, the step that ``_descend_rows`` takes for a row
    of a scan's stack, so a ray descends the same bit for bit alone or in
    a scan.

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
        ValueError: When the task returns negative losses, a loss vector
            whose length differs from the weights', or a gradient matrix
            whose shape is not (len(x), len(weights)).
    """
    if mode not in ("epo", "ls"):
        raise ValueError(f"unknown descent mode {mode!r}")
    wv = as_weights(weights)
    x = task.clamp(x)
    if previous is not None and np.array_equal(previous.start, x):
        return previous
    start, trace, peak, hint = x, [], 0.0, None
    for k in range(rounds):
        losses, grads = task.losses_and_gradients(x)
        losses = np.asarray(losses, dtype=np.float64)
        grads = np.asarray(grads, dtype=np.float64)
        (losses, mu, r_check), norm, x, hint = _step_row(
            losses, grads, wv, eta, x, hint, mode, k
        )
        trace.append(RoundTrace(k, losses, mu, r_check, mode))
        peak = max(peak, norm)
        x = task.clamp(x)
    return InnerResult(start, x, trace, converged=peak < CONVERGENCE_NORM)


def _row_error(
    losses: np.ndarray, grads: np.ndarray, weights: np.ndarray, n: int, k: int
) -> Exception | None:
    """The first check of inner round ``k`` that a task's losses and
    gradients fail, in the order a descent makes them, or None."""
    if not np.isfinite(losses).all():
        return NumericalFailureError("non-finite relaxed losses", k)
    if not np.isfinite(grads).all():
        return NumericalFailureError("non-finite gradients", k)
    if (losses < 0.0).any():
        return ValueError("objective vector contains negative entries")
    if losses.shape != weights.shape:
        return DimensionMismatchError(
            f"losses have length {losses.size} but weights have length {weights.size}"
        )
    if grads.shape != (n, weights.size):
        return DimensionMismatchError(
            f"gradients have shape {grads.shape}, expected ({n}, {weights.size})"
        )
    return None


def _profile_row(prod: np.ndarray, weights: np.ndarray) -> tuple:
    """``qp._profile``, or (0.0, None, None) when every loss is zero."""
    try:
        return qp._profile(prod, weights)
    except qp.DegenerateLossError:  # every loss is zero: the ideal point
        return 0.0, None, None


def _profiles(
    weighted: np.ndarray, weights: np.ndarray
) -> list[tuple[float, np.ndarray | None, np.ndarray | None]]:
    """:func:`_profile_row` of every row of ``weighted`` = losses * weights,
    bit for bit, computed for all rows at once.

    A row with a zero share, which the profile's sums leave out, is
    profiled on its own.
    """
    m = weighted.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = weighted / weighted.sum(axis=1, keepdims=True)
        log_ratio = np.log(h * m)
        mu = (h * log_ratio).sum(axis=1)
        balancing = weights * (log_ratio - mu[:, None])
    top = weighted.max(axis=1, keepdims=True)
    tied = weighted >= top - 1e-12 * np.maximum(top, 1.0)
    every = np.arange(m)
    out: list = []
    for prod, w, value, whole, balanced, ties, anchor in zip(
        weighted,
        weights,
        mu.tolist(),
        (h > 0.0).all(axis=1).tolist(),
        (mu <= qp.EPSILON).tolist(),
        tied,
        balancing,
    ):
        if not whole:
            out.append(_profile_row(prod, w))
        elif balanced:
            out.append((value, prod, np.flatnonzero(ties)))
        else:
            out.append((value, anchor, every))
    return out


#: One row's round: its trace entry (losses, mu, r_check), its direction
#: norm, its next point before the clamp and its next QP hint.
_Step = tuple[tuple[np.ndarray, float, float], float, np.ndarray, "qp.Hint | None"]


def _step_row(
    losses: np.ndarray,
    grads: np.ndarray,
    weights: np.ndarray,
    eta: float,
    x: np.ndarray,
    hint,
    mode: str,
    k: int,
) -> _Step:
    """Inner round ``k`` of one descent at ``x``, from the task's losses
    and (n, m) gradients there."""
    error = _row_error(losses, grads, weights, x.size, k)
    if error is not None:
        raise error
    weighted = losses * weights
    mu, anchor, active = _profile_row(weighted, weights)
    if mode == "ls":
        direction = grads @ weights
    elif anchor is None:
        direction = np.zeros(x.size)
    else:
        solution, hint = qp._solve(grads.T @ grads, anchor, active, hint)
        direction = np.zeros(x.size) if solution.degenerate else grads @ solution.beta
    sq = float(direction.dot(direction))
    if not math.isfinite(sq) and not np.isfinite(direction).all():
        raise NumericalFailureError("non-finite step direction", k)
    trace = (losses.copy(), mu, float(weighted.max()))
    return trace, math.sqrt(sq), x - eta * direction, hint


def _step_stack(
    rows: list,
    fortran: bool,
    weights: list[np.ndarray],
    etas: list[float],
    points: list[np.ndarray],
    hints: list,
    mode: str,
) -> list[_Step] | None:
    """:func:`_step_row` of each of two or more ``rows`` of (index, losses,
    gradients), whose gradient matrices share a shape and a memory order,
    bit for bit, or None when a row fails a check.

    The checks, the profile, M = G^T G, the direction G beta, its norm and
    the step are computed at once; the QP is solved row by row.
    """
    ids = [row[0] for row in rows]
    L = np.array([row[1] for row in rows])
    if fortran:  # each slice keeps its matrix's order, so BLAS sums alike
        G = np.array([row[2].T for row in rows]).transpose(0, 2, 1)
    else:
        G = np.array([row[2] for row in rows])
    if not (np.isfinite(G).all() and 0.0 <= L.min() and L.max() < np.inf):
        return None
    W = np.array([weights[i] for i in ids])
    weighted = L * W
    profiles = _profiles(weighted, W)
    hints = [hints[i] for i in ids]
    still = []  # rows that hold position this round
    if mode == "ls":
        beta = W
    else:
        M = np.matmul(G.transpose(0, 2, 1), G)
        beta = np.zeros(W.shape)
        for j, (_, anchor, active) in enumerate(profiles):
            if anchor is None:
                still.append(j)
                continue
            solution, hints[j] = qp._solve(M[j], anchor, active, hints[j])
            if solution.degenerate:
                still.append(j)
            else:
                beta[j] = solution.beta
    direction = np.matmul(G, beta[:, :, None])[:, :, 0]
    if still:
        direction[still] = 0.0
    with np.errstate(over="ignore"):
        sq = np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0]
    norms = np.sqrt(sq).tolist()
    if not all(map(math.isfinite, norms)):
        return None
    eta = np.array([etas[i] for i in ids])[:, None]
    moved = np.array([points[i] for i in ids]) - eta * direction
    return [
        ((L[j], mu, r_check), norms[j], moved[j], hints[j])
        for j, ((mu, _, _), r_check) in enumerate(zip(profiles, weighted.max(axis=1).tolist()))
    ]


def _descend_rows(
    tasks: list[TaskContract],
    starts: list[np.ndarray],
    weights: list[np.ndarray],
    etas: list[float],
    *,
    rounds: int,
    mode: str,
) -> list[InnerResult | Exception]:
    """The descents of :func:`inner_descent` from clamped starts, one row
    per task, stepped together round by round.

    Row i descends ``tasks[i]`` from ``starts[i]`` along the validated
    weights ``weights[i]`` with step ``etas[i]``, and equals its one-row
    descent bit for bit.  Each task computes its own losses and gradients
    and its own clamp.  The rows of a round whose gradient matrices share
    a shape and a memory order step as one stack (:func:`_step_stack`);
    a lone row, and every row of a stack that one of its rows fails,
    steps alone (:func:`_step_row`).

    Returns, per row, its InnerResult or the exception that stopped it: a
    row whose task raises, whose values fail a check or whose step raises
    stops with the exception its one-row descent raises, and the other
    rows go on.
    """
    outcome: list = [None] * len(tasks)
    points = list(starts)
    traces: list[list[RoundTrace]] = [[] for _ in tasks]
    peaks = [0.0] * len(tasks)  # each row's largest direction norm
    hints: list = [None] * len(tasks)  # each row's last m >= 3 QP pattern
    live = list(range(len(tasks)))
    for k in range(rounds):
        groups: dict = {}
        for i in live:
            try:
                losses, grads = tasks[i].losses_and_gradients(points[i])
                losses = np.asarray(losses, dtype=np.float64)
                grads = np.asarray(grads, dtype=np.float64)
            except Exception as exc:  # the task's own failure stops its row only
                outcome[i] = exc
                continue
            n = points[i].size
            if losses.shape != weights[i].shape or grads.shape != (n, losses.size):
                outcome[i] = _row_error(losses, grads, weights[i], n, k)
                continue
            fortran = grads.flags.f_contiguous and not grads.flags.c_contiguous
            groups.setdefault((grads.shape, fortran), []).append((i, losses, grads))
        for (_, fortran), rows in groups.items():
            steps = None
            if len(rows) > 1:
                try:
                    steps = _step_stack(rows, fortran, weights, etas, points, hints, mode)
                except Exception:  # the rows step alone, so only a raising row stops
                    steps = None
            if steps is None:
                steps = []
                for i, losses, grads in rows:
                    try:
                        step = _step_row(
                            losses, grads, weights[i], etas[i], points[i], hints[i], mode, k
                        )
                    except Exception as exc:
                        step = exc
                    steps.append(step)
            for (i, _, _), step in zip(rows, steps):
                if isinstance(step, Exception):
                    outcome[i] = step
                    continue
                (losses, mu, r_check), norm, moved, hints[i] = step
                traces[i].append(RoundTrace(k, losses, mu, r_check, mode))
                peaks[i] = max(peaks[i], norm)
                try:
                    points[i] = tasks[i].clamp(moved)
                except Exception as exc:
                    outcome[i] = exc
        live = [i for i in live if outcome[i] is None]
    for i in live:
        outcome[i] = InnerResult(
            starts[i], points[i], traces[i], converged=peaks[i] < CONVERGENCE_NORM
        )
    return outcome


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
