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

The engine hands a task only vectors that its own ``clamp`` made: their
losses and gradients once per inner round, and one
``neighborhood_discretize`` call at the point the descent returned.  The
task may therefore trust the vectors' shape and feasibility and skip
re-validating them; the loop checks what comes back.  A task maps a
stack of points at once: ``losses_and_gradients`` takes an (r, n) stack,
and ``clamp`` a point or a stack, row by row.  One rule says which rows
share a call (:func:`_share_key`): tasks of one class with equal
``stack_key`` values give equal numbers from both methods, so one call
on the first row's task serves them all.  When at least ``_MIN_STACK``
of a descent's rows share a key and their sizes, they make a stack that
lives across the inner rounds, one call serves them each round, and the
stack steps in array passes: the profile, the QP (``qp._solve_rows``),
the step and one ``clamp`` call.  Every other row calls its task on its
point as a (1, n) stack and steps alone.

Oracle accounting: one discrete evaluation costs m calls (one per objective).
"""

from __future__ import annotations

import abc
import math
from collections.abc import Hashable
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
        return qp.project_simplex(x.reshape(-1, self.cols)).reshape(x.shape)


class TaskContract(abc.ABC):
    """Discrete optimization task with a differentiable relaxation.

    Subclasses define the candidate space, the oracle, the relaxation and its
    gradients.  ``eval_discrete`` is the only operation that touches the
    oracle counter.  ``losses_and_gradients`` and ``neighborhood_discretize``
    receive only vectors that :meth:`clamp` made.  A subclass that sets no ``default_eta`` runs only with
    an explicit ``RunConfig.eta``.

    ``losses_and_gradients`` and ``clamp`` map a stack of points row by
    row: a row's numbers must not depend on the rest of its stack.  They
    may read instance state under the key rule: tasks of one class with
    equal (hashable) ``stack_key`` values give equal numbers from both
    methods at equal points, so a call made on any one of them serves
    them all.  A task whose numbers depend on its own history, such as a
    call count, needs a key of its own.
    """

    #: Number of objectives; set by subclasses.
    m: int = 0
    #: Feasible region of the relaxed vectors; set by subclasses.
    region: Box | SimplexRows
    #: Descent step a run takes when ``RunConfig.eta`` is None; set by subclasses.
    default_eta: float
    #: Tasks of one class with equal keys share calls (see above); by
    #: default every instance of a class does.
    stack_key: Hashable = None

    def __init__(self) -> None:
        self._oracle_calls = 0

    @property
    def oracle_calls(self) -> int:
        """Cumulative oracle calls consumed by discrete evaluations."""
        return self._oracle_calls

    def eval_discrete(self, candidate) -> np.ndarray:
        """Evaluate a discrete candidate with the oracle (counted).

        The m calls are charged once the oracle has returned, so a candidate
        the task refuses costs nothing.  The returned vector is then checked:
        1-D, of m entries, finite and non-negative.

        Raises:
            DimensionMismatchError: If the oracle returns other than m losses.
            ValueError: If a loss is negative or non-finite, or the losses
                are not a 1-D vector.
        """
        losses = self._discrete_losses(candidate)
        self._oracle_calls += self.m
        objectives = as_objectives(losses)
        if objectives.size != self.m:
            raise DimensionMismatchError(
                f"oracle vector has length {objectives.size} but the task has {self.m} objectives"
            )
        return objectives

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project a relaxed vector, or each row of an (r, n) stack of
        them, onto the task's feasible region.

        ``region.project`` maps a stack row by row, bit for bit; an
        override must do the same.
        """
        return self.region.project(x)

    @abc.abstractmethod
    def _discrete_losses(self, candidate) -> np.ndarray:
        """Oracle losses of a discrete candidate (uncounted internal hook)."""

    @abc.abstractmethod
    def relax(self, candidate) -> np.ndarray:
        """Embed a discrete candidate as a 1-D float64 vector in ``region``."""

    @abc.abstractmethod
    def losses_and_gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Differentiable losses and their gradients at each row of an
        (r, n) stack ``X``, as (r, m) and (r, n, m) arrays.

        The rows come from :meth:`clamp`, so they lie in the feasible
        region.  Row j's losses and gradients, the gradients' memory
        order included, equal those of a call on ``X[j:j + 1]`` bit for bit.
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
    same clamped vector, it is returned itself and nothing is recomputed;
    when ``x`` is ``previous.start`` itself, it is returned before any
    clamp.  ``previous`` must come from a call with the same task, weights,
    eta, rounds and mode; a run's round passes the row that
    :func:`_descend_rows` descended for its ray, or its last descent.
    Otherwise the descent is the one row of a ``_descend_rows`` call, the
    loop that also descends a scan's rays together, so a ray descends the
    same bit for bit alone or in a scan.

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
        ValueError: When the task returns negative losses, a row of losses
            whose length differs from the weights', or a row of gradients
            whose shape is not (len(x), len(weights)).
    """
    if mode not in ("epo", "ls"):
        raise ValueError(f"unknown descent mode {mode!r}")
    wv = as_weights(weights)
    if previous is not None and x is previous.start:
        return previous
    x = task.clamp(x)
    if previous is not None and np.array_equal(previous.start, x):
        return previous
    (result,) = _descend_rows([task], [x], [wv], [eta], rounds=rounds, mode=mode)
    if isinstance(result, Exception):
        raise result
    return result


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_profile_row` of every row of ``weighted`` = losses * weights,
    bit for bit, computed for all rows at once: the (r,) non-uniformities,
    the (r, m) anchors and the (r, m) active-set masks.  A row whose
    losses are all zero has μ 0, a zero anchor and no active index.

    A row with a zero share, which the profile's sums leave out, is
    profiled on its own.
    """
    m = weighted.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = weighted / weighted.sum(axis=1, keepdims=True)
        log_ratio = np.log(h * m)
        mu = (h * log_ratio).sum(axis=1)
        balancing = weights * (log_ratio - mu[:, None])
    balanced = (mu <= qp.EPSILON)[:, None]
    anchor = np.where(balanced, weighted, balancing)
    top = weighted.max(axis=1, keepdims=True)
    active = ~balanced | (weighted >= top - 1e-12 * np.maximum(top, 1.0))
    for j in np.flatnonzero(~(h > 0.0).all(axis=1)).tolist():
        mu[j], row_anchor, row_active = _profile_row(weighted[j], weights[j])
        anchor[j] = 0.0 if row_anchor is None else row_anchor
        active[j] = False
        if row_active is not None:
            active[j, row_active] = True
    return mu, anchor, active


#: One row's round: its trace entry (losses, mu, r_check), its direction
#: norm and its next QP hint.
_Step = tuple[tuple[np.ndarray, float, float], float, "qp.Hint | None"]


def _step_row(
    losses: np.ndarray,
    grads: np.ndarray,
    weights: np.ndarray,
    eta: float,
    x: np.ndarray,
    hint,
    mode: str,
    k: int,
) -> tuple[_Step, np.ndarray]:
    """Inner round ``k`` of one descent at ``x``, from the task's losses
    and (n, m) gradients there: the row's step and its next point before
    the clamp."""
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
    return (trace, math.sqrt(sq), hint), x - eta * direction


def _step_stack(
    L: np.ndarray,
    G: np.ndarray,
    W: np.ndarray,
    eta: np.ndarray,
    X: np.ndarray,
    hints: list,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, np.ndarray] | None:
    """:func:`_step_row` of each row j at ``X[j]`` from its losses ``L[j]``,
    gradients ``G[j]``, weights ``W[j]``, step ``eta[j]`` and QP hint
    ``hints[j]``, bit for bit: the rows' (r,) non-uniformities, weighted
    relative maxima and direction norms, their next hints and their (r, n)
    next points before the clamp, or None when a row fails a check.

    Every stage runs on the whole stack: the checks, the profile, M = G^T G,
    the QP (:func:`qp._solve_rows`), the direction G beta, its norm and the
    step.  ``hints`` is left as it is.
    """
    if not (np.isfinite(G).all() and 0.0 <= L.min() and L.max() < np.inf):
        return None
    weighted = L * W
    mu, anchor, active = _profiles(weighted, W)
    hints = list(hints)
    still = np.zeros(len(L), dtype=bool)  # rows that hold position this round
    if mode == "ls":
        beta = W
    else:
        still = ~active.any(axis=1)  # every loss zero
        solving = np.flatnonzero(~still)
        M = np.matmul(G.transpose(0, 2, 1), G)[solving]
        beta = np.zeros(W.shape)
        beta[solving], degenerate, found = qp._solve_rows(
            M, anchor[solving], active[solving], [hints[j] for j in solving]
        )
        still[solving[degenerate]] = True
        for j, hint in zip(solving.tolist(), found):
            hints[j] = hint
    direction = np.matmul(G, beta[:, :, None])[:, :, 0]
    if still.any():
        direction[still] = 0.0
    with np.errstate(over="ignore"):
        sq = np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0]
    norms = np.sqrt(sq)
    if not np.isfinite(norms).all():
        return None
    return mu, weighted.max(axis=1), norms, hints, X - eta * direction


#: Fewest rows of one key and shape that step as a stack.  Below it the
#: stack's fixed cost per inner round outweighs what it saves: a scan of
#: two rays that stack took 1.24x (synthetic), 1.00x (unigram) and 1.07x
#: (surrogate) the time of the same scan stepping them alone, three rays
#: 0.93x, 0.83x and 1.00x, four 0.75x, 0.84x and 0.97x (T = 50, K = 20,
#: seed 1, medians of 15 alternating pairs).
_MIN_STACK = 3


def _share_key(task: TaskContract) -> tuple[type, Hashable]:
    """The key of the rows that one call serves: the task's class and its
    ``stack_key``.  Tasks with equal keys give equal numbers from
    ``losses_and_gradients`` and ``clamp``, so a call on the first row's
    task serves every row.

    Raises:
        TypeError: If the task's ``stack_key`` is unhashable, naming its type.
    """
    key = type(task), task.stack_key
    try:
        hash(key)
    except TypeError as exc:
        raise TypeError(
            f"stack_key must be hashable, got {type(task.stack_key).__name__}"
        ) from exc
    return key


class _Stack:
    """Rows of a descent that step as one stack, held as arrays across its
    inner rounds until they step alone again or the descent ends.

    ``task`` is the first row's task, which makes the stack's calls;
    ``X`` (r, n), ``W`` (r, m) and ``eta`` (r, 1) are the rows' points,
    weights and steps; ``hints`` and ``peaks`` their QP hints and largest
    direction norms; ``rounds`` holds (k, L, mu, r_check) per stepped
    round, from which :meth:`release` builds the rows' traces.
    """

    def __init__(self, ids, task, X, W, eta, hints, peaks) -> None:
        self.ids, self.task = ids, task
        self.X, self.W, self.eta, self.hints, self.peaks = X, W, eta, hints, peaks
        self.rounds: list = []

    def losses(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The rows' (r, m) losses and (r, n, m) gradients from one call,
        or None when the call raises or gives other shapes."""
        try:
            L, G = self.task.losses_and_gradients(self.X)
            L = np.array(L, dtype=np.float64)
            G = np.asarray(G, dtype=np.float64)
        except Exception:
            return None
        if L.shape == self.W.shape and G.shape == self.X.shape + self.W.shape[1:]:
            return L, G
        return None

    def clamp(self, moved: np.ndarray) -> bool:
        """Clamp the rows' next points ``moved`` in one call into ``X``,
        and say whether it did: not when the call raises or returns
        another shape."""
        try:
            clamped = self.task.clamp(moved)
        except Exception:
            return False
        if isinstance(clamped, np.ndarray) and clamped.shape == moved.shape:
            self.X = np.ascontiguousarray(clamped)
            return True
        return False

    def release(self, points: list, traces: list, hints: list, peaks: list, mode: str) -> None:
        """Hand the rows' state back to the descent's per-row lists: their
        points, traces, hints and peaks."""
        for i, x in zip(self.ids, self.X):
            points[i] = x
        for k, L, mu, r_check in self.rounds:
            for i, losses, value, top in zip(self.ids, L, mu.tolist(), r_check.tolist()):
                traces[i].append(RoundTrace(k, losses, value, top, mode))
        for i, hint, peak in zip(self.ids, self.hints, self.peaks.tolist()):
            hints[i], peaks[i] = hint, peak


def _group(
    tasks: list[TaskContract],
    points: list[np.ndarray],
    weights: list[np.ndarray],
    etas: list[float],
    hints: list,
    peaks: list[float],
    live: list[int],
) -> tuple[list[_Stack], list[int]]:
    """The ``live`` rows' stacks, and the rows that step alone in order.

    The rows that share a key (:func:`_share_key`), a point size and a
    weight size, at least ``_MIN_STACK`` of them, make a stack whose calls
    are made on the first row's task.
    """
    shared: dict = {}
    for i in live:
        shared.setdefault((_share_key(tasks[i]), points[i].size, weights[i].size), []).append(i)
    stacks, alone = [], []
    for ids in shared.values():
        if len(ids) < _MIN_STACK:
            alone += ids
            continue
        stacks.append(
            _Stack(
                ids,
                tasks[ids[0]],
                np.array([points[i] for i in ids]),
                np.array([weights[i] for i in ids]),
                np.array([etas[i] for i in ids])[:, None],
                [hints[i] for i in ids],
                np.array([peaks[i] for i in ids]),
            )
        )
    return stacks, sorted(alone)


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
    per task, stepped together round by round: the one loop over inner
    rounds, which a single descent runs with one row.

    Row i descends ``tasks[i]`` from ``starts[i]`` along the validated
    weights ``weights[i]`` with step ``etas[i]``, and equals the descent
    it makes as the only row bit for bit.  The rows are grouped once
    (:func:`_group`): rows whose tasks share a key make a stack, which
    keeps its points, weights, steps, hints and peaks as arrays across the
    rounds.  Each round a stack takes its losses from one call on its
    points, steps at once (:func:`_step_stack`) and takes the array one
    ``clamp`` call returns as its next points.  The other rows call their
    own tasks on their points as (1, n) stacks and step alone
    (:func:`_step_row`).  So does every row of a stack in a round where a
    call raises or returns a wrong shape, each retrying its own call, or
    where one of its rows fails a check.  The rows are grouped again, from
    the live rows, only after a round in which a row stopped or a stack
    stepped alone.

    Returns, per row, its InnerResult or the exception that stopped it: a
    row whose task raises, whose values fail a check or whose step raises
    stops with the exception it raises as the only row, and the other
    rows go on.
    """
    outcome: list = [None] * len(tasks)
    points = list(starts)
    traces: list[list[RoundTrace]] = [[] for _ in tasks]
    peaks = [0.0] * len(tasks)  # each row's largest direction norm
    hints: list = [None] * len(tasks)  # each row's last m >= 3 QP pattern
    live = list(range(len(tasks)))
    state = (points, traces, hints, peaks, mode)
    stacks, own = _group(tasks, points, weights, etas, hints, peaks, live)
    regroup = False  # a row stopped or a stack broke up in the last round
    for k in range(rounds):
        if regroup:
            for stack in stacks:
                stack.release(*state)
            live = [i for i in live if outcome[i] is None]
            stacks, own = _group(tasks, points, weights, etas, hints, peaks, live)
            regroup = False
        formed, calling, kept = [], list(own), []
        for stack in stacks:
            called = stack.losses()
            if called is None:  # the rows call their own tasks instead
                stack.release(*state)
                calling += stack.ids
                regroup = True
            else:
                formed.append((stack, *called))
        alone = []
        for i in sorted(calling):
            try:
                L, G = tasks[i].losses_and_gradients(points[i][None])
                alone.append((i, np.asarray(L, np.float64)[0], np.asarray(G, np.float64)[0]))
            except Exception as exc:  # the task's own failure stops its row only
                outcome[i] = exc
                regroup = True
        for stack, L, G in formed:
            try:
                stepped = _step_stack(L, G, stack.W, stack.eta, stack.X, stack.hints, mode)
            except Exception:  # the rows step alone, so only a raising row stops
                stepped = None
            if stepped is None:
                stack.release(*state)
                alone += [(i, L[j], G[j]) for j, i in enumerate(stack.ids)]
                regroup = True
                continue
            mu, r_check, norms, stack.hints, moved = stepped
            stack.rounds.append((k, L, mu, r_check))
            stack.peaks = np.maximum(stack.peaks, norms)
            if stack.clamp(moved):
                kept.append(stack)
                continue
            stack.release(*state)  # the rows clamp alone, so only a raising row stops
            for i, x in zip(stack.ids, moved):
                try:
                    points[i] = tasks[i].clamp(x)
                except Exception as exc:
                    outcome[i] = exc
            regroup = True
        stacks = kept
        for i, losses, grads in alone:
            try:
                (trace, norm, hints[i]), moved = _step_row(
                    losses, grads, weights[i], etas[i], points[i], hints[i], mode, k
                )
                traces[i].append(RoundTrace(k, *trace, mode))
                peaks[i] = max(peaks[i], norm)
                points[i] = tasks[i].clamp(moved)
            except Exception as exc:  # the row's step or clamp raised
                outcome[i] = exc
                regroup = True
    for stack in stacks:
        stack.release(*state)
    return [
        InnerResult(starts[i], points[i], traces[i], converged=peaks[i] < CONVERGENCE_NORM)
        if outcome[i] is None
        else outcome[i]
        for i in range(len(tasks))
    ]


def discretize_select(
    task: TaskContract,
    x: np.ndarray,
    weights,
    count: int,
    rng,
) -> tuple[object, np.ndarray]:
    """Sample candidates near a relaxed vector and keep the best by r_check.

    Evaluates ``count`` discrete candidates with the oracle, in draw order,
    and returns the ``(candidate, objectives)`` pair minimizing the weighted
    relative max; ties break by lower weighted sum, then draw order (a stable lexsort).

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
    objectives = [task.eval_discrete(cand) for cand in candidates]
    weighted = np.array(objectives) * wv
    best = int(np.lexsort((weighted.sum(axis=1), weighted.max(axis=1)))[0])
    return candidates[best], objectives[best]
