"""Non-dominating descent directions from a tiny constrained least-squares QP.

Given per-objective gradients G (columns g_1..g_m) at a relaxed point, losses L
and preference weights lam, the step direction is d = G beta* where

    beta* = argmin  || G^T G beta - a ||^2
            s.t.    beta in the probability simplex,
                    beta^T G^T g_j >= 0  for every j in the active index set J.

The anchor a switches between a pure descent target (weighted losses, taken
when the weighted loss profile is already uniform along the preference ray:
its non-uniformity is at most the fixed threshold ``EPSILON`` = 1e-3) and a
balancing target built from the log-ratio of each normalized weighted
loss to the uniform profile.  The constraint set J shrinks to the maximal
weighted losses in the uniform regime so the step may trade off the rest.

m is tiny (2..4 in practice), so the solver enumerates active sets exactly:
a closed-form interval argmin for m = 2 and equality-constrained KKT solves
over all small constraint subsets otherwise, one stacked solve per subset
size.  A subset whose KKT matrix is exactly singular is skipped: when G^T G
has full rank the optimum solves a subset of independent rows, whose KKT
matrix is regular.  Solutions are exact to machine precision, which the
downstream descent loop leans on heavily.

The winning subset (its *pattern*) rarely changes from one inner round to
the next, so the descent loop passes the last winner back as a hint and,
under the same J, that pattern alone is solved first.  The problem is
convex, so its KKT point is optimal when it is feasible and its inequality
multipliers have the right sign.  That certificate replaces the
enumeration in 815 of the 880 m = 3 solves of the benchmark's ngram-uni
scan and 467 of the 500 m = 4 solves of its surrogate scan (seed 1, 93 %
each); every other case enumerates.  The certified solve uses the
enumeration's arithmetic for that pattern, so beta is the same bit for
bit.  The hint lives in the caller's loop only: no state is kept here.

A descent that steps several rows as a stack solves their QPs in array
passes (:func:`_solve_rows`): one interval solve over a stack of ten or
more m = 2 rows, and for m >= 3 one certification per pattern size for
the rows whose hint applies, with only the rest enumerated one by one.
Each row's beta is the one it gets solved alone, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, as_objectives, as_weights

__all__ = [
    "DegenerateLossError",
    "QPSolution",
    "nonuniformity",
    "active_index_set",
    "anchor_direction",
    "project_simplex",
    "solve_qp",
]

#: Threshold on the non-uniformity at or below which the weighted loss
#: profile counts as balanced and the solver switches to pure descent
#: (the EPO search of Mahapatra & Rajan, ICML 2020).
EPSILON = 1e-3

# Slack inequalities count as met down to -_RELIEF.
_RELIEF = 5e-9


class DegenerateLossError(ValueError):
    """Raised when every weighted loss is zero and no profile can be formed."""


def _paired(losses, weights) -> tuple[np.ndarray, np.ndarray]:
    lv = as_objectives(losses)
    wv = as_weights(weights)
    if lv.shape != wv.shape:
        raise DimensionMismatchError(
            f"losses have length {lv.size} but weights have length {wv.size}"
        )
    return lv, wv


def _profile(prod: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Non-uniformity, anchor and active set from one pass over the profile.

    ``prod`` is the weighted loss vector ``losses * weights``, from losses
    and weights already validated and paired: non-negative finite losses
    and strictly positive finite weights of one length.

    Raises:
        DegenerateLossError: If every weighted loss is zero.
    """
    total = float(prod.sum())
    if total <= 0.0:
        raise DegenerateLossError("all weighted losses are zero")
    h = prod / total
    m = h.size
    pos = h > 0.0
    log_ratio = np.log(h[pos] * m)
    mu = float((h[pos] * log_ratio).sum())
    if mu <= EPSILON:
        top = float(prod.max())
        active = (prod >= top - 1e-12 * max(top, 1.0)).nonzero()[0]
        return mu, prod, active
    anchor = np.zeros(m)
    anchor[pos] = weights[pos] * (log_ratio - mu)
    return mu, anchor, np.arange(m)


def nonuniformity(losses, weights) -> float:
    """KL divergence of the normalized weighted losses from the uniform profile.

    Zero exactly when every weighted loss is equal; grows as the profile
    concentrates.  Zero entries contribute nothing (0 log 0 = 0).
    """
    lv, wv = _paired(losses, weights)
    return _profile(lv * wv, wv)[0]


def active_index_set(losses, weights) -> list[int]:
    """Objectives whose descent must not be sacrificed by the next step.

    Returns the maximizers of the weighted loss (ties included) when the
    profile is already uniform within ``EPSILON``; otherwise every index, so a
    balancing step cannot regress any objective.
    """
    lv, wv = _paired(losses, weights)
    return [int(j) for j in _profile(lv * wv, wv)[2]]


def anchor_direction(losses, weights) -> np.ndarray:
    """Target vector the QP tries to match with G^T G beta.

    In the balanced regime (non-uniformity <= ``EPSILON``) the anchor is the
    weighted loss vector itself, yielding a weighted descent step.  Otherwise
    each component is ``lam_j * (log(m * h_j) - mu)`` with h the normalized
    weighted losses and mu the non-uniformity, which pushes oversized
    components of the profile down and undersized ones up; components with
    h_j = 0 are left at zero.
    """
    lv, wv = _paired(losses, weights)
    return _profile(lv * wv, wv)[1]


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based).

    A 2-D input is projected row by row.  Shifting a row by a constant does
    not move its projection, so a row whose result misses the unit sum by
    more than 1e-9 (its cumulative sums dwarf 1, as from 1e18 up) is
    projected once more from the row minus its maximum.  A NaN row stays NaN.
    """
    out = _project_sorted(v)
    off = np.abs(out.sum(axis=-1) - 1.0) > 1e-9
    if off.any():
        shifted = v - v.max(axis=-1, keepdims=True)
        out[off] = _project_sorted(shifted[off])
    return out


def _project_sorted(v: np.ndarray) -> np.ndarray:
    """The sort-based projection of :func:`project_simplex`, in one pass."""
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ks = np.arange(1, v.shape[-1] + 1)
    # rho is the last k with u_k > css_k / k; k = 1 always qualifies.
    rho = v.shape[-1] - np.argmax((u - css / ks > 0)[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


@dataclass
class QPSolution:
    """Result of :func:`solve_qp`.

    Attributes:
        beta: Simplex coefficients combining the gradient columns.
        infeasible: True when the J constraints could not be satisfied to
            tolerance and the unconstrained-over-simplex minimizer was
            returned instead (soft flag; callers may still step).
        degenerate: True when every gradient was zero and beta is uniform
            by convention (the caller should treat the step as converged).
    """

    beta: np.ndarray
    infeasible: bool = False
    degenerate: bool = False


def _solve_m2(M: np.ndarray, a: np.ndarray, act: np.ndarray) -> tuple[np.ndarray, bool]:
    """Exact solve for m = 2 via interval arithmetic on beta = (b, 1 - b)."""
    m00, m01 = float(M[0, 0]), float(M[0, 1])
    m10, m11 = float(M[1, 0]), float(M[1, 1])
    a0, a1 = float(a[0]), float(a[1])
    # (M beta)_j = d_j * b + M[j, 1] with d_j the column difference.
    d0 = m00 - m01
    d1 = m10 - m11

    def interval(relief: float) -> tuple[float, float]:
        lo, hi = 0.0, 1.0
        for j in act:
            dj = d0 if j == 0 else d1
            cj = m01 if j == 0 else m11
            bound = cj + relief
            if dj > 0.0:
                lo = max(lo, -bound / dj)
            elif dj < 0.0:
                hi = min(hi, -bound / dj)
            elif bound < 0.0:
                return 1.0, 0.0  # constant constraint violated
        return lo, hi

    def argmin_on(lo: float, hi: float) -> float:
        # q(b) = ||(d0, d1) b + (m01 - a0, m11 - a1)||^2
        alpha = d0 * d0 + d1 * d1
        half_beta = d0 * (m01 - a0) + d1 * (m11 - a1)
        if alpha > 0.0:
            b = -half_beta / alpha
            return min(max(b, lo), hi)
        if half_beta > 0.0:
            return lo
        if half_beta < 0.0:
            return hi
        return lo

    lo, hi = interval(0.0)
    if lo > hi:
        lo, hi = interval(_RELIEF)
    if lo > hi:
        b = argmin_on(0.0, 1.0)
        return np.array([b, 1.0 - b]), True
    b = argmin_on(lo, hi)
    return np.array([b, 1.0 - b]), False


def _solve_m2_rows(
    M: np.ndarray, A: np.ndarray, act: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_solve_m2` of each row, bit for bit: the (r, 2, 2) Gram
    matrices ``M``, the (r, 2) anchors ``A`` and the (r, 2) active masks
    ``act``; returns the (r, 2) betas and the infeasible mask.

    Each IEEE operation is the scalar one, in the same order.  Python's
    ``max(x, q)`` keeps x unless q > x and ``min(x, q)`` keeps x unless
    q < x, so the ``np.where`` forms keep the same value, signed zeros and
    NaN comparisons included.
    """
    d = M[:, :, 0] - M[:, :, 1]  # (M beta)_j = d_j * b + M[j, 1]
    c = M[:, :, 1]
    up, down = act & (d > 0.0), act & (d < 0.0)
    fixed = act & ~(up | down)  # d_j is 0 (or NaN): the constraint is constant in b

    def interval(relief: float) -> tuple[np.ndarray, np.ndarray]:
        bound = c + relief
        q = -bound / d
        # each bound in the scalar loop's order; -inf and inf stand in for
        # the constraints that do not bound that side
        low, high = np.where(up, q, -np.inf), np.where(down, q, np.inf)
        lo = np.where(low[:, 0] > 0.0, low[:, 0], 0.0)
        lo = np.where(low[:, 1] > lo, low[:, 1], lo)
        hi = np.where(high[:, 0] < 1.0, high[:, 0], 1.0)
        hi = np.where(high[:, 1] < hi, high[:, 1], hi)
        if fixed.any():
            refused = (fixed & (bound < 0.0)).any(axis=1)
            lo, hi = np.where(refused, 1.0, lo), np.where(refused, 0.0, hi)
        return lo, hi

    with np.errstate(all="ignore"):
        lo, hi = interval(0.0)
        retry = lo > hi
        if retry.any():
            relieved = interval(_RELIEF)
            lo, hi = np.where(retry, relieved[0], lo), np.where(retry, relieved[1], hi)
        infeasible = lo > hi
        if infeasible.any():
            lo, hi = np.where(infeasible, 0.0, lo), np.where(infeasible, 1.0, hi)
        # q(b) = ||d b + (c - a)||^2 = alpha b^2 + 2 half_beta b + const
        squares, products = d * d, d * (c - A)
        alpha = squares[:, 0] + squares[:, 1]
        half_beta = products[:, 0] + products[:, 1]
        b = -half_beta / alpha
    b = np.where(lo > b, lo, b)
    b = np.where(b > hi, hi, b)
    flat = ~(alpha > 0.0)
    if flat.any():
        b = np.where(flat, np.where(half_beta < 0.0, hi, lo), b)
    beta = np.empty((len(b), 2))
    beta[:, 0], beta[:, 1] = b, 1.0 - b
    return beta, infeasible


@functools.lru_cache(maxsize=None)
def _patterns(
    m: int, nrows: int
) -> tuple[list[np.ndarray], tuple[np.ndarray, ...], np.ndarray]:
    """Subsets of size 0..m-1 of the constraint rows, one (count, size) array
    per size in ``itertools.combinations`` order, the same subsets one by one
    in that order, and the mask over all of them of the subsets that use
    bound rows only."""
    by_size = [
        np.array(list(itertools.combinations(range(nrows), size)), dtype=np.intp)
        for size in range(m)
    ]
    flat = tuple(row for combos in by_size for row in combos)
    return by_size, flat, np.concatenate([np.all(c < m, axis=1) for c in by_size])


def _kkt_points(
    Q2: np.ndarray, c2: np.ndarray, E: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solutions beta and nu of ``[Q2 F^T; F 0] [beta; nu] = [c2; 1; 0]``
    for c instances, with F the simplex sum row over the rows of ``E``
    (c, size, m).  ``Q2`` is (m, m) or (c, m, m) and ``c2`` (m,) or (c, m):
    one problem over c patterns, or one pattern per problem.  Singular and
    inaccurate instances get a NaN beta; nu[:, 0] belongs to the sum row,
    the rest to E's rows."""
    count, size, m = E.shape
    F = np.concatenate([np.ones((count, 1, m)), E], axis=1)
    kkt = np.zeros((count, m + 1 + size, m + 1 + size))
    kkt[:, :m, :m] = Q2
    kkt[:, :m, m:] = F.transpose(0, 2, 1)
    kkt[:, m:, :m] = F
    rhs = np.zeros((count, m + 1 + size, 1))
    rhs[:, :m, 0] = c2
    rhs[:, m] = 1.0
    regular = np.linalg.slogdet(kkt)[0] != 0.0
    if regular.all():
        x = np.linalg.solve(kkt, rhs)[:, :, 0]
    else:
        x = np.full((count, m + 1 + size), np.nan)
        x[regular] = np.linalg.solve(kkt[regular], rhs[regular])[:, :, 0]
    beta, nu = x[:, :m].copy(), x[:, m:]
    residual = np.abs(F @ beta[:, :, None] - rhs[:, m:]).max(axis=(1, 2))
    beta[~(residual <= 1e-8)] = np.nan
    return beta, nu


def _on_simplex(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``beta`` clipped at zero and renormalised, and the mask
    of the rows that are simplex points to tolerance."""
    ok = beta.min(axis=1) >= -1e-10
    beta = np.maximum(beta, 0.0)
    total = beta.sum(axis=1)
    ok &= (0.999999 < total) & (total < 1.000001)
    return beta / total[:, None], ok


def _qp_data(
    M: np.ndarray, a: np.ndarray, act: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KKT blocks 2 M^T M and 2 M^T a, and the inequality rows: bounds e_i,
    then slacks M[j] for j in ``act``."""
    m = M.shape[0]
    return 2.0 * (M.T @ M), 2.0 * (M.T @ a), np.vstack([np.eye(m), M[act]])


def _solve_enumerated(
    M: np.ndarray, a: np.ndarray, act: np.ndarray
) -> tuple[QPSolution, np.ndarray | None]:
    """Best simplex point over the small active-set patterns, for m >= 3.

    A pattern takes as equalities the simplex sum and at most m - 1 of the m
    bound and |J| slack constraints.  The first feasible point that no later
    one beats by more than 1e-15 wins; when none meets the slacks, the same
    rule picks among the bound-only patterns, flagged infeasible.  Rounding
    fails even the vertices only when 2 M^T M dwarfs the unit rows (|G| from
    about 1e12); beta is then uniform.

    Returns the solution and the winning pattern (indices into the bound
    rows 0..m-1, then the slack rows of ``act`` in order), which
    :func:`_solve_certified` can try alone on the next, nearby instance.
    The pattern is None when the solution is flagged infeasible.
    """
    m = M.shape[0]
    Q2, c2, rows = _qp_data(M, a, act)
    by_size, flat, bounds_only = _patterns(m, rows.shape[0])
    # Singular and failed patterns stay NaN, which fails every test below.
    with np.errstate(all="ignore"):
        beta = np.concatenate([_kkt_points(Q2, c2, rows[c])[0] for c in by_size])
        beta, ok = _on_simplex(beta)
    beta = beta[ok]
    fit = beta @ M.T
    obj = np.einsum("ij,ij->i", fit - a, fit - a)
    feasible = (fit[:, act] >= -_RELIEF).all(axis=1)
    infeasible = not feasible.any()
    best = None
    for i in np.flatnonzero(bounds_only[ok] if infeasible else feasible):
        if best is None or obj[i] < obj[best] - 1e-15:
            best = i
    if best is None:
        return QPSolution(beta=np.full(m, 1.0 / m), infeasible=True), None
    pattern = None if infeasible else flat[np.flatnonzero(ok)[best]]
    return QPSolution(beta=beta[best], infeasible=infeasible), pattern


def _certify(
    M: np.ndarray, A: np.ndarray, act: np.ndarray, patterns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The KKT point of one pattern of :func:`_solve_enumerated` per row,
    and the mask of the rows where it is certified optimal.

    Row i is the QP of the Gram matrix ``M[i]`` (c, m, m), the anchor
    ``A[i]`` (c, m) and the active mask ``act[i]`` (c, m), and its pattern
    ``patterns[i]`` indexes its bound rows 0..m-1, then its J slack rows
    in order; every pattern has one size.

    The warm start of the m >= 3 QP: the pattern that won the last round of
    a descent usually wins the next one too, and since the problem is convex
    one KKT solve proves it.  The point is accepted when the KKT matrix is
    regular with residual <= 1e-8, beta passes the enumeration's simplex
    tolerances, every J slack is >= -_RELIEF, and every multiplier of the
    pattern's inequality rows has the KKT sign (nu <= 0).  The arithmetic is
    the enumeration's for that pattern, row by row, so beta is the
    enumeration's bit for bit whenever the enumeration picks this pattern,
    as it does when the optimum is unique and no row outside the pattern is
    also tight.
    """
    count, m = A.shape
    MT = M.transpose(0, 2, 1)
    own = np.arange(count)[:, None]
    rows = np.empty((count, 2 * m, m))  # bound rows, then J's slack rows in order
    rows[:, :m] = np.eye(m)
    rows[:, m:] = M[own, np.argsort(~act, axis=1, kind="stable")]
    with np.errstate(all="ignore"):
        beta, nu = _kkt_points(
            2.0 * np.matmul(MT, M),
            2.0 * np.matmul(MT, A[:, :, None])[:, :, 0],
            rows[own, patterns],
        )
        beta, ok = _on_simplex(beta)
        fit = np.matmul(beta[:, None, :], MT)[:, 0]
    ok &= ~(nu[:, 1:] > 0.0).any(axis=1) & ~((fit < -_RELIEF) & act).any(axis=1)
    return beta, ok


def _solve_certified(
    M: np.ndarray, a: np.ndarray, act: np.ndarray, pattern: np.ndarray
) -> QPSolution | None:
    """The KKT point of ``pattern`` for one QP with active indices ``act``,
    or None unless :func:`_certify` certifies it."""
    mask = np.zeros(a.size, dtype=bool)
    mask[act] = True
    beta, ok = _certify(M[None], a[None], mask[None], pattern[None])
    return QPSolution(beta=beta[0]) if ok[0] else None


def solve_qp(gradients, anchor, active) -> QPSolution:
    """Solve the simplex-constrained least-squares problem for beta.

    Args:
        gradients: (n, m) matrix whose columns are per-objective gradients.
        anchor: Length-m anchor vector (see :func:`anchor_direction`).
        active: Indices J whose constraints ``(G^T G beta)_j >= 0`` apply.

    Returns:
        QPSolution with the coefficients and status flags.  When the J
        constraints cannot be met within tolerance the unconstrained-over-
        simplex minimizer is returned with ``infeasible=True``.
    """
    G = np.asarray(gradients, dtype=np.float64)
    if G.ndim != 2:
        raise ValueError(f"gradients must be 2-D (n, m), got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise ValueError("gradients contain non-finite entries")
    m = G.shape[1]
    a = np.asarray(anchor, dtype=np.float64)
    if a.shape != (m,):
        raise DimensionMismatchError(f"anchor has shape {a.shape}, expected ({m},)")
    act = np.array(sorted(set(int(j) for j in active)), dtype=int)
    if act.size and (act[0] < 0 or act[-1] >= m):
        raise ValueError("active index out of range")
    return _solve(G.T @ G, a, act)[0]


#: The fewest live m = 2 rows :func:`_solve_rows` solves as one stack: a
#: stack costs about 30 us at any size and :func:`_solve_m2` 3 us a row.
_M2_STACK = 10

#: A winning m >= 3 pattern and the active indices it was found under.
Hint = tuple[np.ndarray, np.ndarray]


def _solve(
    M: np.ndarray, a: np.ndarray, act: np.ndarray, hint: Hint | None = None
) -> tuple[QPSolution, Hint | None]:
    """:func:`solve_qp` on validated inputs: the (m, m) Gram matrix
    M = G^T G of finite gradients, a length-m anchor and sorted, distinct,
    in-range active indices.

    For m >= 3 the pattern of ``hint`` is tried alone first when it was
    found under the same active indices (see :func:`_solve_certified`);
    the full enumeration runs only when it fails.  Returns the solution and
    the hint for the next call: None for m <= 2, degenerate gradients and
    infeasible solutions.
    """
    m = M.shape[0]
    if m == 1:
        return QPSolution(beta=np.ones(1)), None
    if not M.any():
        return QPSolution(beta=np.full(m, 1.0 / m), degenerate=True), None
    if m == 2:
        beta, infeasible = _solve_m2(M, a, act)
        return QPSolution(beta=beta, infeasible=infeasible), None
    if hint is not None and np.array_equal(hint[0], act):
        solution = _solve_certified(M, a, act, hint[1])
        if solution is not None:
            return solution, hint
    solution, pattern = _solve_enumerated(M, a, act)
    return solution, None if pattern is None else (act, pattern)


def _solve_rows(
    M: np.ndarray, A: np.ndarray, act: np.ndarray, hints: list
) -> tuple[np.ndarray, np.ndarray, list]:
    """:func:`_solve` of each row, bit for bit: the (r, m, m) Gram
    matrices ``M``, the (r, m) anchors ``A``, the (r, m) active masks
    ``act`` and each row's hint.

    Returns the (r, m) betas, the mask of the degenerate rows (their beta
    is zero) and each row's next hint.  For m = 2 one interval solve
    covers ``_M2_STACK`` or more live rows (:func:`_solve_m2_rows`), and
    fewer solve row by row.  For m >= 3 the rows whose hint was found
    under their active indices are certified together, one
    :func:`_certify` call per pattern size, and only the rows with no such
    hint or a failed certificate enumerate, one by one.
    """
    r, m = A.shape
    if m == 1:
        return np.ones((r, 1)), np.zeros(r, dtype=bool), [None] * r
    degenerate = ~M.any(axis=(1, 2))
    beta = np.zeros((r, m))
    found: list = [None] * r
    if m == 2:
        live = np.flatnonzero(~degenerate)
        if live.size >= _M2_STACK:
            beta[live] = _solve_m2_rows(M[live], A[live], act[live])[0]
        else:
            for i, on in zip(live.tolist(), act[live].tolist()):
                beta[i] = _solve_m2(M[i], A[i], [j for j in (0, 1) if on[j]])[0]
        return beta, degenerate, found
    acts = [np.flatnonzero(row) for row in act]
    sizes: dict = {}
    enumerate_rows = []
    for i in np.flatnonzero(~degenerate).tolist():
        hint = hints[i]
        if hint is not None and np.array_equal(hint[0], acts[i]):
            sizes.setdefault(hint[1].size, []).append(i)
        else:
            enumerate_rows.append(i)
    for ids in sizes.values():
        patterns = np.array([hints[i][1] for i in ids])
        certified, ok = _certify(M[ids], A[ids], act[ids], patterns)
        for i, good, row in zip(ids, ok.tolist(), certified):
            if good:
                beta[i], found[i] = row, hints[i]
            else:
                enumerate_rows.append(i)
    for i in enumerate_rows:
        solution, pattern = _solve_enumerated(M[i], A[i], acts[i])
        beta[i] = solution.beta
        found[i] = None if pattern is None else (acts[i], pattern)
    return beta, degenerate, found
