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
under the same J, that pattern alone is solved first.  The problem is convex, so its KKT
point is optimal when it is feasible and its inequality multipliers have
the right sign.  That certificate replaces the enumeration in 92 % of the
m = 3 and 94 % of the m = 4 solves of the benchmark's scans; every other
case enumerates.  The certified solve uses the enumeration's arithmetic for
that pattern, so beta is the same bit for bit.  The hint lives in the
caller's loop only: no state is kept here.
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
    Q2: np.ndarray, c2: np.ndarray, rows: np.ndarray, combos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solutions beta and nu of ``[Q2 E^T; E 0] [beta; nu] = [c2; 1; 0]``,
    one per pattern of ``combos`` (count, size), with E the simplex sum row
    over the pattern's rows.  Singular and inaccurate patterns get a NaN
    beta; nu[:, 0] belongs to the sum row, the rest to the pattern's rows."""
    m = Q2.shape[0]
    count, size = combos.shape
    E = np.concatenate([np.ones((count, 1, m)), rows[combos]], axis=1)
    kkt = np.zeros((count, m + 1 + size, m + 1 + size))
    kkt[:, :m, :m] = Q2
    kkt[:, :m, m:] = E.transpose(0, 2, 1)
    kkt[:, m:, :m] = E
    rhs = np.concatenate([c2, [1.0], np.zeros(size)])[:, None]
    x = np.full((count, m + 1 + size), np.nan)
    regular = np.linalg.slogdet(kkt)[0] != 0.0
    x[regular] = np.linalg.solve(kkt[regular], rhs)[:, :, 0]
    beta, nu = x[:, :m].copy(), x[:, m:]
    residual = np.abs(E @ beta[:, :, None] - rhs[m:]).max(axis=(1, 2))
    beta[~(residual <= 1e-8)] = np.nan
    return beta, nu


def _on_simplex(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``beta`` that are simplex points to tolerance, clipped at zero
    and renormalised, and the mask of those rows."""
    ok = beta.min(axis=1) >= -1e-10
    beta = np.maximum(beta, 0.0)
    total = beta.sum(axis=1)
    ok &= (0.999999 < total) & (total < 1.000001)
    return beta[ok] / total[ok, None], ok


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
        beta = np.concatenate([_kkt_points(Q2, c2, rows, c)[0] for c in by_size])
    beta, ok = _on_simplex(beta)
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


def _solve_certified(
    M: np.ndarray, a: np.ndarray, act: np.ndarray, pattern: np.ndarray
) -> QPSolution | None:
    """The KKT point of one pattern of :func:`_solve_enumerated`, or None
    unless it is certified optimal.

    The warm start of the m >= 3 QP: the pattern that won the last round of
    a descent usually wins the next one too, and since the problem is convex
    one KKT solve proves it.  The point is accepted when the KKT matrix is
    regular with residual <= 1e-8, beta passes the enumeration's simplex
    tolerances, every J slack is >= -_RELIEF, and every multiplier of the
    pattern's inequality rows has the KKT sign (nu <= 0).  The arithmetic is
    the enumeration's for that pattern, so beta is the enumeration's bit for
    bit whenever the enumeration picks this pattern, as it does when the
    optimum is unique and no row outside the pattern is also tight.
    """
    Q2, c2, rows = _qp_data(M, a, act)
    with np.errstate(all="ignore"):
        beta, nu = _kkt_points(Q2, c2, rows, pattern[None])
    beta, ok = _on_simplex(beta)
    if not ok[0] or (nu[0, 1:] > 0.0).any():
        return None
    if ((beta @ M.T)[0, act] < -_RELIEF).any():
        return None
    return QPSolution(beta=beta[0])


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
    return _solve(G, a, act)[0]


#: A winning m >= 3 pattern and the active indices it was found under.
Hint = tuple[np.ndarray, np.ndarray]


def _solve(
    G: np.ndarray, a: np.ndarray, act: np.ndarray, hint: Hint | None = None
) -> tuple[QPSolution, Hint | None]:
    """:func:`solve_qp` on validated inputs: finite (n, m) gradients, a
    length-m anchor and sorted, distinct, in-range active indices.

    For m >= 3 the pattern of ``hint`` is tried alone first when it was
    found under the same active indices (see :func:`_solve_certified`);
    the full enumeration runs only when it fails.  Returns the solution and
    the hint for the next call: None for m <= 2, degenerate gradients and
    infeasible solutions.
    """
    m = G.shape[1]
    if m == 1:
        return QPSolution(beta=np.ones(1)), None
    M = G.T @ G
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
