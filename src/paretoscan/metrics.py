"""Front-quality metrics: hypervolume, non-uniformity summaries, coverage.

Hypervolume is computed exactly: a linear sweep in two dimensions and
recursive objective slicing in three and four.  Higher dimensions are out
of scope for the exact routine and raise ``UnsupportedDimensionError``; the
Monte Carlo estimator works for any dimension and doubles as an independent
cross-check on the exact values.
"""

from __future__ import annotations

import numpy as np

from .core import EmptyInputError, _pareto_mask, as_objectives, pareto_filter
from .qp import DegenerateLossError, nonuniformity

__all__ = [
    "UnsupportedDimensionError",
    "hypervolume",
    "hypervolume_monte_carlo",
    "nonuniformity_report",
    "ray_nonuniformity",
    "front_coverage",
]


class UnsupportedDimensionError(ValueError):
    """Exact hypervolume requested outside the supported 2-4 range."""


def _clean_front(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Non-dominated points that strictly improve on the reference somewhere."""
    inside = points[np.all(points < reference, axis=1)]
    if inside.shape[0] == 0:
        return inside
    keep = pareto_filter(inside)
    return inside[keep]

def _hv2(points: np.ndarray, reference: np.ndarray) -> float:
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    total = 0.0
    prev_y = reference[1]
    for x, y in pts:
        total += (reference[0] - x) * (prev_y - y)
        prev_y = y
    return total


def _hv_slice(points: np.ndarray, reference: np.ndarray) -> float:
    """Recursive slicing on the last objective.

    Sort by the last coordinate; each slab between consecutive values
    contributes (slab height) x (lower-dimensional hypervolume of the
    points at or below the slab floor).
    """
    m = reference.size
    if m == 2:
        return _hv2(points[_pareto_mask(points)], reference)
    order = np.argsort(points[:, -1], kind="stable")
    pts = points[order]
    total = 0.0
    levels = pts[:, -1]
    for i in range(pts.shape[0]):
        if i + 1 < pts.shape[0] and levels[i + 1] == levels[i]:
            continue  # merge ties into a single slab
        upper = reference[-1] if i + 1 == pts.shape[0] else levels[i + 1]
        if upper > levels[i]:
            total += (upper - levels[i]) * _hv_slice(pts[: i + 1, :-1], reference[:-1])
    return total


def hypervolume(points, reference) -> float:
    """Exact dominated hypervolume of a minimization front.

    Args:
      points: (k, m) array of objective vectors, m in {2, 3, 4}.
      reference: upper-corner reference point; contributions are clipped to
        points strictly inside it.

    Returns:
      Lebesgue measure of the region dominated by the front within the
      reference box.  Empty or fully-outside fronts yield 0.0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        return 0.0
    reference = as_objectives(reference)
    m = reference.size
    if m < 2 or m > 4:
        raise UnsupportedDimensionError(
            f"exact hypervolume supports 2 to 4 objectives, got {m}"
        )
    if pts.shape[1] != m:
        raise ValueError(f"points have {pts.shape[1]} objectives, reference has {m}")
    front = _clean_front(pts, reference)
    if front.shape[0] == 0:
        return 0.0
    return _hv_slice(front, reference)


def hypervolume_monte_carlo(
    points, reference, samples: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo hypervolume estimate with its standard error.

    Samples uniformly inside the box [min(points), reference] and rescales
    the dominated fraction by the box volume.  Works for any number of
    objectives, at statistical accuracy only.

    Returns:
      (estimate, standard_error)
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    reference = as_objectives(reference)
    if pts.size == 0:
        return 0.0, 0.0
    if pts.shape[1] != reference.size:
        raise ValueError("points/reference dimension mismatch")
    front = _clean_front(pts, reference)
    if front.shape[0] == 0:
        return 0.0, 0.0
    lo = front.min(axis=0)
    box = float(np.prod(reference - lo))
    if box <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 65536
    remaining = samples
    while remaining > 0:
        k = min(chunk, remaining)
        U = lo + rng.random((k, reference.size)) * (reference - lo)
        # dominated iff some front point is <= the sample in every objective
        dom = (front[None, :, :] <= U[:, None, :]).all(axis=2).any(axis=1)
        hits += int(dom.sum())
        remaining -= k
    p = hits / samples
    est = box * p
    se = box * np.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, float(se)


def nonuniformity_report(fronts_mu: list[float]) -> float:
    """Mean of the 5 smallest non-uniformity values across runs.

    Summarizes how well the best runs hit their target rays; degenerate
    entries (NaN) are dropped before ranking.
    """
    vals = np.asarray([v for v in fronts_mu if np.isfinite(v)], dtype=np.float64)
    if vals.size == 0:
        raise EmptyInputError("no finite non-uniformity values to summarize")
    return float(np.sort(vals)[:5].mean())


def ray_nonuniformity(losses, weights) -> float:
    """Non-uniformity of a loss vector against a weight ray; NaN if degenerate."""
    try:
        return nonuniformity(np.asarray(losses, dtype=np.float64), weights)
    except DegenerateLossError:
        return float("nan")


def front_coverage(archive_points, true_front) -> float:
    """Fraction of reference-front points within Euclidean distance 0.05 of the archive.

    Args:
      archive_points: (k, m) attained objective vectors.
      true_front: (r, m) reference front samples.

    Returns:
      Covered fraction in [0, 1]; an empty archive covers nothing.
    """
    ref = np.atleast_2d(np.asarray(true_front, dtype=np.float64))
    if ref.size == 0:
        raise EmptyInputError("reference front is empty")
    pts = np.atleast_2d(np.asarray(archive_points, dtype=np.float64))
    if pts.size == 0:
        return 0.0
    if pts.shape[1] != ref.shape[1]:
        raise ValueError("archive/front dimension mismatch")
    d2 = ((ref[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float((d2.min(axis=1) <= 0.05 * 0.05).mean())
