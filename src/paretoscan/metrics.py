"""Front-quality metrics: hypervolume, non-uniformity summaries, coverage.

Hypervolume is computed exactly: a running-minimum sweep in two dimensions,
reached by slicing on the last objective in three and four.  Higher
dimensions are out of scope for the exact routine and raise
``UnsupportedDimensionError``.
"""

from __future__ import annotations

import numpy as np

from .core import EmptyInputError, as_objectives, pareto_filter
from .qp import DegenerateLossError, nonuniformity

__all__ = [
    "UnsupportedDimensionError",
    "hypervolume",
    "nonuniformity_report",
    "ray_nonuniformity",
    "front_coverage",
]


class UnsupportedDimensionError(ValueError):
    """Exact hypervolume requested outside the supported 2-4 range."""


def _reject_nan(points: np.ndarray, name: str) -> None:
    if np.isnan(points).any():
        raise ValueError(f"{name} contain NaN entries")


def _point_rows(values, name: str) -> np.ndarray:
    """``values`` as a float64 (k, m) array; a single 1-D point is one row."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim > 2:
        raise ValueError(f"{name} must be a (k, m) array, got shape {arr.shape}")
    return np.atleast_2d(arr)


def _hv_slice(points: np.ndarray, reference: np.ndarray) -> float:
    """Recursive slicing on the last objective, down to a 2-D sweep.

    In (x, y) order, a point below the running minimum of y adds its
    rectangle up to that minimum; a dominated point or a duplicate never
    is, so the sweep needs no filter.  Above two dimensions, each slab
    between consecutive last coordinates contributes (slab height) x
    (hypervolume of the points at or below the slab floor, one dimension down).
    """
    m = reference.size
    if m == 2:
        ref_x, floor = reference.tolist()
        total = 0.0
        for x, y in points[np.lexsort((points[:, 1], points[:, 0]))].tolist():
            if y < floor:
                total += (ref_x - x) * (floor - y)
                floor = y
        return total
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

    Raises:
      ValueError: If ``points`` has more than two dimensions, or a point has
        a NaN entry; points that are not strictly inside the reference box
        are otherwise ignored.
    """
    pts = _point_rows(points, "points")
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
    _reject_nan(pts, "points")
    inside = pts[np.all(pts < reference, axis=1)]
    if inside.shape[0] == 0:
        return 0.0
    # dominated points would add slab levels, and so rounding, at m = 3 and 4;
    # the filter also refuses negative entries inside the box
    return _hv_slice(inside[pareto_filter(inside)], reference)


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

    Raises:
      EmptyInputError: If ``true_front`` is empty.
      ValueError: If either input has more than two dimensions, the
        dimensions differ, or either input has a NaN entry.
    """
    ref = _point_rows(true_front, "true_front")
    pts = _point_rows(archive_points, "archive_points")
    if ref.size == 0:
        raise EmptyInputError("reference front is empty")
    _reject_nan(ref, "reference front points")
    if pts.size == 0:
        return 0.0
    if pts.shape[1] != ref.shape[1]:
        raise ValueError("archive/front dimension mismatch")
    _reject_nan(pts, "archive points")
    d2 = ((ref[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float((d2.min(axis=1) <= 0.05 * 0.05).mean())
