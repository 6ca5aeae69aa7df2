"""Shared vocabulary for multi-objective minimization over discrete candidate spaces.

Objective vectors are plain 1-D float arrays of per-objective losses (lower is
better); weight vectors are strictly positive preference directions of the same
length.  This module provides the dominance relation, non-dominated filtering,
the record of one evaluated candidate (``TrajectoryPoint``) and a Pareto
archive of such records, built in one filter pass (``build_archive``).
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dominance",
    "DimensionMismatchError",
    "EmptyInputError",
    "ParetoArchive",
    "TrajectoryPoint",
    "as_objectives",
    "as_weights",
    "build_archive",
    "dominates",
    "pareto_filter",
]


class DimensionMismatchError(ValueError):
    """Raised when two vectors that must share a length do not."""


class EmptyInputError(ValueError):
    """Raised when an operation requires at least one point."""


class Dominance(enum.Enum):
    """Outcome of comparing two objective vectors under minimization."""

    STRICT = "strictly-dominates"
    WEAK = "weakly-dominates"
    INCOMPARABLE = "incomparable"


def _well_formed(arr: np.ndarray, *, positive: bool) -> bool:
    """Whether ``arr`` is a non-empty 1-D array of finite entries, each at
    least 0, or above 0 with ``positive``, from one list and two built-in
    passes.

    A finite sum proves every entry finite; a sum that overflows from
    finite entries reads False, so the caller's full checks decide.
    """
    if arr.ndim != 1 or arr.size == 0:
        return False
    values = arr.tolist()
    low = min(values)
    return math.isfinite(sum(values)) and (low > 0.0 if positive else low >= 0.0)


def as_objectives(values) -> np.ndarray:
    """Validate and convert per-objective losses to a 1-D float64 array.

    Args:
        values: Sequence of m >= 1 finite, non-negative loss values.

    Returns:
        A float64 copy of ``values``.

    Raises:
        EmptyInputError: If ``values`` has no entries.
        ValueError: If any entry is negative or non-finite.
    """
    arr = np.array(values, dtype=np.float64)
    if _well_formed(arr, positive=False):
        return arr
    if arr.ndim != 1:
        raise ValueError(f"objective vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError("objective vector must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("objective vector contains non-finite entries")
    if (arr < 0.0).any():
        raise ValueError("objective vector contains negative entries")
    return arr


def as_weights(values) -> np.ndarray:
    """Validate a preference weight vector (strictly positive, finite).

    Args:
        values: Sequence of m >= 1 weights.

    Returns:
        A float64 copy of ``values``.
    """
    arr = np.array(values, dtype=np.float64)
    if _well_formed(arr, positive=True):
        return arr
    if arr.ndim != 1:
        raise ValueError(f"weight vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError("weight vector must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("weight vector contains non-finite entries")
    if (arr <= 0.0).any():
        raise ValueError("weight vector entries must be strictly positive")
    return arr


def dominates(a, b) -> Dominance:
    """Compare two objective vectors under minimization.

    ``a`` weakly dominates ``b`` iff every component of ``a`` is <= the
    matching component of ``b``; the dominance is strict when at least one
    component is strictly smaller.  The strongest applicable label is
    returned, so equal vectors compare as ``Dominance.WEAK``.

    Raises:
        DimensionMismatchError: If the vectors differ in length.
    """
    av = as_objectives(a)
    bv = as_objectives(b)
    if av.shape != bv.shape:
        raise DimensionMismatchError(
            f"cannot compare objective vectors of length {av.size} and {bv.size}"
        )
    if np.all(av <= bv):
        if np.any(av < bv):
            return Dominance.STRICT
        return Dominance.WEAK
    return Dominance.INCOMPARABLE


def _pareto_mask(points: np.ndarray, *, first_copy: bool = False) -> np.ndarray:
    """Rows of a validated (k, m) array that no other row strictly dominates
    and, with ``first_copy``, that no earlier row equals."""
    weak = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    earlier = np.triu(np.ones_like(weak), 1) if first_copy else False  # row i before row j
    return ~np.any(weak & (~weak.T | earlier), axis=0)


def pareto_filter(points) -> list[int]:
    """Indices of points not strictly dominated by any other point.

    Exact duplicates of a retained point are all retained (equal vectors never
    strictly dominate each other).

    Args:
        points: Iterable of equal-length objective vectors.

    Returns:
        Sorted list of indices into ``points``.

    Raises:
        EmptyInputError: If ``points`` is empty.
    """
    vecs = [as_objectives(p) for p in points]
    if not vecs:
        raise EmptyInputError("pareto_filter requires at least one point")
    if any(v.size != vecs[0].size for v in vecs):
        raise DimensionMismatchError("points must share a common length")
    return np.flatnonzero(_pareto_mask(np.stack(vecs))).tolist()


@dataclass
class TrajectoryPoint:
    """One evaluated candidate of a run; round 0 is the evaluated start point.

    ``mu`` and ``r_check`` are the non-uniformity and weighted relative max
    of ``objectives`` along ``weights``, the run's own ray array, shared by
    every point of the run; ``oracle_calls`` counts the run's calls so far.
    """

    round_index: int
    candidate_id: str
    objectives: np.ndarray
    mu: float
    r_check: float
    oracle_calls: int
    weights: np.ndarray


@dataclass(eq=False)
class ParetoArchive:
    """Mutually non-dominated set of evaluated candidates, as
    :func:`build_archive` keeps them: the offered ``TrajectoryPoint``
    objects themselves, in the order offered."""

    entries: list[TrajectoryPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def m(self) -> int | None:
        """Number of objectives, or None while the archive is empty."""
        return self.entries[0].objectives.size if self.entries else None

    def objectives_array(self) -> np.ndarray:
        """All entry objectives stacked as a (len, m) array."""
        if not self.entries:
            raise EmptyInputError("archive is empty")
        return np.stack([e.objectives for e in self.entries])

    def to_csv(self) -> str:
        """Serialize as CSV: candidate_id, l_1..l_m, lambda_1..lambda_m, oracle_calls."""
        if not self.entries:
            raise EmptyInputError("archive is empty")
        m = self.m
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = (
            ["candidate_id"]
            + [f"l_{i + 1}" for i in range(m)]
            + [f"lambda_{i + 1}" for i in range(m)]
            + ["oracle_calls"]
        )
        writer.writerow(header)
        for e in self.entries:
            writer.writerow(
                [e.candidate_id]
                + [repr(float(x)) for x in e.objectives]
                + [repr(float(x)) for x in e.weights]
                + [str(e.oracle_calls)]
            )
        return buf.getvalue()


def build_archive(groups) -> ParetoArchive:
    """The archive of the points of ``groups`` (a scan's ray trajectories).

    It keeps, in the order offered, the points that no point strictly
    dominates and that no earlier point equals, as inserting them one at a
    time would.  Each group is filtered alone, then the survivors together:
    a point a group drops is strictly dominated by a survivor or equals an
    earlier point, so this is exact.  Validation runs once, on the stacks.

    Raises:
        DimensionMismatchError: If the objective and weight vectors are not
            all 1-D of one length.
        ValueError: If an objective is negative or non-finite, or a weight
            not positive and finite.
    """
    groups = [list(group) for group in groups]
    points = [p for group in groups for p in group]
    if not points:
        return ParetoArchive()
    shape = points[0].objectives.shape
    shapes = {s for p in points for s in (p.objectives.shape, p.weights.shape)}
    if len(shape) != 1 or shapes != {shape}:
        raise DimensionMismatchError("objectives and weights must be 1-D and of one length")
    objectives = as_objectives(np.concatenate([p.objectives for p in points]))
    objectives = objectives.reshape(len(points), -1)
    as_weights(np.concatenate([p.weights for p in points]))
    rays = np.split(np.arange(len(points)), np.cumsum([len(g) for g in groups])[:-1])
    kept = np.concatenate([ids[_pareto_mask(objectives[ids], first_copy=True)] for ids in rays])
    kept = kept[_pareto_mask(objectives[kept], first_copy=True)]
    return ParetoArchive([points[i] for i in kept.tolist()])
