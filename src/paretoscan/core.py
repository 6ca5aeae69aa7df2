"""Shared vocabulary for multi-objective minimization over discrete candidate spaces.

Objective vectors are plain 1-D float arrays of per-objective losses (lower is
better); weight vectors are strictly positive preference directions of the same
length.  This module provides the dominance relation, non-dominated filtering,
the record of one evaluated candidate (``TrajectoryPoint``) and a Pareto
archive of such records with eviction-on-insert semantics.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dominance",
    "DimensionMismatchError",
    "EmptyInputError",
    "ParetoArchive",
    "TrajectoryPoint",
    "as_objectives",
    "as_weights",
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
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"objective vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError("objective vector must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("objective vector contains non-finite entries")
    if (arr < 0.0).any():
        raise ValueError("objective vector contains negative entries")
    return arr.copy()


def as_weights(values) -> np.ndarray:
    """Validate a preference weight vector (strictly positive, finite).

    Args:
        values: Sequence of m >= 1 weights.

    Returns:
        A float64 copy of ``values``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"weight vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError("weight vector must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError("weight vector contains non-finite entries")
    if (arr <= 0.0).any():
        raise ValueError("weight vector entries must be strictly positive")
    return arr.copy()


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


def _pareto_mask(points: np.ndarray) -> np.ndarray:
    """Rows of a validated (k, m) array that no other row strictly dominates."""
    weak = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    return ~np.any(weak & ~weak.T, axis=0)


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


class ParetoArchive:
    """Mutually non-dominated set of evaluated candidates.

    The entries are the inserted ``TrajectoryPoint`` objects themselves.
    Inserting a point evicts every incumbent it strictly dominates.  A point
    is rejected when an incumbent weakly dominates it, which both discards
    strictly worse points and keeps the earliest-inserted copy of exact
    duplicates.
    """

    def __init__(self) -> None:
        self.entries: list[TrajectoryPoint] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def m(self) -> int | None:
        """Number of objectives, or None while the archive is empty."""
        return self.entries[0].objectives.size if self.entries else None

    def insert(self, entry: TrajectoryPoint) -> bool:
        """Insert ``entry`` unless an incumbent weakly dominates it.

        Returns:
            True when the entry was inserted, False when rejected.

        Raises:
            ValueError: If the entry's objectives are not a valid objective
                vector or its weights not a valid weight vector.
            DimensionMismatchError: If the entry's objective length differs
                from the archive's or from its weights' length.
        """
        as_objectives(entry.objectives)
        as_weights(entry.weights)
        if entry.weights.size != entry.objectives.size:
            raise DimensionMismatchError(
                f"entry has {entry.objectives.size} objectives but {entry.weights.size} weights"
            )
        if self.entries and entry.objectives.size != self.m:
            raise DimensionMismatchError(
                f"archive holds {self.m}-objective entries, got {entry.objectives.size}"
            )
        if self.entries:
            incumbents = np.stack([inc.objectives for inc in self.entries])
            if np.any(np.all(incumbents <= entry.objectives, axis=1)):
                return False
            # No incumbent equals the entry here, so <= everywhere is strict.
            evicted = np.all(entry.objectives <= incumbents, axis=1)
            self.entries = [
                inc for inc, out in zip(self.entries, evicted) if not out
            ]
        self.entries.append(entry)
        return True

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
