"""Slow independent reference routes for the fast production code.

Each helper here is deliberately naive: a dense simplex grid, a grid search
with pattern-search refinement for the QP, a Monte Carlo hypervolume, the
slicing hypervolume that filters every 2-D slice, a sorted sweep for the
exact front of a large discrete set, the archive that takes its points one
insert at a time, and the candidate pick by one tuple key per candidate.
The tests check the solver, the exact hypervolume, the one-pass archive
build and the candidate selection against them, and score scans against
the exact front; nothing in the package uses them.
"""

import numpy as np

from paretoscan.core import as_objectives, pareto_filter


def simplex_grid(m: int, resolution: int) -> np.ndarray:
    """All lattice points k/resolution on the (m-1)-simplex, m in {2, 3, 4}."""
    r = resolution
    if m == 2:
        i = np.arange(r + 1)
        pts = np.stack([i, r - i], axis=1)
    elif m == 3:
        i, j = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
        keep = i + j <= r
        pts = np.stack([i[keep], j[keep], r - i[keep] - j[keep]], axis=1)
    elif m == 4:
        ax = np.arange(r + 1)
        i, j, k = np.meshgrid(ax, ax, ax, indexing="ij")
        keep = i + j + k <= r
        pts = np.stack(
            [i[keep], j[keep], k[keep], r - i[keep] - j[keep] - k[keep]], axis=1
        )
    else:
        raise ValueError("simplex_grid supports m in {2, 3, 4}")
    return pts / r


def qp_grid_oracle(
    M: np.ndarray, a: np.ndarray, active, resolution: int
) -> tuple[np.ndarray, float]:
    """Slow independent minimizer of ||M b - a||^2 over the constrained simplex.

    Dense grid search followed by pattern-search refinement along pairwise
    exchange directions (which preserve the simplex sum).

    Returns:
      (argmin, objective value)
    """
    M = np.asarray(M, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    active = list(active)
    m = M.shape[0]
    pts = simplex_grid(m, resolution)
    residual = pts @ M.T - a
    obj = np.sum(residual * residual, axis=1)
    if active:
        slack = pts @ M[active].T
        feasible = slack.min(axis=1) >= -1e-8
        if not feasible.any():
            feasible = np.ones(len(pts), dtype=bool)
    else:
        feasible = np.ones(len(pts), dtype=bool)
    start = pts[int(np.argmin(np.where(feasible, obj, np.inf)))]

    def value(b: np.ndarray) -> float:
        r = M @ b - a
        return float(r @ r)

    def ok(b: np.ndarray) -> bool:
        if b.min() < -1e-12:
            return False
        if active and float(np.min((M @ b)[active])) < -1e-8:
            return False
        return True

    current, best = start.copy(), value(start)
    step = 1.0 / resolution
    while step > 1e-9:
        improved = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                trial = current.copy()
                trial[i] += step
                trial[j] -= step
                if trial[j] < 0.0 or not ok(trial):
                    continue
                tv = value(trial)
                if tv < best - 1e-18:
                    current, best = trial, tv
                    improved = True
        if not improved:
            step *= 0.5
    return current, best


def hypervolume_monte_carlo(
    points, reference, samples: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo hypervolume estimate with its standard error.

    Samples uniformly inside the box [min(points), reference] and rescales
    the dominated fraction by the box volume.  Only points strictly inside
    the reference box take part; no Pareto filter is applied, since a
    dominated point changes neither the hit test nor the box corner.

    Returns:
      (estimate, standard_error)
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    reference = as_objectives(reference)
    if pts.size == 0:
        return 0.0, 0.0
    if pts.shape[1] != reference.size:
        raise ValueError("points/reference dimension mismatch")
    front = pts[np.all(pts < reference, axis=1)]
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


def _clean_front(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Non-dominated points strictly inside the reference box."""
    inside = points[np.all(points < reference, axis=1)]
    if inside.shape[0] == 0:
        return inside
    keep = pareto_filter(inside)
    return inside[keep]


def _pareto_mask(points: np.ndarray) -> np.ndarray:
    """Rows that no other row strictly dominates, by the all-pairs test."""
    weak = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    return ~np.any(weak & ~weak.T, axis=0)


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


def hypervolume_by_slices(points, reference) -> float:
    """Exact hypervolume by slicing, with a Pareto filter in every 2-D slice.

    The reference for the package's running-minimum sweep, bit for bit: the
    non-dominated points strictly inside the box are sliced on the last
    objective down to two dimensions, where each slice is filtered again by
    an all-pairs test and swept in x order.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        return 0.0
    reference = as_objectives(reference)
    if pts.shape[1] != reference.size:
        raise ValueError("points/reference dimension mismatch")
    front = _clean_front(pts, reference)
    if front.shape[0] == 0:
        return 0.0
    return _hv_slice(front, reference)


def exact_discrete_front(losses) -> list[int]:
    """Indices of the rows of ``losses`` that no other row strictly dominates.

    The answer of ``pareto_filter``, exact duplicates of a front row
    included, without its all-pairs mask, which for 65,536 rows would take
    ~16 GiB.  Rows are visited in ascending order of their loss sum, ties
    broken by the coordinates, and each is checked only against the front
    kept so far: a row that strictly dominates another is no greater in any
    coordinate, so it has no greater sum even after rounding, and comes
    first in that order.

    Returns:
      Sorted list of row indices.
    """
    pts = np.asarray(losses, dtype=np.float64)
    order = np.lexsort(tuple(pts.T[::-1]) + (pts.sum(axis=1),))
    front = np.empty_like(pts)
    kept = []
    for i in order:
        p = pts[i]
        head = front[: len(kept)]
        if not np.any(np.all(head <= p, axis=1) & np.any(head < p, axis=1)):
            front[len(kept)] = p
            kept.append(int(i))
    return sorted(kept)


class SequentialArchive:
    """The archive as its points arrive one at a time, for ``build_archive``.

    Inserting a point evicts every incumbent it strictly dominates, and a
    point is rejected when an incumbent weakly dominates it, which keeps
    the earliest copy of equal points.  The entries are the inserted
    points themselves; nothing is validated.
    """

    def __init__(self) -> None:
        self.entries = []

    def insert(self, entry) -> bool:
        """Insert ``entry`` unless an incumbent weakly dominates it; returns
        whether it was inserted."""
        if self.entries:
            incumbents = np.stack([inc.objectives for inc in self.entries])
            if np.any(np.all(incumbents <= entry.objectives, axis=1)):
                return False
            # No incumbent equals the entry here, so <= everywhere is strict.
            evicted = np.all(entry.objectives <= incumbents, axis=1)
            self.entries = [inc for inc, out in zip(self.entries, evicted) if not out]
        self.entries.append(entry)
        return True


def select_by_tuple_key(objectives, weights) -> int:
    """Index of the candidate ``discretize_select`` keeps, one key at a time.

    Each candidate's key is (weighted max, weighted sum, draw index) and the
    least key wins, so ties break by the sum and then by draw order.
    """
    best_key = None
    best = None
    for idx, vec in enumerate(objectives):
        weighted = vec * weights
        key = (float(max(weighted)), float(weighted.sum()), idx)
        if best_key is None or key < best_key:
            best_key, best = key, idx
    return best
