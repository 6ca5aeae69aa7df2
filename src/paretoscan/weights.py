"""Weight-vector generation on the positive orthant of the unit sphere.

Rays are parameterized by uniform coordinates in [0, 1] mapped through
spherical angles, so evenly spaced (or low-discrepancy) inputs give well
spread rays.  Grids can emit exact zeros at the orthant boundary;
:func:`lift_positive` raises every component below ``POSITIVITY_FLOOR``,
zeros and tiny positive values alike, to that floor before a vector is used
in optimization, where strictly positive weights are required.
"""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = ["weight_grid", "lift_positive", "load_weights_csv"]

#: Components below this magnitude are snapped to exact zero.
_SNAP = 1e-12

#: Floor applied by :func:`lift_positive` to every component below it.
POSITIVITY_FLOOR = 1e-3


def _ray(coords) -> np.ndarray:
    """Unit ray with ``len(coords) + 1`` components from coordinates in [0, 1].

    The first coordinate u gives t = (pi/2) u and the ray (cos t, sin t).
    Each further coordinate c sets a = arccos c, multiplies every component
    so far by sin a and appends cos a: c = 0 leaves the earlier components
    as they were with a zero appended, and c = 1 gives the new axis.
    """
    t = 0.5 * math.pi * coords[0]
    components = [math.cos(t), math.sin(t)]
    for c in coords[1:]:
        a = math.acos(c)
        scale = math.sin(a)
        components = [x * scale for x in components] + [math.cos(a)]
    w = np.array(components)
    w[np.abs(w) < _SNAP] = 0.0
    return w / np.linalg.norm(w)


#: Prime base of each Halton coordinate; grids use at most three coordinates.
_HALTON_BASES = (2, 3, 5)


def _halton_permutations(d: int) -> list[np.ndarray]:
    """Owen's digit permutations for the first ``d`` Halton bases.

    Base b gets one shuffled ``arange(b)`` per digit a double resolves
    (b**-k > 2**-54), drawn row by row and base after base from
    ``default_rng(0)`` (Owen 2017, arXiv:1706.02808, Algorithm 1).
    """
    rng = np.random.default_rng(0)
    perms = []
    for base in _HALTON_BASES[:d]:
        rows = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for row in rows:
            rng.shuffle(row)
        perms.append(rows)
    return perms


def _halton_points(perms: list[np.ndarray], start: int, n: int) -> np.ndarray:
    """Points ``start .. start + n - 1`` of the scrambled Halton sequence, shape (n, d)."""
    out = np.zeros((n, len(perms)))
    for col, (base, rows) in enumerate(zip(_HALTON_BASES, perms)):
        index = np.arange(start, start + n)
        scale = 1.0 / base
        for row in rows:
            out[:, col] += row[index % base] * scale
            scale /= base
            index //= base
    return out


def weight_grid(m: int, count: int) -> list[np.ndarray]:
    """Deterministic list of ``count`` rays for m in {2, 3, 4}.

    Two objectives get evenly spaced angles (a single ray sits at the
    diagonal); three and four use scrambled Halton coordinates,
    deduplicated after snapping.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if m == 2:
        if count == 1:
            return [_ray([0.5])]
        return [_ray([i / (count - 1)]) for i in range(count)]
    if m in (3, 4):
        perms = _halton_permutations(m - 1)
        out: list[np.ndarray] = []
        seen: set[tuple] = set()
        start, block = 0, max(count, 8)
        while len(out) < count:
            for row in _halton_points(perms, start, block):
                w = _ray(row)
                key = tuple(np.round(w, 12))
                if key not in seen:
                    seen.add(key)
                    out.append(w)
                    if len(out) == count:
                        break
            start += block
        return out
    raise ValueError(f"weight grids support m in {{2, 3, 4}}, got {m}")


def lift_positive(weights) -> np.ndarray:
    """Raise components below ``POSITIVITY_FLOOR`` to it and re-normalize.

    Boundary rays carry exact zeros, which the non-uniformity measure and
    the inverse-weight ray cannot accept; the lift perturbs the ray by at
    most ``POSITIVITY_FLOOR`` while restoring strict positivity.  Every
    component below the floor is raised, not only zeros: ``[1, 1e-6]``
    lifts to ``[1, 1e-3]`` before the norm is restored.
    """
    w = np.asarray(weights, dtype=np.float64).copy()
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    w[w < POSITIVITY_FLOOR] = POSITIVITY_FLOOR
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norm = np.linalg.norm(w)
    w = w / norm
    if not np.all(w > 0.0):
        raise ValueError("weights must have a finite Euclidean norm")
    return w


def load_weights_csv(path) -> list[np.ndarray]:
    """Read rays from a CSV with a header row and one ray per row, validating each row."""
    out: list[np.ndarray] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty weight file")
        m = len(header)
        for row_number, row in enumerate(reader, start=2):
            if len(row) != m:
                raise ValueError(f"row {row_number}: expected {m} columns, got {len(row)}")
            try:
                vals = np.array([float(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"row {row_number}: {exc}") from None
            if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
                raise ValueError(f"row {row_number}: components must be finite and >= 0")
            out.append(vals)
    if not out:
        raise ValueError("weight file has a header but no rows")
    return out
