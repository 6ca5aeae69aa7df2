"""Weight-vector generation on the positive orthant of the unit sphere.

Rays are parameterized by uniform coordinates in [0, 1] mapped through
spherical angles, so evenly spaced (or low-discrepancy) inputs give well
spread rays.  Generators can emit exact zeros at the orthant boundary;
:func:`lift_positive` floors those before a vector is used in optimization,
where strictly positive weights are required.
"""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = [
    "weights_2d",
    "weights_3d",
    "weights_4d",
    "weight_grid",
    "lift_positive",
    "load_weights_csv",
]

#: Components below this magnitude are snapped to exact zero.
_SNAP = 1e-12

#: Floor applied by :func:`lift_positive` to zero components.
POSITIVITY_FLOOR = 1e-3


def _finalize(components: list[float]) -> np.ndarray:
    w = np.asarray(components, dtype=np.float64)
    w[np.abs(w) < _SNAP] = 0.0
    return w / np.linalg.norm(w)


def _check_unit(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def weights_2d(u: float) -> np.ndarray:
    """Ray (cos t, sin t) with t = (pi/2) u, u in [0, 1]."""
    t = 0.5 * math.pi * _check_unit(u, "u")
    return _finalize([math.cos(t), math.sin(t)])


def weights_3d(u: float, v: float) -> np.ndarray:
    """Three-component ray from two unit coordinates.

    Uses the four-component construction with the final inclination pinned
    so the fourth component vanishes: theta = (pi/2) u, phi = arccos v, and
    the ray is (sin phi cos theta, sin phi sin theta, cos phi).
    """
    t = 0.5 * math.pi * _check_unit(u, "u")
    phi = math.acos(_check_unit(v, "v"))
    return _finalize(
        [math.sin(phi) * math.cos(t), math.sin(phi) * math.sin(t), math.cos(phi)]
    )


def weights_4d(u: float, v: float, z: float) -> np.ndarray:
    """Four-component ray from three unit coordinates.

    theta = (pi/2) u, phi = arccos v, sigma = arccos z; the components are
    (sin phi cos theta sin sigma, sin phi sin theta sin sigma,
    sin sigma cos phi, cos sigma).
    """
    t = 0.5 * math.pi * _check_unit(u, "u")
    phi = math.acos(_check_unit(v, "v"))
    sigma = math.acos(_check_unit(z, "z"))
    sp, ss = math.sin(phi), math.sin(sigma)
    return _finalize(
        [
            sp * math.cos(t) * ss,
            sp * math.sin(t) * ss,
            ss * math.cos(phi),
            math.cos(sigma),
        ]
    )


def weight_grid(m: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """Deterministic list of ``count`` rays for m in {2, 3, 4}.

    Two objectives get evenly spaced angles (a single ray sits at the
    diagonal); three and four use seeded low-discrepancy coordinates,
    deduplicated after snapping.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if m == 2:
        if count == 1:
            return [weights_2d(0.5)]
        return [weights_2d(i / (count - 1)) for i in range(count)]
    if m in (3, 4):
        # Imported here: scipy.stats takes most of the package's import time.
        from scipy.stats import qmc

        maker = weights_3d if m == 3 else weights_4d
        sampler = qmc.Halton(d=m - 1, seed=seed)
        out: list[np.ndarray] = []
        seen: set[tuple] = set()
        while len(out) < count:
            for row in sampler.random(max(count, 8)):
                w = maker(*row)
                key = tuple(np.round(w, 12))
                if key not in seen:
                    seen.add(key)
                    out.append(w)
                    if len(out) == count:
                        break
        return out
    raise ValueError(f"weight grids support m in {{2, 3, 4}}, got {m}")


def lift_positive(weights, floor: float = POSITIVITY_FLOOR) -> np.ndarray:
    """Floor zero components and re-normalize to the unit sphere.

    Boundary rays carry exact zeros, which the non-uniformity measure and
    the inverse-weight ray cannot accept; the lift perturbs the ray by at
    most the floor while restoring strict positivity.
    """
    w = np.asarray(weights, dtype=np.float64).copy()
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    w[w < floor] = floor
    w = w / np.linalg.norm(w)
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
