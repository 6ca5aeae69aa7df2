"""Output checks computed apart from the program.

``check(report, workload)`` takes the JSON report of one scan process and
returns a list of problems, empty when every check holds.  Nothing here
imports ``paretoscan``: losses are re-evaluated from each archive entry's
candidate id with formulas written out below, and hypervolumes are
recomputed with methods other than ``paretoscan.metrics``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Grid step of the synthetic task's candidates (index vector x 0.01).
SYNTHETIC_STEP = 0.01
#: String length of the n-gram task; unigram losses are multiples of 1/8.
NGRAM_LENGTH = 8
NGRAM_ALPHABET = "CVA"
#: Slack for floats computed along another path than the program's.
TOL = 1e-12


def synthetic_losses(candidate_id: str) -> np.ndarray:
    """Two Gaussian wells at +-c, c = ones/sqrt(n), of the index vector x 0.01."""
    x = np.array([int(k) for k in candidate_id[2:].split(",")], dtype=float) * SYNTHETIC_STEP
    c = 1.0 / math.sqrt(x.size)
    return np.array(
        [1.0 - math.exp(-float(np.sum((x - c) ** 2))), 1.0 - math.exp(-float(np.sum((x + c) ** 2)))]
    )


def unigram_losses(candidate_id: str) -> np.ndarray:
    """One minus the share of each of C, V, A in the string."""
    if len(candidate_id) != NGRAM_LENGTH or set(candidate_id) - set(NGRAM_ALPHABET):
        raise ValueError(f"not an n-gram candidate: {candidate_id!r}")
    return np.array([1.0 - candidate_id.count(ch) / NGRAM_LENGTH for ch in NGRAM_ALPHABET])


def surrogate_losses(candidate_id: str, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One minus the oracle's sigmoid(w . x + b) for the bit vector x."""
    x = np.array([int(ch) for ch in candidate_id[2:]], dtype=float)
    return 1.0 - 1.0 / (1.0 + np.exp(-(w @ x + b)))


def hv_sweep_2d(points: np.ndarray) -> float:
    """2-D HV against (1, 1): sort by the first loss, sweep the second."""
    pts = points[np.all(points < 1.0, axis=1)]
    total, floor = 0.0, 1.0
    for x, y in sorted(map(tuple, pts)):
        if y < floor:
            total += (1.0 - x) * (floor - y)
            floor = y
    return total


def hv_lattice(points: np.ndarray, steps: int = NGRAM_LENGTH) -> float:
    """Exact HV of points on the 1/steps lattice by counting dominated cells."""
    P = np.rint(points * steps).astype(int)
    m = P.shape[1]
    cells = np.indices((steps,) * m).reshape(m, -1).T
    dominated = np.zeros(len(cells), dtype=bool)
    for p in P:
        dominated |= np.all(cells >= p, axis=1)
    return int(dominated.sum()) / steps**m


def hv_inclusion_exclusion(points: np.ndarray) -> float:
    """HV against the unit corner as a signed sum over every subset of points."""
    if len(points) > 12:
        raise ValueError("inclusion-exclusion is limited to 12 points")
    total = 0.0
    for size in range(1, len(points) + 1):
        sign = 1.0 if size % 2 else -1.0
        for subset in itertools.combinations(points, size):
            corner = np.max(subset, axis=0)
            total += sign * float(np.prod(np.clip(1.0 - corner, 0.0, None)))
    return total


def hv_grid(points: np.ndarray) -> float:
    """HV against the unit corner on the grid of the points' own coordinates.

    A cell of that grid is dominated when some point is at or below its
    lower corner; a prefix maximum along each axis marks those cells.
    """
    pts = points[np.all(points < 1.0, axis=1)]
    if len(pts) == 0:
        return 0.0
    m = pts.shape[1]
    axes = [np.unique(pts[:, j]) for j in range(m)]
    dominated = np.zeros([len(a) for a in axes], dtype=bool)
    for p in pts:
        dominated[tuple(np.searchsorted(axes[j], p[j]) for j in range(m))] = True
    for j in range(m):
        dominated = np.maximum.accumulate(dominated, axis=j)
    widths = [np.diff(np.append(a, 1.0)) for a in axes]
    volume = dominated.astype(float)
    for j, width in enumerate(widths):
        shape = [1] * m
        shape[j] = -1
        volume = volume * width.reshape(shape)
    return float(volume.sum())


def synthetic_front_hv() -> float:
    """Exact HV of the front 1 - exp(-(t -+ 1)^2), t in [-1, 1], against (1, 1).

    Substituting u = l_1(t) gives 2 e^-2 * integral of exp(-2 t^2) over
    [-1, 1] for the part under the curve, plus the strip l_1 in
    [1 - e^-4, 1] that the endpoint t = -1 dominates down to l_2 = 0.
    """
    return 2.0 * math.exp(-2.0) * math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0)) + math.exp(-4.0)


def below_synthetic_front(point) -> bool:
    """True when ``point`` strictly dominates some point of the closed-form front."""
    l1, l2 = float(point[0]), float(point[1])
    if l1 > 1.0 - math.exp(-4.0):
        return False  # every front point has a smaller first loss
    t = 1.0 - math.sqrt(-math.log(1.0 - l1))  # the front point with l_1 = l1
    return l2 < 1.0 - math.exp(-((t + 1.0) ** 2)) - TOL


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL + 1e-9 * abs(b)


def check(report: dict, workload) -> list[str]:
    """Every problem found in one scan report; empty when all checks hold."""
    problems: list[str] = []
    m = workload.m
    entries = report["archive"]
    archive = np.array([e["objectives"] for e in entries], dtype=float).reshape(-1, m)
    rays = [r for r in report["rays"] if r["final"] is not None]
    finals = np.array([r["final"] for r in rays], dtype=float).reshape(-1, m)

    # Re-evaluate every archive entry from its candidate id.
    if workload.task == "synthetic":
        evaluate = synthetic_losses
    elif workload.task == "ngram-uni":
        evaluate = unigram_losses
    elif workload.task == "surrogate":
        w, b = np.array(report["oracle"]["w"]), np.array(report["oracle"]["b"])
        evaluate = lambda cid: surrogate_losses(cid, w, b)  # noqa: E731
    else:
        raise ValueError(f"no independent evaluation for task {workload.task!r}")
    for entry, got in zip(entries, archive):
        want = evaluate(entry["id"])
        if want.shape != got.shape or np.max(np.abs(want - got)) > TOL:
            problems.append(f"archive entry {entry['id']}: losses {got.tolist()}, expected {want.tolist()}")

    # The archive is mutually non-dominated, and it covers every final point.
    weak = np.all(archive[:, None, :] <= archive[None, :, :], axis=2)
    np.fill_diagonal(weak, False)
    for i, j in zip(*np.nonzero(weak)):
        problems.append(f"archive entry {entries[i]['id']} weakly dominates {entries[j]['id']}")
    for k, f in enumerate(finals):
        if not np.any(np.all(archive <= f, axis=1)):
            problems.append(f"final point of ray {k} {f.tolist()} is not covered by the archive")

    # Oracle accounting: m * (1 + C * r) calls per ray with r <= T rounds.
    for k, r in enumerate(rays):
        rounds, rest = divmod(r["oracle_calls"] // m - 1, workload.C)
        if r["oracle_calls"] % m or rest or not 0 <= rounds <= workload.T:
            problems.append(f"ray {k}: {r['oracle_calls']} oracle calls is not m*(1 + C*r), r <= T")
    if sum(r["oracle_calls"] for r in report["rays"]) != report["oracle_calls"]:
        problems.append("per-ray oracle calls do not sum to oracle_calls")

    # Hypervolumes recomputed apart from paretoscan.metrics.
    if m == 2:
        hv, archive_hv = hv_sweep_2d(finals), hv_sweep_2d(archive)
    elif workload.task == "ngram-uni":
        hv, archive_hv = hv_lattice(finals), hv_lattice(archive)
    else:
        hv, archive_hv = hv_inclusion_exclusion(finals), hv_grid(archive)
    if not _close(report["hv"], hv):
        problems.append(f"hv {report['hv']!r}, recomputed {hv!r}")
    if not _close(report["archive_hv"], archive_hv):
        problems.append(f"archive_hv {report['archive_hv']!r}, recomputed {archive_hv!r}")
    if report["archive_hv"] < report["hv"] - TOL:
        problems.append("archive_hv is below hv")

    if workload.task == "synthetic":
        for entry, point in zip(entries, archive):
            if below_synthetic_front(point):
                problems.append(f"archive entry {entry['id']} lies below the closed-form front")
        for k, f in enumerate(finals):
            if below_synthetic_front(f):
                problems.append(f"final point of ray {k} lies below the closed-form front")
        front_hv = synthetic_front_hv()
        if not workload.hv_floor <= report["hv"] <= front_hv + TOL:
            problems.append(f"hv {report['hv']!r} outside [{workload.hv_floor}, {front_hv!r}]")
    if workload.task == "ngram-uni":
        for point in np.vstack([archive, finals]):
            if np.any(point * NGRAM_LENGTH != np.rint(point * NGRAM_LENGTH)) or point.sum() != 2.0:
                problems.append(f"unigram losses {point.tolist()} are not eighths summing to 2")
    return problems
