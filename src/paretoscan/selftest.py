"""Embedded quick verification suites, runnable via the CLI.

Each row exercises one numerical core against an independent route:

* ``qp`` -- the active-set solver against a dense simplex-grid search with
  pattern-search refinement.
* ``hv`` -- exact hypervolume against the Monte Carlo estimator.
* ``grad`` -- every analytic gradient (tasks and net paths) against central
  finite differences.
* ``weights`` -- generator invariants: unit norm, non-negativity,
  monotonicity, grid determinism.

The oracle helpers here are deliberately naive and slow; the test suite
reuses them as the independent route for the fast production code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .metrics import hypervolume, hypervolume_monte_carlo
from .net import DualPathNet
from .tasks import ngram_gradients, synthetic_losses, synthetic_losses_and_gradients
from .weights import weight_grid, weights_2d, weights_3d, weights_4d

__all__ = [
    "simplex_grid",
    "qp_grid_oracle",
    "run_selftest",
    "SelfTestRow",
]


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
    exchange directions (which preserve the simplex sum).  Used as the
    ground-truth route when checking the fast active-set solver.

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


@dataclass
class SelfTestRow:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_qp(rng: np.random.Generator) -> SelfTestRow:
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_slack = 0.0
    for trial in range(20):
        m = (2, 3, 4)[trial % 3]
        G = rng.standard_normal((10, m))
        if trial % 2 == 0:
            L = rng.uniform(0.05, 1.0, m)
            lam = rng.uniform(0.1, 1.0, m)
            lam /= np.linalg.norm(lam)
            a = qp.anchor_direction(L, lam)
            act = qp.active_index_set(L, lam)
        else:
            a = rng.standard_normal(m)
            size = int(rng.integers(1, m + 1))
            act = sorted(rng.choice(m, size=size, replace=False).tolist())
        sol = qp.solve_qp(G, a, act)
        M = G.T @ G
        _, oracle_obj = qp_grid_oracle(M, a, act, 200 if m < 4 else 50)
        gap = float(np.sum((M @ sol.beta - a) ** 2)) - oracle_obj
        worst_gap = max(worst_gap, gap)
        if act and not sol.infeasible:
            worst_slack = min(worst_slack, float(np.min((M @ sol.beta)[act])))
    passed = worst_gap <= 1e-4 and worst_slack >= -1e-8
    return SelfTestRow(
        "qp",
        passed,
        f"worst objective gap {worst_gap:.2e}, worst slack {worst_slack:.2e}",
        time.perf_counter() - t0,
    )


def _check_hv(rng: np.random.Generator) -> SelfTestRow:
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(5):
        m = (2, 3, 4, 3, 2)[trial]
        pts = rng.random((6, m))
        exact = hypervolume(pts, np.ones(m))
        est, se = hypervolume_monte_carlo(pts, np.ones(m), samples=200_000, seed=trial)
        sigma = abs(exact - est) / max(se, 1e-12)
        worst = max(worst, sigma)
    passed = worst <= 4.0
    return SelfTestRow(
        "hv", passed, f"worst |exact - MC| = {worst:.2f} standard errors",
        time.perf_counter() - t0,
    )


def _fd_columns(f, x: np.ndarray, m: int, eps: float) -> np.ndarray:
    out = np.zeros((x.size, m))
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        out[i] = (f(xp) - f(xm)) / (2.0 * eps)
    return out


def _check_grad(rng: np.random.Generator) -> SelfTestRow:
    t0 = time.perf_counter()
    worst = 0.0

    for _ in range(3):
        x = rng.uniform(-0.4, 0.4, 8)
        analytic = synthetic_losses_and_gradients(x)[1]
        fd = _fd_columns(synthetic_losses, x, 2, 1e-6)
        worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))

    for _ in range(3):
        P = rng.dirichlet(np.ones(3), size=6)
        analytic = ngram_gradients(P, "bigram", 6)

        def raw(flat: np.ndarray) -> np.ndarray:
            Q = flat.reshape(6, 3)
            pairs = [("C", "V"), ("V", "A"), ("A", "C")]
            counts = np.array(
                [
                    float(np.sum(Q[:-1, "CVA".index(p)] * Q[1:, "CVA".index(q)]))
                    for p, q in pairs
                ]
            )
            return 1.0 - counts / 5.0

        fd = _fd_columns(raw, P.ravel(), 3, 1e-6)
        worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))

    net = DualPathNet(6, 5, 2, seed=3)
    X = rng.random((12, 6))
    Y = 1.0 / (1.0 + np.exp(-rng.standard_normal((12, 2))))
    net.train(X, Y, epochs=40, rate=0.1)
    for _ in range(3):
        x = rng.random(6)
        analytic = net.losses_and_gradients(x)[1]
        fd = _fd_columns(lambda xx: net.losses_and_gradients(xx)[0], x, 2, 1e-6)
        worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))

    passed = worst <= 1e-5
    return SelfTestRow(
        "grad", passed, f"worst relative FD error {worst:.2e}",
        time.perf_counter() - t0,
    )


def _check_weights(rng: np.random.Generator) -> SelfTestRow:
    t0 = time.perf_counter()
    ok = True
    notes = []
    for _ in range(100):
        u, v, z = rng.random(3)
        for w in (weights_2d(u), weights_3d(u, v), weights_4d(u, v, z)):
            if abs(float(np.linalg.norm(w)) - 1.0) > 1e-12 or w.min() < 0.0:
                ok = False
                notes.append("norm/positivity violation")
    us = np.linspace(0.0, 1.0, 51)
    first = np.array([weights_2d(u)[0] for u in us])
    if np.any(np.diff(first) > 1e-15):
        ok = False
        notes.append("monotonicity violation")
    a = weight_grid(4, 8)
    b = weight_grid(4, 8)
    if not all(np.array_equal(x, y) for x, y in zip(a, b)):
        ok = False
        notes.append("grid nondeterminism")
    return SelfTestRow(
        "weights", ok, "; ".join(notes) if notes else "all invariants hold",
        time.perf_counter() - t0,
    )


_ROWS = {
    "qp": _check_qp,
    "hv": _check_hv,
    "grad": _check_grad,
    "weights": _check_weights,
}


def run_selftest(name_filter: str = "", seed: int = 0) -> list[SelfTestRow]:
    """Run the embedded suites, optionally restricted by substring filter."""
    rows = []
    for name, check in _ROWS.items():
        if name_filter and name_filter not in name:
            continue
        rows.append(check(np.random.default_rng(seed)))
    return rows
