"""End-to-end acceptance gate.

Ten criteria covering the full pipeline: synthetic front quality against the
weighted-sum baseline, weight-ray targeting, string-task fronts, solver and
metric oracle equivalence, gradient integrity, descent-theory diagnostics,
and byte-level reproducibility.  Each test prints one visible PASS/FAIL line
with the measured values.

The bigram criterion measures simultaneous improvement of correlated losses
against its exact ceiling.  Each bigram loss moves in steps of 1/7 (seven
adjacent pairs in an 8-symbol string), so a flat +0.3 per axis would need
nine favorable pairs out of seven.  Instead the test enumerates every
8-symbol string and takes as its target the best worst-axis gain any program
could reach from each run's own start.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from paretoscan.cli import main
from paretoscan.core import pareto_filter
from paretoscan.metrics import hypervolume, ray_nonuniformity
from paretoscan.net import DualPathNet, _Workspace
from paretoscan.qp import anchor_direction, solve_qp
from paretoscan.search import RunConfig, front_scan, run_inversion, theory_diagnostics
from paretoscan.tasks import (
    NGramTask,
    SyntheticTask,
    make_task,
    synthetic_losses,
    synthetic_losses_and_gradients,
    synthetic_true_front,
)
from paretoscan.weights import weight_grid

from oracles import hypervolume_monte_carlo, qp_grid_oracle

SEEDS = (1, 2, 3, 4, 5)


def _line(capsys, index: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {index}/10] {'PASS' if ok else 'FAIL'}  {detail}")


def _fd_columns(f, x, m, eps=1e-6):
    out = np.zeros((x.size, m))
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += eps
        dn[i] -= eps
        out[i] = (f(up) - f(dn)) / (2.0 * eps)
    return out


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12))


# ---------------------------------------------------------------------------
# shared scans (criteria 1 and 2)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_scans():
    truth = synthetic_true_front(2001)
    rays = weight_grid(2, 50)
    data = {"epo": [], "ls": [], "epo_seconds": 0.0}
    for seed in SEEDS:
        cfg = RunConfig(task="synthetic", T=50, K=20, eta=0.05, C=10, seed=seed)
        start = time.perf_counter()
        epo = front_scan(lambda: SyntheticTask(), rays, cfg, true_front=truth)
        data["epo_seconds"] += time.perf_counter() - start
        ls = front_scan(
            lambda: SyntheticTask(), rays, replace(cfg, mode="ls"), true_front=truth
        )
        data["epo"].append(epo.metrics)
        data["ls"].append(ls.metrics)
    return data


def test_01_synthetic_scan_reaches_hypervolume_floor(synthetic_scans, capsys):
    hvs = [m["hv"] for m in synthetic_scans["epo"]]
    median_hv = float(np.median(hvs))
    seconds = synthetic_scans["epo_seconds"]
    ok = median_hv >= 0.30 and seconds < 120.0
    _line(
        capsys,
        1,
        ok,
        f"median HV {median_hv:.4f} (floor 0.30) over {len(SEEDS)} seeds, "
        f"scans took {seconds:.1f}s (limit 120s)",
    )
    assert median_hv >= 0.30
    assert seconds < 120.0


def test_02_qp_direction_beats_weighted_sum_baseline(synthetic_scans, capsys):
    epo_hv = np.array([m["hv"] for m in synthetic_scans["epo"]])
    ls_hv = np.array([m["hv"] for m in synthetic_scans["ls"]])
    ratio = float(np.median(epo_hv / ls_hv))
    epo_cov = float(np.median([m["coverage"] for m in synthetic_scans["epo"]]))
    ls_cov = float(np.median([m["coverage"] for m in synthetic_scans["ls"]]))
    ok = ratio > 2.0 and epo_cov >= 0.8 and ls_cov <= 0.6
    _line(
        capsys,
        2,
        ok,
        f"HV ratio {ratio:.2f} (floor 2), coverage {epo_cov:.2f} vs {ls_cov:.2f} "
        f"(need >= 0.8 and <= 0.6)",
    )
    assert ratio > 2.0
    assert epo_cov >= 0.8
    assert ls_cov <= 0.6


# ---------------------------------------------------------------------------
# criterion 3: weight-ray targeting
# ---------------------------------------------------------------------------


def test_03_final_points_hit_their_weight_rays(capsys):
    rays = weight_grid(2, 7)[1:-1]
    dense = synthetic_true_front(20001)
    targets = []
    for w in rays:
        mus = np.array([ray_nonuniformity(p, w) for p in dense])
        targets.append(dense[int(np.nanargmin(mus))])

    counts = []
    for base in (11, 12, 13, 14, 15):
        hits = 0
        for i, w in enumerate(rays):
            cfg = RunConfig(
                task="synthetic",
                weights=w,
                T=50,
                K=20,
                eta=0.05,
                C=10,
                seed=base * 10 + i,
                oracle_budget=480,
            )
            res = run_inversion(cfg)
            last = res.trajectory[-1]
            dist = float(np.linalg.norm(last.objectives - targets[i]))
            hits += (
                last.mu <= 0.02 and dist <= 0.05 and res.oracle_calls <= 500
            )
        counts.append(hits)
    median_hits = int(np.median(counts))
    ok = median_hits == 5
    _line(
        capsys,
        3,
        ok,
        f"rays hit per seed {counts} (mu<=0.02, dist<=0.05, calls<=500); "
        f"median {median_hits}/5",
    )
    assert median_hits == 5


# ---------------------------------------------------------------------------
# criteria 4 and 5: string-task fronts
# ---------------------------------------------------------------------------


def test_04_unigram_scan_spreads_a_conflicting_front(capsys):
    scan = front_scan(
        lambda: make_task("ngram-uni"),
        weight_grid(3, 12),
        RunConfig(task="ngram-uni", T=50, K=20, eta=0.2, C=10, seed=0),
    )
    finals = np.array(
        [r.final_objectives for r in scan.rays if r.final_objectives is not None]
    )
    nondom = finals[pareto_filter(finals)]
    distinct = np.unique(np.round(nondom, 9), axis=0)
    spans = distinct.max(axis=0) - distinct.min(axis=0)
    ok = distinct.shape[0] >= 5 and bool(np.all(spans >= 0.5))
    _line(
        capsys,
        4,
        ok,
        f"{distinct.shape[0]} distinct non-dominated finals (need >= 5), "
        f"axis spans {np.round(spans, 3).tolist()} (need >= 0.5 each)",
    )
    assert distinct.shape[0] >= 5
    assert np.all(spans >= 0.5)


BIGRAM_LENGTH = 8
BIGRAM_SYMBOLS = "CVA"
BIGRAM_PAIRS = ((0, 1), (1, 2), (2, 0))  # CV, VA, AC as symbol codes


def _bigram_pair_counts(codes: np.ndarray) -> np.ndarray:
    """(N, 3) counts of CV, VA, AC among adjacent positions of (N, L) codes."""
    first, second = codes[:, :-1], codes[:, 1:]
    return np.stack(
        [np.sum((first == a) & (second == b), axis=1) for a, b in BIGRAM_PAIRS],
        axis=1,
    )


def _attainable_pair_counts() -> np.ndarray:
    """Every distinct (CV, VA, AC) count vector over all 3^8 strings."""
    codes = np.array(list(itertools.product(range(3), repeat=BIGRAM_LENGTH)))
    return np.unique(_bigram_pair_counts(codes), axis=0)


def _gain_ceiling(start_counts: np.ndarray, attainable: np.ndarray) -> int:
    """Best worst-axis gain, in pairs, reachable from a start's pair counts."""
    return int((attainable - start_counts).min(axis=1).max())


@pytest.fixture(scope="module")
def bigram_improvements():
    runs = {"start": [], "start_losses": [], "min_gain": []}
    for seed in SEEDS:
        cfg = RunConfig(task="ngram-bi", T=50, K=20, eta=0.2, C=10, seed=seed)
        res = run_inversion(cfg)
        gain = res.trajectory[0].objectives - res.trajectory[-1].objectives
        runs["start"].append(res.trajectory[0].candidate_id)
        runs["start_losses"].append(res.trajectory[0].objectives)
        runs["min_gain"].append(float(gain.min()))
    return runs


def test_05_bigram_simultaneous_improvement_target(bigram_improvements, capsys):
    pairs = BIGRAM_LENGTH - 1
    attainable = _attainable_pair_counts()

    # (a) no start admits +0.3 on every axis: the global ceiling is 2/7
    global_ceiling = max(_gain_ceiling(c, attainable) for c in attainable)
    assert global_ceiling == 2
    assert global_ceiling / pairs < 0.3

    # (b) the enumeration scores each run's start exactly as the oracle did
    ceilings = []
    for start, losses in zip(
        bigram_improvements["start"], bigram_improvements["start_losses"]
    ):
        codes = np.array([[BIGRAM_SYMBOLS.index(ch) for ch in start]])
        counts = _bigram_pair_counts(codes)[0]
        np.testing.assert_allclose(1.0 - counts / pairs, losses, rtol=0, atol=1e-12)
        ceilings.append(_gain_ceiling(counts, attainable))

    # (c) each gain is at most its own ceiling, so the median gain can at best
    # equal the median ceiling; the slack only absorbs float rounding
    gains = np.array(bigram_improvements["min_gain"])
    median_min = float(np.median(gains))
    target = float(np.median(ceilings)) / pairs
    ok = median_min >= target - 1e-9
    in_pairs = np.rint(gains * pairs).astype(int)
    _line(
        capsys,
        5,
        ok,
        f"median worst-axis improvement {median_min:.3f} (target {target:.3f}, "
        f"the median exact ceiling); per-seed gains {in_pairs.tolist()}/7, "
        f"ceilings {ceilings}/7, shortfalls "
        f"{(np.array(ceilings) - in_pairs).tolist()}/7",
    )
    assert ok, f"median worst-axis gain {median_min:.3f} below ceiling {target:.3f}"


def test_05_bigram_improves_every_axis_qualitatively(bigram_improvements, capsys):
    median_min = float(np.median(bigram_improvements["min_gain"]))
    ok = median_min > 0.0
    _line(
        capsys,
        5,
        ok,
        f"(companion) median worst-axis improvement {median_min:.3f} > 0: "
        f"correlated losses do move together",
    )
    assert median_min > 0.0


# ---------------------------------------------------------------------------
# criteria 6 and 7: oracle equivalence
# ---------------------------------------------------------------------------


def test_06_qp_solver_matches_grid_oracle(capsys):
    compared = 0
    worst_gap = 0.0
    worst_slack = 0.0
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        m = (2, 3, 4)[i % 3]
        G = rng.standard_normal((10, m))
        L = rng.uniform(0.05, 1.0, size=m)
        w = rng.uniform(0.2, 1.0, size=m)
        if i % 5 == 0:
            active = []
        elif i % 5 == 1:
            active = [i % m]
        else:
            active = list(range(m))
        a = anchor_direction(L, w)
        sol = solve_qp(G, a, active)
        M = G.T @ G
        if not sol.infeasible and active:
            worst_slack = min(worst_slack, float((M @ sol.beta)[active].min()))
        arg, value = qp_grid_oracle(M, a, active, 400 if m < 4 else 60)
        if active and float((M @ arg)[active].min()) < -1e-8:
            continue  # the slow route failed to certify feasibility; skip
        gap = float(np.sum((M @ sol.beta - a) ** 2)) - value
        worst_gap = max(worst_gap, gap)
        compared += 1
    ok = compared >= 80 and worst_gap <= 1e-4 and worst_slack >= -1e-8
    _line(
        capsys,
        6,
        ok,
        f"{compared}/100 instances certified; worst objective gap "
        f"{worst_gap:.2e} (limit 1e-4), worst slack {worst_slack:.2e} "
        f"(floor -1e-8)",
    )
    assert compared >= 80
    assert worst_gap <= 1e-4
    assert worst_slack >= -1e-8


def test_07_exact_hypervolume_matches_monte_carlo(capsys):
    worst_z = 0.0
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        m = (2, 3, 4)[i % 3]
        pts = rng.uniform(0.1, 0.9, size=(6, m))
        exact = hypervolume(pts, np.ones(m))
        est, se = hypervolume_monte_carlo(
            pts, np.ones(m), samples=10**6, seed=1000 + i
        )
        if se == 0.0:
            # one point attains every coordinate minimum, so the sampling box
            # is fully dominated and the estimate is exact by construction
            assert abs(exact - est) <= 1e-12
            continue
        worst_z = max(worst_z, abs(exact - est) / se)
    ok = worst_z <= 3.0
    _line(
        capsys,
        7,
        ok,
        f"20 fronts, worst exact-vs-MC deviation {worst_z:.2f} standard errors "
        f"(limit 3) at 1e6 samples",
    )
    assert worst_z <= 3.0


# ---------------------------------------------------------------------------
# criterion 8: gradient integrity
# ---------------------------------------------------------------------------


def test_08_analytic_gradients_match_finite_differences(capsys):
    worst = {}

    rng = np.random.default_rng(0)
    err = 0.0
    for _ in range(20):
        x = rng.uniform(-0.4, 0.4, size=8)
        G = synthetic_losses_and_gradients(x)[1]
        err = max(err, _rel_err(G, _fd_columns(synthetic_losses, x, 2)))
    worst["synthetic"] = err

    def raw_ngram(mode, l_max):
        pairs = [(0, 1), (1, 2), (2, 0)]

        def f(flat):
            Q = flat.reshape(l_max, 3)
            if mode == "unigram":
                return 1.0 - Q.sum(axis=0) / l_max
            counts = np.array(
                [float(np.sum(Q[:-1, a] * Q[1:, b])) for a, b in pairs]
            )
            return 1.0 - counts / (l_max - 1)

        return f

    err = 0.0
    for k in range(20):
        mode = "unigram" if k % 2 == 0 else "bigram"
        P = rng.dirichlet(np.ones(3), size=6)
        G = NGramTask(mode, 6).losses_and_gradients(P.ravel())[1]
        err = max(err, _rel_err(G, _fd_columns(raw_ngram(mode, 6), P.ravel(), 3)))
    worst["ngram"] = err

    err = 0.0
    for k in range(20):
        net = DualPathNet(5, 6, 2, seed=k)
        x = rng.uniform(0.0, 1.0, size=5)
        fd = _fd_columns(lambda v: net.losses_and_gradients(v)[0], x, 2)
        err = max(err, _rel_err(net.losses_and_gradients(x)[1], fd))
    worst["net-input"] = err

    err = 0.0
    eps = 1e-6
    for k in range(20):
        net = DualPathNet(3, 4, 2, seed=50 + k)
        X = rng.uniform(0.0, 1.0, size=(5, 3))
        Y = rng.uniform(0.0, 1.0, size=(5, 2))
        work, probe = _Workspace(net, 5), _Workspace(net, 5)
        net._loss_and_grads(X, Y, work)
        for param, grad in zip((net.w1, net.b1, net.w2, net.b2), work.grads):
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = param[idx]
                param[idx] = keep + eps
                up = net._loss_and_grads(X, Y, probe)
                param[idx] = keep - eps
                dn = net._loss_and_grads(X, Y, probe)
                param[idx] = keep
                fd[idx] = (up - dn) / (2 * eps)
            err = max(err, _rel_err(grad, fd))
    worst["net-params"] = err

    bound = 1e-5
    ok = all(v <= bound for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _line(capsys, 8, ok, f"worst relative FD error per family: {detail} (limit 1e-5)")
    for family, value in worst.items():
        assert value <= bound, family


# ---------------------------------------------------------------------------
# criterion 9: descent-theory diagnostics
# ---------------------------------------------------------------------------


def test_09_descent_theory_diagnostics_hold(tmp_path, capsys):
    good = 0
    for seed in range(20):
        res = run_inversion(RunConfig(task="synthetic", seed=seed))
        d = theory_diagnostics(res)
        steps = len(d.r_check_sequence) - 1
        rate = d.admissible_violations / steps
        good += d.monotone_fraction >= 0.9 and rate <= 0.1

    out = tmp_path / "sanity"
    rc = main(
        [
            "run",
            "--task",
            "synthetic",
            "-T",
            "1",
            "-K",
            "1",
            "-C",
            "1",
            "--eta",
            "0.05",
            "--seed",
            "0",
            "-o",
            str(out),
        ]
    )
    theory = json.loads((out / "theory.json").read_text())
    gamma = theory["bound_check"]["gamma"]
    ok = good >= 18 and rc == 0 and gamma == 1.0
    _line(
        capsys,
        9,
        ok,
        f"{good}/20 runs monotone >= 0.9 with violation rate <= 0.1 (need 18); "
        f"single-step bound coefficient {gamma} (need exactly 1.0)",
    )
    assert good >= 18
    assert rc == 0
    assert gamma == 1.0


# ---------------------------------------------------------------------------
# criterion 10: reproducibility
# ---------------------------------------------------------------------------


def test_10_artifacts_are_byte_reproducible(tmp_path, capsys):
    run_args = [
        "run", "--task", "synthetic", "--n", "6", "-T", "5", "-K", "5",
        "-C", "4", "--eta", "0.05", "--seed", "17",
    ]
    scan_args = [
        "scan", "--task", "synthetic", "--n", "6", "-T", "4", "-K", "5",
        "-C", "4", "--eta", "0.05", "--seed", "17", "--weights", "6",
    ]
    for args, name in ((run_args, "trajectory.csv"), (scan_args, "archive.csv")):
        a, b = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _line(
        capsys,
        10,
        True,
        "repeat runs reproduce trajectory.csv and archive.csv byte-for-byte",
    )
