"""Outer loop: runs, scans, theory diagnostics, trajectory serialization."""

import hashlib
import math
import struct
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import pytest

from paretoscan import qp, search
from paretoscan.core import DimensionMismatchError, EmptyInputError, TrajectoryPoint
from paretoscan.metrics import hypervolume
from paretoscan.relax import Box, discretize_select, inner_descent
from paretoscan.search import (
    RunConfig,
    RunResult,
    front_scan,
    run_inversion,
    theory_diagnostics,
    trajectory_to_csv,
)
from paretoscan.tasks import SyntheticTask, make_task
from paretoscan.weights import weight_grid
from oracles import exact_discrete_front
from test_core import _reference_front

DIAG = np.array([math.sqrt(0.5), math.sqrt(0.5)])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="both").validate()
    with pytest.raises(ValueError):
        RunConfig(T=0).validate()
    with pytest.raises(ValueError):
        RunConfig(K=0).validate()
    with pytest.raises(ValueError):
        RunConfig(C=0).validate()
    with pytest.raises(ValueError):
        RunConfig(eta=-0.1).validate()
    with pytest.raises(ValueError):
        RunConfig(oracle_budget=-1).validate()
    with pytest.raises(ValueError, match="^task must be one of"):
        RunConfig(task="bogus").validate()
    RunConfig(eta=0.0).validate()  # zero step is a legal control


def test_run_with_a_prebuilt_task_still_checks_the_task_name():
    # the name picks the default step size even when the task is passed in
    with pytest.raises(ValueError, match="^task must be one of"):
        run_inversion(RunConfig(task="bogus", T=1, K=1, C=1), task=SyntheticTask(n=6))


def test_config_from_dict_aliases():
    cfg = RunConfig.from_dict(
        {"task": "synthetic", "lambda": [0.6, 0.8], "t": 3, "k": 4, "c": 5, "budget": 100}
    )
    assert cfg.T == 3 and cfg.K == 4 and cfg.C == 5
    assert cfg.oracle_budget == 100
    assert cfg.weights.tolist() == [0.6, 0.8]
    upper = RunConfig.from_dict({"T": 7, "K": 2, "C": 2})
    assert upper.T == 7
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_dict({"steps": 3})
    # two keys that name one field are refused, both named
    assert RunConfig.field_values({"t": 4, "lambda": [1, 2]}) == {"T": 4, "weights": [1, 2]}
    for data, message in (
        ({"T": 3, "t": 4, "K": 2}, "T: set by both 'T' and 't'"),
        ({"k": 3, "K": 4}, "K: set by both 'k' and 'K'"),
        ({"lambda": [1, 2], "weights": [3, 4]}, "weights: set by both 'lambda' and 'weights'"),
        ({"budget": 5, "oracle_budget": 6}, "oracle_budget: set by both 'budget' and 'oracle_budget'"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig.from_dict(data)


def test_balance_threshold_is_a_read_only_constant():
    assert "epsilon" not in {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    assert cfg.epsilon == qp.EPSILON == 1e-3
    with pytest.raises(ValueError, match="^unknown config key 'epsilon'$"):
        RunConfig.from_dict({"epsilon": 0.01})
    with pytest.raises(TypeError):
        RunConfig(epsilon=0.01)
    with pytest.raises(AttributeError):
        cfg.epsilon = 0.01
    assert cfg.epsilon == 1e-3


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def test_balanced_ray_converges_to_the_origin():
    # the diagonal ray's exact optimum is the all-zeros lattice point, where
    # both objectives equal 1 - 1/e and the profile matches the ray exactly
    cfg = RunConfig(
        task="synthetic", weights=DIAG, T=50, K=20, eta=0.05, C=10, seed=7
    )
    res = run_inversion(cfg)
    assert res.converged and not res.failed
    last = res.trajectory[-1]
    edge = 1.0 - math.exp(-1.0)
    assert last.objectives[0] == edge
    assert last.objectives[1] == edge
    assert last.mu == 0.0
    assert np.all(res.final_candidate == 0)
    rep = theory_diagnostics(res)
    assert rep.monotone_fraction == 1.0
    assert rep.admissible_violations == 0
    assert rep.bound_check["satisfied"] is True


def test_round_zero_records_the_initial_point():
    task = SyntheticTask(n=5)
    x0 = task.random_candidate(np.random.default_rng(0))  # the run's seeded start
    cfg = RunConfig(task="synthetic", T=1, K=1, eta=0.0, C=1, seed=0)
    res = run_inversion(cfg, task=task)
    assert res.trajectory[0].round_index == 0
    assert res.trajectory[0].candidate_id == task.candidate_id(x0)
    assert res.trajectory[0].objectives == pytest.approx(task.eval_discrete(x0))
    assert res.trajectory[0].oracle_calls == 2


def test_zero_step_single_neighbor_is_constant():
    # eta=0 keeps the relaxed point still and C=1 offers only its snap, so
    # every round re-selects the same candidate
    cfg = RunConfig(task="synthetic", task_params={"n": 4}, T=3, K=2, eta=0.0, C=1, seed=3)
    res = run_inversion(cfg)
    assert len(res.trajectory) == 4  # round 0 plus T rounds, no convergence
    assert not res.converged
    ids = {p.candidate_id for p in res.trajectory}
    assert len(ids) == 1
    assert res.oracle_calls == 2 + 3 * 2  # initial eval + one duplicate per round


def test_zero_step_with_neighbors_runs_full_length():
    cfg = RunConfig(task="synthetic", task_params={"n": 4}, T=4, K=2, eta=0.0, C=2, seed=3)
    res = run_inversion(cfg)
    assert len(res.trajectory) == 5
    assert not res.converged


def test_oracle_budget_is_respected_up_to_one_round():
    cfg = RunConfig(
        task="synthetic",
        task_params={"n": 6},
        T=50,
        K=5,
        eta=0.05,
        C=3,
        seed=1,
        oracle_budget=20,
    )
    res = run_inversion(cfg)
    # the check runs before each round, so at most one C-candidate batch
    # (m calls each) lands past the line
    assert res.oracle_calls <= 20 + 2 * 3
    assert res.oracle_calls > 0


def test_shared_task_instance_keeps_per_run_accounting():
    task = SyntheticTask(n=6)
    cfg = RunConfig(task="synthetic", task_params={"n": 6}, T=4, K=5, eta=0.05, C=4, seed=9)
    first = run_inversion(cfg, task=task)
    second = run_inversion(cfg, task=task)
    assert trajectory_to_csv(first.trajectory) == trajectory_to_csv(second.trajectory)
    assert first.trajectory[0].oracle_calls == second.trajectory[0].oracle_calls == 2


def test_fresh_instance_runs_are_deterministic():
    cfg = RunConfig(task="synthetic", task_params={"n": 8}, T=6, K=8, eta=0.05, C=5, seed=21)
    a = run_inversion(cfg)
    b = run_inversion(cfg)
    assert trajectory_to_csv(a.trajectory) == trajectory_to_csv(b.trajectory)
    c = run_inversion(RunConfig(**{**cfg.__dict__, "seed": 22}))
    assert trajectory_to_csv(c.trajectory) != trajectory_to_csv(a.trajectory)


def test_single_objective_reduces_to_weighted_sum():
    # with one head the QP is trivial (beta = 1) and both modes follow the
    # same gradient, so the trajectories agree bitwise
    cfg = RunConfig(
        task="surrogate",
        task_params={"n_b": 8, "m": 1, "epochs": 300},
        T=5,
        K=5,
        eta=0.1,
        C=4,
        seed=2,
    )
    a = run_inversion(cfg)
    b = run_inversion(replace(cfg, mode="ls"))
    assert trajectory_to_csv(a.trajectory) == trajectory_to_csv(b.trajectory)


class _GradFailTask(SyntheticTask):
    """Synthetic task whose gradients go non-finite after a set number of
    calls; its numbers depend on its own calls, so it holds a key of its own."""

    def __init__(self, fail_after: int, **kwargs):
        super().__init__(**kwargs)
        self.fail_after = fail_after
        self.grad_calls = 0
        self.stack_key = object()

    def losses_and_gradients(self, X):
        self.grad_calls += 1
        L, G = super().losses_and_gradients(X)
        if self.grad_calls > self.fail_after:
            return L, G * np.nan
        return L, G


def test_numerical_failure_returns_partial_result():
    task = _GradFailTask(fail_after=0, n=4)
    cfg = RunConfig(task="synthetic", task_params={"n": 4}, T=5, K=3, eta=0.05, C=2, seed=0)
    res = run_inversion(cfg, task=task)
    assert res.failed
    assert "round 1" in res.error
    assert len(res.trajectory) == 1  # the evaluated start survives


def test_run_inversion_follows_config_mode():
    # off the diagonal the weighted-sum step d = G lambda differs from the
    # QP's non-dominating step, so the two modes part ways
    cfg = RunConfig(
        task="synthetic", task_params={"n": 4}, weights=np.array([0.9, 0.1]),
        T=3, K=5, eta=0.05, C=2, seed=3,
    )
    epo = run_inversion(cfg)
    ls = run_inversion(replace(cfg, mode="ls"))
    assert epo.config.mode == "epo"
    assert ls.config.mode == "ls"
    assert trajectory_to_csv(ls.trajectory) != trajectory_to_csv(epo.trajectory)


@pytest.mark.parametrize("name", ["synthetic", "ngram-uni", "ngram-bi", "surrogate"])
def test_every_neighbourhood_is_drawn_around_a_point_clamp_made(name):
    # the tasks' neighborhood_discretize neither checks nor clips its vector
    params = {"epochs": 0} if name == "surrogate" else {}
    task = make_task(name, **params)
    clamped, asked = [], []
    clamp, neighbourhood = task.clamp, task.neighborhood_discretize

    def watch_clamp(x):
        clamped.append(clamp(x))
        return clamped[-1]

    def watch_neighbourhood(x, count, rng):
        asked.append(x)
        return neighbourhood(x, count, rng)

    task.clamp, task.neighborhood_discretize = watch_clamp, watch_neighbourhood
    run = run_inversion(RunConfig(task=name, task_params=params, T=8, K=3, C=3, seed=2), task=task)
    assert len(asked) == len(run.trajectory) - 1 > 0
    # each round is drawn around the very vector a clamp made, not a copy
    assert all(any(a is c for c in clamped) for a in asked)


def _descend_every_round(config):
    """The run loop without descent reuse: (trajectory rows, final candidate, rng state)."""
    task = make_task(config.task, **config.task_params)
    weights = search._resolve_weights(config, task.m)
    eta = task.default_eta if config.eta is None else config.eta
    rng = np.random.default_rng(config.seed)
    x = task.random_candidate(rng)
    rows = [(task.candidate_id(x), task.eval_discrete(x).tobytes(), task.oracle_calls)]
    for _ in range(config.T):
        inner = inner_descent(
            task, task.relax(x), weights, eta=eta, rounds=config.K,
            mode=config.mode,
        )
        x, objectives = discretize_select(task, inner.point, weights, config.C, rng)
        rows.append((task.candidate_id(x), objectives.tobytes(), task.oracle_calls))
        if inner.converged:
            break
    return rows, task.candidate_id(x), rng.bit_generator.state


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(
            task="ngram-uni", weights=weight_grid(3, 12)[7], T=12, K=20, eta=0.2, C=10, seed=2
        ),
        RunConfig(
            task="surrogate", task_params={"m": 3, "epochs": 200},
            T=10, K=10, eta=0.1, C=5, seed=1,
        ),
    ],
    ids=["ngram-uni", "surrogate"],
)
def test_reusing_a_stalled_rays_descent_changes_nothing(monkeypatch, config):
    rngs, descended = [], []
    descend_rows = search._descend_rows

    def watch_rows(tasks, *args, **kwargs):
        descended.append(len(tasks))  # 1 when the ray's start moved, 0 when reused
        return descend_rows(tasks, *args, **kwargs)

    def watch_select(task, x, weights, count, rng):
        rngs.append(rng)
        return discretize_select(task, x, weights, count, rng)

    monkeypatch.setattr(search, "_descend_rows", watch_rows)
    monkeypatch.setattr(search, "discretize_select", watch_select)
    run = run_inversion(config)
    rows, final_id, state = _descend_every_round(config)
    # the ray both moves and stalls, so the reuse is exercised
    assert set(descended) == {0, 1}
    assert len(descended) == len(run.trajectory) - 1
    assert [
        (p.candidate_id, p.objectives.tobytes(), p.oracle_calls) for p in run.trajectory
    ] == rows
    assert make_task(config.task, **config.task_params).candidate_id(run.final_candidate) == final_id
    assert rngs[-1].bit_generator.state == state


def test_weight_dimension_mismatch_raises():
    cfg = RunConfig(task="synthetic", weights=np.array([1.0, 1.0, 1.0]), T=1, K=1, C=1)
    with pytest.raises(ValueError, match="3 components"):
        run_inversion(cfg)


# ---------------------------------------------------------------------------
# theory diagnostics
# ---------------------------------------------------------------------------


def _fabricate(r_values, weights, losses=None, C=3):
    """RunResult with a scripted relative-max sequence."""
    w = np.asarray(weights, dtype=np.float64)
    trajectory = []
    for i, r in enumerate(r_values):
        obj = np.asarray(losses[i] if losses is not None else [r / wj for wj in w])
        trajectory.append(
            TrajectoryPoint(
                round_index=i,
                candidate_id=str(i),
                objectives=obj,
                mu=0.0,
                r_check=float(np.max(obj * w)),
                oracle_calls=2 * (i + 1),
                weights=w,
            )
        )
    return RunResult(
        config=RunConfig(C=C),
        weights=w,
        trajectory=trajectory,
        final_candidate=None,
    )


def test_theory_geometric_decay_fit():
    res = _fabricate([1.0, 0.8, 0.7], [1.0, 1.0], C=3)
    rep = theory_diagnostics(res)
    assert rep.admissible_violations == 0
    assert rep.monotone_fraction == 1.0
    bc = rep.bound_check
    assert bc["alpha_hat"] == pytest.approx(0.5)
    assert bc["gamma"] == pytest.approx(0.5)  # (1 - 0.25) / (0.5 * 3)
    assert bc["bound"] == pytest.approx([0.85, 0.85])  # 0.5*0.7 + 0.5*1.0
    assert bc["satisfied"] is True
    assert rep.r_check_sequence == pytest.approx([1.0, 0.8, 0.7])


def test_theory_single_step_gamma_is_exact():
    res = _fabricate([1.0, 0.9], [1.0, 1.0], C=1)
    rep = theory_diagnostics(res)
    bc = rep.bound_check
    assert bc["alpha_hat"] is None  # one drop, no consecutive pair
    assert bc["gamma"] == 1.0  # the ratio cancels exactly at one step
    assert bc["bound"] == pytest.approx([0.9, 0.9])
    assert bc["satisfied"] is True


def test_theory_fitted_ratio_off_the_grid():
    res = _fabricate([1.0, 0.6, 0.44], [1.0, 1.0], C=2)
    rep = theory_diagnostics(res)
    bc = rep.bound_check
    assert bc["alpha_hat"] == pytest.approx(0.4)
    assert bc["gamma"] == pytest.approx(0.7)  # (1 - 0.16) / (0.6 * 2)
    assert bc["bound"] == pytest.approx([0.608, 0.608])
    assert bc["satisfied"] is True


def test_theory_flat_trajectory_has_no_fit():
    res = _fabricate([0.5, 0.5, 0.5], [1.0, 1.0])
    rep = theory_diagnostics(res)
    assert rep.monotone_fraction == 1.0
    assert rep.admissible_violations == 0
    bc = rep.bound_check
    assert bc["alpha_hat"] is None
    assert bc["gamma"] is None
    assert bc["bound"] is None
    assert bc["satisfied"] is None


def test_theory_flags_admissibility_violations():
    res = _fabricate([1.0, 1.2, 1.1], [1.0, 1.0])
    rep = theory_diagnostics(res)
    assert rep.violation_steps == [1]  # 1.2 escaped the box; 1.1 stayed in 1.2's
    assert rep.monotone_fraction == 0.5


def test_theory_violation_is_componentwise():
    # the second objective breaks its own admissible ceiling even though the
    # first improves and the unweighted max falls
    losses = [[0.5, 0.25], [0.4, 0.3]]
    res = _fabricate([0.0, 0.0], [1.0, 2.0], losses=losses)
    rep = theory_diagnostics(res)
    assert rep.r_check_sequence == pytest.approx([0.5, 0.6])
    assert rep.violation_steps == [1]


def test_theory_unit_ratio_limit():
    res = _fabricate([1.0, 0.8, 0.6, 0.4], [1.0, 1.0], C=3)
    rep = theory_diagnostics(res)
    bc = rep.bound_check
    assert bc["alpha_hat"] == pytest.approx(1.0)
    assert bc["gamma"] == 1.0  # steps / N at the alpha -> 1 limit
    assert bc["satisfied"] is True


def test_theory_input_validation():
    res = _fabricate([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        theory_diagnostics(res)
    res2 = _fabricate([1.0, 0.9], [1.0, 1.0], C=0)
    with pytest.raises(ValueError):
        theory_diagnostics(res2)


def test_theory_report_round_trips_to_dict():
    res = _fabricate([1.0, 0.8, 0.7], [1.0, 1.0])
    rep = theory_diagnostics(res)
    d = asdict(rep)
    assert set(d) == {
        "admissible_violations",
        "violation_steps",
        "r_check_sequence",
        "monotone_fraction",
        "bound_check",
    }
    assert d["bound_check"]["n_neighborhood"] == 3


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def _small_cfg(**over):
    base = dict(task="synthetic", task_params={"n": 6}, T=4, K=5, eta=0.05, C=3, seed=5)
    base.update(over)
    return RunConfig(**base)


def test_front_scan_single_ray():
    scan = front_scan(lambda: SyntheticTask(n=6), [DIAG], _small_cfg())
    assert len(scan.rays) == 1
    assert not scan.rays[0].failed
    assert set(scan.metrics) == {"hv", "coverage", "nu_per_ray", "nu_topk", "oracle_calls_total"}
    assert scan.metrics["coverage"] is None
    assert scan.metrics["oracle_calls_total"] == scan.rays[0].oracle_calls
    assert len(scan.archive) >= 1


def test_front_scan_computes_no_theory_diagnostics(monkeypatch):
    # nothing in a ScanResult reads them, so the rays never compute them
    def refuse(*args):
        raise AssertionError("theory_diagnostics called inside a scan")

    monkeypatch.setattr(search, "theory_diagnostics", refuse)
    scan = front_scan(lambda: SyntheticTask(n=6), [DIAG, DIAG[::-1]], _small_cfg())
    assert not any(ray.failed for ray in scan.rays)


def test_front_scan_steps_each_ray_at_its_own_tasks_default(monkeypatch):
    # the factory, not config.task, decides what a ray runs, and so its step
    etas = []

    def spy(*args, eta, **kwargs):
        etas.append(eta)
        return inner_descent(*args, eta=eta, **kwargs)

    monkeypatch.setattr(search, "inner_descent", spy)
    config = RunConfig(task="ngram-uni", T=1, K=1, C=1)
    scan = front_scan(lambda: make_task("synthetic"), weight_grid(2, 2), config)
    assert not any(ray.failed for ray in scan.rays)
    assert etas == [0.05, 0.05]


def test_front_scan_factory_contract():
    with pytest.raises(TypeError):
        front_scan(42, [DIAG], _small_cfg())
    with pytest.raises(ValueError, match="non-empty"):
        front_scan(lambda: SyntheticTask(n=6), [], _small_cfg())
    # a task instance is not a factory
    with pytest.raises(TypeError):
        front_scan(SyntheticTask(n=6), [DIAG], _small_cfg())


@pytest.mark.parametrize(
    "over", [{"T": 0}, {"eta": math.nan}, {"task": "bogus"}, {"weights": np.array([0.6, 0.8])}]
)
def test_front_scan_validates_its_config_before_any_ray(over):
    built = []

    def factory():
        built.append(SyntheticTask(n=6))
        return built[-1]

    with pytest.raises(ValueError):
        front_scan(factory, [[1.0, 1.0]], _small_cfg(**over))
    assert built == []


def test_front_scan_rejects_a_budget_below_one_call_per_ray():
    built = []

    def factory():
        built.append(SyntheticTask(n=6))
        return built[-1]

    rays = weight_grid(2, 8)
    with pytest.raises(ValueError, match="oracle_budget"):
        front_scan(factory, rays, _small_cfg(oracle_budget=7))
    assert built == []
    # one call per ray is the smallest budget a scan takes
    scan = front_scan(factory, rays, _small_cfg(oracle_budget=8))
    assert len(built) == 8
    assert all(ray.oracle_calls == 2 for ray in scan.rays)  # the start point only


def test_front_scan_splits_the_budget_evenly():
    rays = weight_grid(2, 4)
    scan = front_scan(
        lambda: SyntheticTask(n=6), rays, _small_cfg(T=50, oracle_budget=40)
    )
    for ray in scan.rays:
        assert ray.oracle_calls <= 10 + 2 * 3  # per-ray share + one round of slack


def test_front_scan_isolates_factory_failures():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("boom")
        return SyntheticTask(n=6)

    scan = front_scan(flaky, weight_grid(2, 3), _small_cfg())
    assert [r.failed for r in scan.rays] == [False, True, False]
    assert scan.rays[1].error == "boom"
    assert scan.rays[1].trajectory == []
    assert scan.rays[1].final_objectives is None
    assert np.isnan(scan.metrics["nu_per_ray"][1])
    assert scan.metrics["hv"] > 0.0  # surviving rays still summarized
    assert len(scan.archive) >= 1


def test_a_scan_ray_is_a_run_with_the_same_validation():
    cfg = RunConfig(task="synthetic", T=1, K=1, C=1)
    bad, good = np.array([1.0, -1.0]), np.array([0.6, 0.8])
    scan = front_scan(lambda: make_task("synthetic", n=4), [bad, good], cfg)
    with pytest.raises(ValueError) as refused:
        run_inversion(replace(cfg, weights=bad), task=make_task("synthetic", n=4))
    assert scan.rays[0].failed
    assert scan.rays[0].error == str(refused.value)
    assert scan.rays[0].error.startswith("lambda (weights): ")
    assert not scan.rays[1].failed and len(scan.rays[1].trajectory) == 2


def test_a_result_has_failed_exactly_when_it_carries_an_error():
    cfg = RunConfig()
    w = np.array([0.6, 0.8])
    assert RunResult(cfg, w, [], None, error="boom").failed is True
    assert RunResult(cfg, w, [], None, error=None).failed is False


def test_front_scan_keeps_the_partial_result_of_a_numerical_failure():
    tasks = []

    def failing():
        tasks.append(_GradFailTask(fail_after=0, n=6))
        return tasks[-1]

    cfg = _small_cfg()
    scan = front_scan(failing, [DIAG], cfg)
    ray = scan.rays[0]
    assert ray.failed and ray.error.startswith("round 1")
    # the evaluated start is the ray's final point, in hv and in the merge
    start = tasks[0].random_candidate(np.random.default_rng(cfg.seed))
    start_objectives = tasks[0].eval_discrete(start)
    assert np.array_equal(ray.final_objectives, start_objectives)
    assert scan.metrics["hv"] == pytest.approx(float(np.prod(1.0 - start_objectives)))
    assert tasks[0].candidate_id(start) in [e.candidate_id for e in scan.archive]


@pytest.mark.parametrize(
    "build, fail_on, rays, cfg",
    [
        (lambda: SyntheticTask(n=6), 2, weight_grid(2, 4), _small_cfg()),
        (
            lambda: make_task("ngram-uni", l_max=4),
            None,
            weight_grid(3, 3),
            RunConfig(task="ngram-uni", task_params={"l_max": 4}, T=3, K=3, C=3, seed=2),
        ),
    ],
    ids=["m2-with-a-failed-ray", "m3"],
)
def test_front_scan_archive_is_the_front_of_every_trajectory(build, fail_on, rays, cfg):
    built = []

    def factory():
        built.append(None)
        if len(built) == fail_on:
            raise ValueError("boom")
        return build()

    scan = front_scan(factory, rays, cfg)
    assert [r.failed for r in scan.rays] == [i + 1 == fail_on for i in range(len(rays))]
    offered = [p for ray in scan.rays for p in ray.trajectory]
    kept = [offered[int(i)] for i in _reference_front([p.objectives for p in offered])]
    assert len(scan.archive) == len(kept)
    for entry, p in zip(scan.archive, kept):
        assert entry is p  # the ray's own trajectory point, not a copy
    for ray in scan.rays:
        assert all(p.weights is ray.weights for p in ray.trajectory)


def _run_rows(result):
    """Everything a run recorded, as comparable values."""
    points = [
        (
            p.round_index,
            p.candidate_id,
            p.objectives.tobytes(),
            struct.pack("<dd", p.mu, p.r_check),
            p.oracle_calls,
        )
        for p in result.trajectory
    ]
    return points, result.error, result.converged


def _assert_rays_equal_solo_runs(scan, build, rays, config):
    """Ray i of ``scan`` equals a solo run with weights ``rays[i]``, seed
    ``config.seed + i`` and the ray's share of the budget on ``build(i)``."""
    share = config.oracle_budget // len(rays)
    for i, (w, ray) in enumerate(zip(rays, scan.rays)):
        cfg = replace(config, weights=w, seed=config.seed + i, oracle_budget=share)
        assert _run_rows(ray) == _run_rows(run_inversion(cfg, task=build(i))), i


#: Tasks of the lockstep equivalence tests: (name, params).
_LOCKSTEP_TASKS = {
    "synthetic": ("synthetic", {"n": 6}),
    "ngram-uni": ("ngram-uni", {"l_max": 5}),
    "ngram-bi": ("ngram-bi", {"l_max": 5}),
    "surrogate-m2": ("surrogate", {"m": 2, "epochs": 200}),
    "surrogate-m4": ("surrogate", {"m": 4, "epochs": 200}),
}


@pytest.mark.parametrize("mode", ["epo", "ls"])
@pytest.mark.parametrize("key", sorted(_LOCKSTEP_TASKS))
def test_every_ray_of_a_lockstep_scan_equals_its_solo_run(key, mode):
    name, params = _LOCKSTEP_TASKS[key]
    rays = weight_grid(make_task(name, **params).m, 5)
    config = RunConfig(task=name, task_params=params, mode=mode, T=12, K=6, C=4, seed=4)
    scan = front_scan(lambda: make_task(name, **params), rays, config)
    assert not any(ray.failed for ray in scan.rays)
    _assert_rays_equal_solo_runs(scan, lambda i: make_task(name, **params), rays, config)


def test_every_ray_of_a_budgeted_lockstep_scan_equals_its_solo_run():
    rays = weight_grid(2, 6)
    config = _small_cfg(T=40, oracle_budget=6 * 50)
    scan = front_scan(lambda: SyntheticTask(n=6), rays, config)
    assert all(50 <= ray.oracle_calls < 50 + 2 * config.C for ray in scan.rays)
    _assert_rays_equal_solo_runs(scan, lambda i: SyntheticTask(n=6), rays, config)


def test_a_ray_whose_factory_raises_leaves_the_lockstep_rays_unchanged():
    built = []

    def factory():
        built.append(None)
        if len(built) == 3:
            raise ValueError("boom")
        return SyntheticTask(n=6)

    rays = weight_grid(2, 5)
    scan = front_scan(factory, rays, _small_cfg(T=10))
    assert [ray.error for ray in scan.rays] == [None, None, "boom", None, None]
    solo = _small_cfg(T=10)
    for i in (0, 1, 3, 4):
        cfg = replace(solo, weights=rays[i], seed=solo.seed + i)
        assert _run_rows(scan.rays[i]) == _run_rows(run_inversion(cfg, task=SyntheticTask(n=6)))


class _IdFailTask(SyntheticTask):
    """Synthetic task whose ``candidate_id`` raises on its ``fail_on``-th call."""

    def __init__(self, fail_on: int, **kwargs):
        super().__init__(**kwargs)
        self.fail_on = fail_on
        self.id_calls = 0

    def candidate_id(self, candidate):
        self.id_calls += 1
        if self.id_calls == self.fail_on:
            raise RuntimeError("no id")
        return super().candidate_id(candidate)


def test_a_ray_whose_task_raises_partway_leaves_the_lockstep_rays_unchanged():
    # ray 2 names its start and its first two selections, then raises in round 3
    def build(i):
        return _IdFailTask(fail_on=4, n=6) if i == 2 else SyntheticTask(n=6)

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    rays = weight_grid(2, 5)
    config = _small_cfg(T=10)
    scan = front_scan(factory, rays, config)
    assert [ray.error for ray in scan.rays] == [None, None, "no id", None, None]
    assert scan.rays[2].trajectory == [] and built[2].id_calls == 4
    solo = replace(config, weights=rays[2], seed=config.seed + 2)
    with pytest.raises(RuntimeError, match="no id"):
        run_inversion(solo, task=build(2))
    for i in (0, 1, 3, 4):
        cfg = replace(config, weights=rays[i], seed=config.seed + i)
        assert _run_rows(scan.rays[i]) == _run_rows(run_inversion(cfg, task=build(i)))


def test_rays_whose_task_overrides_the_losses_keep_their_own_calls(monkeypatch):
    # _GradFailTask counts its calls and holds a key of its own, so its
    # rays never share a call: each ray fails when its own count runs out,
    # as its solo run does
    formed = []
    form = SyntheticTask.losses_and_gradients
    monkeypatch.setattr(
        SyntheticTask, "losses_and_gradients",
        lambda self, X: formed.append(len(X)) or form(self, X),
    )

    def build(i):
        return _GradFailTask(fail_after=(3, 8, 14, 21, 10_000)[i], n=6)

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    rays = weight_grid(2, 5)
    config = _small_cfg(T=20)
    scan = front_scan(factory, rays, config)
    assert set(formed) == {1}
    assert [ray.failed for ray in scan.rays] == [True, True, True, True, False]
    assert len({len(ray.trajectory) for ray in scan.rays}) == 5
    _assert_rays_equal_solo_runs(scan, build, rays, config)
    for i, task in enumerate(built):
        solo = build(i)
        run_inversion(replace(config, weights=rays[i], seed=config.seed + i), task=solo)
        assert task.grad_calls == solo.grad_calls


def test_a_ray_that_fails_numerically_partway_leaves_the_lockstep_rays_unchanged():
    # ray 2's gradients go non-finite in its fourth computed descent (K = 5)
    def build(i):
        return _GradFailTask(fail_after=17, n=6) if i == 2 else SyntheticTask(n=6)

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    rays = weight_grid(2, 5)
    config = _small_cfg(T=20)
    scan = front_scan(factory, rays, config)
    failed = scan.rays[2]
    assert failed.failed and failed.error.startswith("round 4: non-finite gradients")
    assert len(failed.trajectory) == 4
    assert not any(ray.failed for i, ray in enumerate(scan.rays) if i != 2)
    _assert_rays_equal_solo_runs(scan, build, rays, config)


class _OwnClampTask(SyntheticTask):
    """Synthetic task that clamps with its own method, which raises at the
    start of outer round ``fail_round``: the first clamp after that
    round's relax.  Its clamp depends on its own calls, so it holds a key
    of its own."""

    def __init__(self, fail_round: int | None = None, **kwargs):
        super().__init__(**kwargs)
        self.fail_round = fail_round
        self.relaxed = 0
        self.starting = False
        self.stack_key = object()

    def relax(self, candidate):
        self.relaxed += 1
        self.starting = True
        return super().relax(candidate)

    def clamp(self, x):
        if self.starting and self.relaxed == self.fail_round:
            raise RuntimeError(f"start refused in round {self.relaxed}")
        self.starting = False
        return self.region.project(x)


class _RelaxFailTask(SyntheticTask):
    """Synthetic task whose ``relax`` raises in outer round ``fail_round``."""

    def __init__(self, fail_round: int, **kwargs):
        super().__init__(**kwargs)
        self.fail_round = fail_round
        self.relaxed = 0

    def relax(self, candidate):
        self.relaxed += 1
        if self.relaxed == self.fail_round:
            raise RuntimeError(f"no relaxation in round {self.relaxed}")
        return super().relax(candidate)


def _watch_start_clamps(monkeypatch) -> list:
    """Patch ``TaskContract.clamp`` to record the shape of each call made
    outside ``search._descend_rows``: the scan's start clamps."""
    starts, descending, plain = [], [False], search.TaskContract.clamp
    descend_rows = search._descend_rows

    def watch_clamp(self, x):
        if not descending[0]:
            starts.append(np.shape(x))
        return plain(self, x)

    def watch_rows(*args, **kwargs):
        descending[0] = True
        try:
            return descend_rows(*args, **kwargs)
        finally:
            descending[0] = False

    monkeypatch.setattr(search.TaskContract, "clamp", watch_clamp)
    monkeypatch.setattr(search, "_descend_rows", watch_rows)
    return starts


def test_the_plain_clamp_rays_clamp_their_starts_in_one_call(monkeypatch):
    # rays 0, 2 and 5 share a class and a key, so their starts take one
    # call a round; ray 4 is of another class and clamps its own start with
    # TaskContract.clamp, rays 1 and 3 hold keys of their own and clamp with
    # their own method, ray 3's clamp raises at the start of round 3 and
    # ray 4's relax raises in round 2, and each failing ray carries its
    # solo run's error
    def build(i):
        return {
            1: lambda: _OwnClampTask(n=6),
            3: lambda: _OwnClampTask(fail_round=3, n=6),
            4: lambda: _RelaxFailTask(fail_round=2, n=6),
        }.get(i, lambda: SyntheticTask(n=6))()

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    starts = _watch_start_clamps(monkeypatch)
    rays = weight_grid(2, 6)
    config = _small_cfg(T=6)
    scan = front_scan(factory, rays, config)
    assert starts == [(3, 6), (6,)] + [(3, 6)] * (config.T - 1)  # ray 4 is gone from round 2
    errors = [ray.error for ray in scan.rays]
    assert errors == [None, None, None, "start refused in round 3", "no relaxation in round 2", None]
    for i, message in ((3, "start refused in round 3"), (4, "no relaxation in round 2")):
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_inversion(replace(config, weights=rays[i], seed=config.seed + i), task=build(i))
    for i in (0, 1, 2, 5):
        cfg = replace(config, weights=rays[i], seed=config.seed + i)
        assert _run_rows(scan.rays[i]) == _run_rows(run_inversion(cfg, task=build(i))), i


@dataclass(frozen=True)
class _RefusingBox(Box):
    """A box whose projection refuses any vector with a first coordinate
    above 2.5, stacked or not."""

    def project(self, x):
        if (x[..., 0] > 2.5).any():
            raise ValueError("outside the region")
        return super().project(x)


class _RefusedTask(SyntheticTask):
    """Synthetic task on the refusing box whose relaxed candidate leaves
    it in outer round ``far_round``."""

    region = _RefusingBox(-2.0, 2.0)

    def __init__(self, far_round: int | None = None, **kwargs):
        super().__init__(**kwargs)
        self.far_round = far_round
        self.relaxed = 0

    def relax(self, candidate):
        self.relaxed += 1
        x = super().relax(candidate)
        if self.relaxed == self.far_round:
            x[0] = 3.0
        return x


def test_a_start_clamp_call_that_raises_falls_back_to_each_rays_own(monkeypatch):
    # ray 1's start leaves the region in round 2, so that round's one call
    # raises; the four rays clamp one by one, and only ray 1 fails, with
    # the error of its solo run
    def build(i):
        return _RefusedTask(far_round=2 if i == 1 else None, n=6)

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    starts = _watch_start_clamps(monkeypatch)
    rays = weight_grid(2, 4)
    config = _small_cfg(T=4)
    scan = front_scan(factory, rays, config)
    assert starts == [(4, 6), (4, 6), (6,), (6,), (6,), (6,), (3, 6), (3, 6)]
    assert [ray.error for ray in scan.rays] == [None, "outside the region", None, None]
    with pytest.raises(ValueError, match="^outside the region$"):
        run_inversion(replace(config, weights=rays[1], seed=config.seed + 1), task=build(1))
    for i in (0, 2, 3):
        cfg = replace(config, weights=rays[i], seed=config.seed + i)
        assert _run_rows(scan.rays[i]) == _run_rows(run_inversion(cfg, task=build(i))), i


class _ListKeyTask(SyntheticTask):
    """Synthetic task whose ``stack_key`` is a list, which cannot be hashed."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.stack_key = []


def test_a_ray_whose_stack_key_is_unhashable_fails_alone():
    # rays 1 and 3 hold list keys, so each fails before its first oracle
    # call with an error naming stack_key, as its solo run raises; the four
    # other rays still share their calls and equal their solo runs
    def build(i):
        return _ListKeyTask(n=6) if i in (1, 3) else SyntheticTask(n=6)

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    rays = weight_grid(2, 6)
    config = _small_cfg(T=6)
    scan = front_scan(factory, rays, config)
    message = "stack_key must be hashable, got list"
    assert [ray.error for ray in scan.rays] == [None, message, None, message, None, None]
    assert [built[i].oracle_calls for i in (1, 3)] == [0, 0]
    assert not scan.rays[1].trajectory and not scan.rays[3].trajectory
    with pytest.raises(TypeError, match=f"^{message}$"):
        run_inversion(replace(config, weights=rays[1], seed=config.seed + 1), task=build(1))
    for i in (0, 2, 4, 5):
        cfg = replace(config, weights=rays[i], seed=config.seed + i)
        assert _run_rows(scan.rays[i]) == _run_rows(run_inversion(cfg, task=build(i))), i


class _ShortOracleTask(SyntheticTask):
    """Synthetic task whose oracle returns one loss, not two, from its
    ``after + 1``-th evaluation on."""

    def __init__(self, after=0, **kwargs):
        super().__init__(**kwargs)
        self.after, self.evaluations = after, 0

    def _discrete_losses(self, candidate):
        self.evaluations += 1
        losses = super()._discrete_losses(candidate)
        return losses[:1] if self.evaluations > self.after else losses


_SHORT_ORACLE = "oracle vector has length 1 but the task has 2 objectives"


@pytest.mark.parametrize("after, calls", [(0, 2), (5, 12)])
def test_a_run_whose_oracle_returns_a_wrong_length_vector_raises(after, calls):
    # the vector is checked once the oracle has returned, so it is charged
    task = _ShortOracleTask(after, n=6)
    with pytest.raises(DimensionMismatchError, match=f"^{_SHORT_ORACLE}$"):
        run_inversion(_small_cfg(weights=DIAG), task=task)
    assert task.oracle_calls == calls


def test_a_ray_whose_oracle_returns_a_wrong_length_vector_fails_alone():
    # ray 1's oracle is short from its start, ray 3's from its second round;
    # each fails with the error its solo run raises, and the other rays,
    # the archive and the metrics hold only what the full-length rays made
    def build(i):
        return _ShortOracleTask({1: 0, 3: 4}[i], n=6) if i in (1, 3) else SyntheticTask(n=6)

    built = []

    def factory():
        built.append(build(len(built)))
        return built[-1]

    rays = weight_grid(2, 5)
    config = _small_cfg(T=6)
    scan = front_scan(factory, rays, config)
    assert [ray.error for ray in scan.rays] == [None, _SHORT_ORACLE, None, _SHORT_ORACLE, None]
    assert not scan.rays[1].trajectory and not scan.rays[3].trajectory
    assert all(p.objectives.size == 2 for p in scan.archive)
    for i in (0, 2, 4):
        cfg = replace(config, weights=rays[i], seed=config.seed + i)
        assert _run_rows(scan.rays[i]) == _run_rows(run_inversion(cfg, task=build(i))), i
    for i in (1, 3):
        cfg = replace(config, weights=rays[i], seed=config.seed + i)
        with pytest.raises(DimensionMismatchError, match=f"^{_SHORT_ORACLE}$"):
            run_inversion(cfg, task=build(i))


def test_front_scan_takes_an_array_of_rays():
    rays = weight_grid(2, 3)
    as_list = front_scan(lambda: SyntheticTask(n=6), rays, _small_cfg())
    as_array = front_scan(lambda: SyntheticTask(n=6), np.array(rays), _small_cfg())
    assert as_array.archive.to_csv() == as_list.archive.to_csv()


def test_front_scan_reports_coverage_against_a_reference_front():
    truth = SyntheticTask().true_front(2001)
    scan = front_scan(
        lambda: SyntheticTask(),
        weight_grid(2, 3),
        RunConfig(task="synthetic", T=20, K=10, eta=0.05, C=6, seed=2),
        true_front=truth,
    )
    assert 0.0 <= scan.metrics["coverage"] <= 1.0
    assert scan.metrics["nu_topk"] is not None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_trajectory_csv_layout():
    w = np.full(3, 1.0 / math.sqrt(3.0))
    points = [
        TrajectoryPoint(0, "a", np.array([0.5, 0.25, 0.125]), 0.01, 0.5, 3, w),
        TrajectoryPoint(1, "b", np.array([0.25, 0.2, 0.1]), 0.0, 0.25, 6, w),
    ]
    text = trajectory_to_csv(points)
    lines = text.split("\n")
    assert lines[0] == "round,l_1,l_2,l_3,mu,r_check,oracle_calls"
    assert lines[1] == "0,0.5,0.25,0.125,0.01,0.5,3"
    assert lines[2] == "1,0.25,0.2,0.1,0.0,0.25,6"
    assert text.endswith("\n")


def test_trajectory_csv_of_an_empty_trajectory_raises():
    with pytest.raises(EmptyInputError, match="trajectory is empty"):
        trajectory_to_csv([])


# ---------------------------------------------------------------------------
# the selection path, pinned bit for bit
# ---------------------------------------------------------------------------

#: sha256 of the archive CSV and every trajectory point of the 4-ray scans
#: in ``_scan_digest``.  The synthetic and unigram digests were written at the
#: commit before the inner round's per-call NumPy dispatch was cut.  The m = 4
#: surrogate's was re-recorded when the net's training began to stop at its
#: loss plateau: it is the digest of the earlier code with the net trained
#: for 1550 steps instead of 5000.  It held when training gained momentum:
#: both nets lead these four rays to the same candidates.  It moved when
#: training became L-BFGS, whose better-fitted net leads them elsewhere.
#: The inner-path digests of ``test_relax`` stop at the relaxed vector; these
#: also cover ``discretize_select``'s tie-break key, over 500 evaluated
#: candidates per ray, and at m = 4 the certified QP, the box clamp and the
#: net's gradients.
_SCAN_DIGESTS = {
    "synthetic": (
        "4b67e6283f343916bbfbd8fdc15c0544"
        "6d9373f51b2ca68ee4d4d19216413ec3"
    ),
    "ngram-uni": (
        "bc2e06dfddac87f9fa0bb47c5faaa1ed"
        "4d7c365c891dbfd1134248cc85db8173"
    ),
    "surrogate-m4": (
        "e712d2ed4e51cf5891c377fd4a34d67b"
        "531acb877af415a4de7174508631ee8b"
    ),
}


#: The scanned task and its parameters, by ``_SCAN_DIGESTS`` key.
_SCAN_TASKS = {
    "synthetic": ("synthetic", {}),
    "ngram-uni": ("ngram-uni", {}),
    "surrogate-m4": ("surrogate", {"m": 4}),
}


def _scan_digest(key):
    name, params = _SCAN_TASKS[key]
    task = make_task(name, **params)
    config = RunConfig(
        task=name, task_params=params, T=50, K=20, eta=task.default_eta, C=10, seed=3
    )
    scan = front_scan(lambda: make_task(name, **params), weight_grid(task.m, 4), config)
    digest = hashlib.sha256(scan.archive.to_csv().encode())
    for ray in scan.rays:
        for p in ray.trajectory:
            digest.update(struct.pack("<q", p.round_index))
            digest.update(p.candidate_id.encode() + b"\0")
            digest.update(p.objectives.tobytes())
            digest.update(struct.pack("<ddq", p.mu, p.r_check, p.oracle_calls))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(_SCAN_DIGESTS))
def test_front_scan_selection_path_is_pinned(name):
    assert _scan_digest(name) == _SCAN_DIGESTS[name]


def test_surrogate_scan_recovers_the_exact_discrete_front():
    # the m = 4 task's exact front over all 2**16 bit vectors, and the
    # 12-ray scan's archive HV over it, which was 0.9871 / 0.9855 with plain
    # gradient training, 0.9871 / 0.9820 with momentum and is 0.9902 /
    # 0.9906 with L-BFGS
    task = make_task("surrogate", m=4)
    bits = (np.arange(2**16)[:, None] >> np.arange(16)) & 1
    losses = np.stack([task.oracle.losses(x) for x in bits])
    front = losses[exact_discrete_front(losses)]
    assert front.shape == (49, 4)
    exact = hypervolume(front, np.ones(4))
    assert exact == pytest.approx(0.9812, abs=1e-4)
    for seed in (1, 2):
        config = RunConfig(
            task="surrogate", task_params={"m": 4}, T=50, K=20, eta=0.1, C=10, seed=seed
        )
        scan = front_scan(lambda: make_task("surrogate", m=4), weight_grid(4, 12), config)
        assert hypervolume(scan.archive.objectives_array(), np.ones(4)) / exact >= 0.98
