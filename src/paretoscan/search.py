"""Outer optimization drivers and theory diagnostics.

A run repeats relax -> inner descent -> discretize/select for one weight
ray, logging one ``TrajectoryPoint`` per outer iteration.  A scan runs one
ray per weight vector from a deterministic per-ray seed, all rays through
one outer round at a time with the same per-round step, keeps each ray's
RunResult, builds one Pareto archive of every ray's trajectory points (the
start point and the candidate selected in each outer round) that keeps the
surviving points themselves, and summarizes front quality.
Diagnostics check the run's loss path against the descent theory: each
step should stay inside the previous admissible box (componentwise
l_j <= r_check / lambda_j), the weighted relative max should fall
monotonically, and the final point should satisfy the geometric-decay
bound implied by the fitted per-step decay ratio.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import qp
from .core import EmptyInputError, ParetoArchive, TrajectoryPoint, as_weights, build_archive
from .metrics import (
    UnsupportedDimensionError,
    front_coverage,
    hypervolume,
    nonuniformity_report,
)
from .relax import (
    InnerResult,
    NumericalFailureError,
    TaskContract,
    _descend_rows,
    _share_key,
    discretize_select,
    inner_descent,
)
from .tasks import TASK_NAMES, make_task
from .weights import lift_positive

__all__ = [
    "RunConfig",
    "RunResult",
    "TheoryReport",
    "ScanResult",
    "run_inversion",
    "front_scan",
    "theory_diagnostics",
    "trajectory_to_csv",
]

#: Slack for admissible-set and monotonicity comparisons.
_THEORY_TOL = 1e-9


def _finite_non_negative(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        return bool(np.isfinite(value)) and value >= 0
    except TypeError:
        return False


@dataclass
class RunConfig:
    """Settings for one optimization run.

    ``oracle_budget`` of 0 means unlimited; ``eta=None`` picks the task's
    ``default_eta``; ``weights=None`` picks the uniform ray.  ``eta=0``
    is allowed and yields a constant trajectory (useful as a control).
    """

    task: str = "synthetic"
    task_params: dict = field(default_factory=dict)
    mode: str = "epo"
    weights: np.ndarray | None = None
    T: int = 50
    K: int = 20
    eta: float | None = None
    C: int = 10
    oracle_budget: int = 0
    seed: int = 0

    _ALIASES = {"lambda": "weights", "t": "T", "k": "K", "c": "C", "budget": "oracle_budget"}

    @property
    def epsilon(self) -> float:
        """The balance threshold of the "epo" direction, the constant ``qp.EPSILON``."""
        return qp.EPSILON

    def validate(self) -> None:
        if self.task not in TASK_NAMES:
            raise ValueError(f"task must be one of {', '.join(TASK_NAMES)}, got {self.task!r}")
        if self.mode not in ("epo", "ls"):
            raise ValueError(f"mode must be 'epo' or 'ls', got {self.mode!r}")
        for name in ("T", "K", "C", "oracle_budget", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("T", "K", "C"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.eta is not None and not _finite_non_negative(self.eta):
            raise ValueError(f"eta must be a finite, non-negative number, got {self.eta!r}")
        if self.weights is not None:
            try:
                w = np.asarray(self.weights, dtype=np.float64)
                if w.ndim != 1:
                    raise ValueError("must be a flat list of numbers")
                lift_positive(w)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"lambda (weights): {exc}") from None
        if self.oracle_budget < 0:
            raise ValueError("oracle_budget must be non-negative (0 = unlimited)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def field_values(cls, data: dict) -> dict:
        """``data``'s values keyed by the fields their keys name, through the
        lambda/T/K/C/budget aliases.

        Raises:
            ValueError: For a key that names no field, or for two keys that
                name one field (``"T"`` and ``"t"``), naming both keys.
        """
        values, keys = {}, {}
        fields = set(cls.__dataclass_fields__)
        for key, value in data.items():
            name = cls._ALIASES.get(key if key in cls._ALIASES else key.lower(), key)
            if name not in fields or name.startswith("_"):
                raise ValueError(f"unknown config key {key!r}")
            if name in keys:
                raise ValueError(f"{name}: set by both {keys[name]!r} and {key!r}")
            keys[name], values[name] = key, value
        return values

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build from a JSON-style dict (see :meth:`field_values`)."""
        cfg = cls(**cls.field_values(data))
        cfg.validate()
        if cfg.weights is not None:
            cfg.weights = np.asarray(cfg.weights, dtype=np.float64)
        return cfg


@dataclass
class RunResult:
    """Everything produced by one run, including the partial state on failure.

    A run that failed carries its ``error``.  A scan ray whose task factory
    or run raised has an empty trajectory and no final candidate.
    """

    config: RunConfig
    weights: np.ndarray
    trajectory: list[TrajectoryPoint]
    final_candidate: object
    converged: bool = False
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def oracle_calls(self) -> int:
        return self.trajectory[-1].oracle_calls if self.trajectory else 0

    @property
    def final_objectives(self) -> np.ndarray | None:
        return self.trajectory[-1].objectives if self.trajectory else None


@dataclass
class TheoryReport:
    """Descent-theory diagnostics for one trajectory.

    ``bound_check`` evaluates the geometric-decay bound
    (gamma * r_star + (1 - gamma) * r_0) / lambda_j with
    gamma = (1 - alpha_hat^T) / ((1 - alpha_hat) * N) over the steps
    actually taken; it is observational (r_star is the best observed
    relative max, not the unknown optimum).
    """

    admissible_violations: int
    violation_steps: list[int]
    r_check_sequence: list[float]
    monotone_fraction: float
    bound_check: dict


def _resolve_weights(config: RunConfig, m: int) -> np.ndarray:
    if config.weights is None:
        w = np.full(m, 1.0 / np.sqrt(m))
    else:
        w = np.asarray(config.weights, dtype=np.float64)
        if w.size != m:
            raise ValueError(
                f"weight vector has {w.size} components but the task has {m} objectives"
            )
    return lift_positive(w)


def _record(
    task: TaskContract,
    candidate,
    objectives: np.ndarray,
    weights: np.ndarray,
    round_index: int,
    spent: int,
) -> TrajectoryPoint:
    """The point of one evaluated candidate, from the run's checked vectors."""
    weighted = objectives * weights
    try:
        mu = qp._profile(weighted, weights)[0]
    except qp.DegenerateLossError:
        mu = float("nan")
    return TrajectoryPoint(
        round_index=round_index,
        candidate_id=task.candidate_id(candidate),
        objectives=objectives,
        mu=mu,
        r_check=float(weighted.max()),
        oracle_calls=spent,
        weights=weights,
    )


@dataclass
class _Ray:
    """One run between outer rounds: what :func:`_advance` steps.

    ``spent`` counts the oracle calls of the ray's own evaluations, so
    runs that share a task instance keep their own accounting.  ``inner``
    is the last round's descent, which the next round reuses while the
    candidate stands still.
    """

    config: RunConfig
    task: TaskContract
    weights: np.ndarray
    eta: float
    rng: np.random.Generator
    candidate: object
    trajectory: list[TrajectoryPoint]
    spent: int
    inner: InnerResult | None = None
    converged: bool = False
    error: str | None = None
    failure: Exception | None = None

    def running(self) -> bool:
        """Whether the ray takes another round: it has not converged,
        failed numerically (``error``), raised (``failure``) or met its
        oracle budget."""
        budget = self.config.oracle_budget
        if self.converged or self.error is not None or self.failure is not None:
            return False
        return not (budget and self.spent >= budget)

    def result(self) -> RunResult:
        """The run's result; a raised run keeps only its error text, as a
        scan records it."""
        if self.failure is not None:
            return RunResult(self.config, self.config.weights, [], None, error=str(self.failure))
        return RunResult(
            config=self.config,
            weights=self.weights,
            trajectory=self.trajectory,
            final_candidate=self.candidate,
            converged=self.converged,
            error=self.error,
        )


def _start(config: RunConfig, task: TaskContract) -> _Ray:
    """A run of a validated ``config`` on ``task``, at its evaluated start
    drawn from the seeded stream.

    Raises:
        TypeError: If the task's ``stack_key`` is unhashable, so that no
            later round groups the ray by it.
    """
    try:
        hash(_share_key(task))
    except TypeError as exc:
        raise TypeError(
            f"stack_key must be hashable, got {type(task.stack_key).__name__}"
        ) from exc
    weights = _resolve_weights(config, task.m)
    eta = task.default_eta if config.eta is None else config.eta
    rng = np.random.default_rng(config.seed)
    candidate = task.random_candidate(rng)
    calls = task.oracle_calls
    objectives = task.eval_discrete(candidate)
    spent = task.oracle_calls - calls
    start = _record(task, candidate, objectives, weights, 0, spent)
    return _Ray(config, task, weights, eta, rng, candidate, [start], spent)


def _advance(ray: _Ray, t: int, descent) -> None:
    """Outer round ``t`` of one ray: descend, discretize, record.

    ``descent`` is the ray's descent this round from :func:`_descents`,
    or the exception that stopped it, raised here in the descent's place.
    The round's :func:`inner_descent` call hands the descent back
    unclamped; it keeps one call per ray per completed round, which the
    benchmark's traced counts read.
    """
    task, config = ray.task, ray.config
    try:
        if isinstance(descent, Exception):
            raise descent
        inner = inner_descent(
            task,
            descent.start,
            ray.weights,
            eta=ray.eta,
            rounds=config.K,
            mode=config.mode,
            previous=descent,
        )
        calls = task.oracle_calls
        candidate, objectives = discretize_select(
            task, inner.point, ray.weights, config.C, ray.rng
        )
        spent = ray.spent + task.oracle_calls - calls
        point = _record(task, candidate, objectives, ray.weights, t, spent)
    except NumericalFailureError as exc:
        ray.error = f"round {t}: {exc}"
        return
    except Exception as exc:
        ray.failure = exc
        return
    ray.spent, ray.candidate, ray.inner = spent, candidate, inner
    ray.trajectory.append(point)
    ray.converged = inner.converged


def _clamp_starts(rays: list[_Ray], relaxed: dict) -> dict:
    """Each ray's clamped start from its relaxed candidate ``relaxed[j]``,
    or the exception its clamp raised, by ray index.

    The candidates of two or more rays whose tasks share a key
    (:func:`relax._share_key`) and that share a shape and dtype are
    clamped in one call on their stack, made on the first ray's task.
    Every other ray clamps its own, and so does every ray of a stack whose
    call raises or returns another shape, so only a raising ray fails,
    with its own error.
    """
    out: dict = {}
    groups: dict = {}
    for j, x in relaxed.items():
        if isinstance(x, np.ndarray) and x.ndim == 1:
            groups.setdefault((_share_key(rays[j].task), x.shape, x.dtype), []).append(j)
        else:
            groups[j] = [j]
    for ids in groups.values():
        if len(ids) > 1:
            X = np.array([relaxed[j] for j in ids])
            try:
                clamped = rays[ids[0]].task.clamp(X)
            except Exception:
                clamped = None
            if isinstance(clamped, np.ndarray) and clamped.shape == X.shape:
                out.update(zip(ids, clamped))
                continue
        for j in ids:
            try:
                out[j] = rays[j].task.clamp(relaxed[j])
            except Exception as exc:
                out[j] = exc
    return out


def _descents(rays: list[_Ray]) -> list:
    """Each ray's descent this round, or the exception that stopped it.

    Each ray's candidate is relaxed and clamped once, the rays whose tasks
    share a key in one call (:func:`_clamp_starts`).  A
    descent depends only on its clamped start, so a ray whose start equals
    its last descent's reuses that descent; the other rays descend in one
    :func:`_descend_rows` call, each on its own task.
    """
    out: list = [None] * len(rays)
    relaxed = {}
    for j, ray in enumerate(rays):
        try:
            relaxed[j] = ray.task.relax(ray.candidate)
        except Exception as exc:
            out[j] = exc
    moved, starts = [], []
    for j, start in sorted(_clamp_starts(rays, relaxed).items()):
        ray = rays[j]
        if isinstance(start, Exception):
            out[j] = start
        elif ray.inner is not None and np.array_equal(ray.inner.start, start):
            out[j] = ray.inner
        else:
            moved.append(j)
            starts.append(start)
    config = rays[0].config
    rows = _descend_rows(
        [rays[j].task for j in moved],
        starts,
        [rays[j].weights for j in moved],
        [rays[j].eta for j in moved],
        rounds=config.K,
        mode=config.mode,
    )
    for j, row in zip(moved, rows):
        out[j] = row
    return out


def _lockstep(rays: list[_Ray], rounds: int) -> None:
    """Run every ray to its end, all of them through one outer round at a
    time, for at most ``rounds`` rounds; the rays share K, C and mode."""
    for t in range(1, rounds + 1):
        live = [ray for ray in rays if ray.running()]
        if not live:
            return
        for ray, descent in zip(live, _descents(live)):
            _advance(ray, t, descent)


def run_inversion(config: RunConfig, *, task: TaskContract | None = None) -> RunResult:
    """Run the relax-descend-discretize loop along one weight ray.

    Args:
      config: Run settings, validated here; ``config.mode`` picks the
        descent direction: "epo" for the non-dominating QP direction, "ls"
        for the linearly weighted baseline d = G lambda.
      task: Optional pre-built task instance (otherwise built from config).

    Returns:
      RunResult with the per-iteration trajectory from a start drawn from
      the seeded stream, and the final candidate.  Numerical failures abort
      the loop and return the partial result with ``error`` set.
    """
    config.validate()
    if task is None:
        task = make_task(config.task, **config.task_params)
    ray = _start(config, task)
    _lockstep([ray], config.T)
    if ray.failure is not None:
        raise ray.failure
    return ray.result()


def theory_diagnostics(result: RunResult) -> TheoryReport:
    """Check a finished trajectory against the descent theory.

    Args:
      result: A run with at least two trajectory records; its ray is
        ``result.weights``, and its discretization count C is the
        neighborhood-size bound N of the decay bound.

    Returns:
      TheoryReport.  The decay ratio ``alpha_hat`` is the median of
      consecutive-step ratios over strictly decreasing pairs and is None
      (bound not applicable) when no such pair exists, except in the exact
      one-step case where gamma = 1/N regardless.
    """
    if len(result.trajectory) < 2:
        raise ValueError("theory diagnostics need a trajectory of length >= 2")
    wv = as_weights(result.weights)
    losses = [p.objectives for p in result.trajectory]
    r_seq = [p.r_check for p in result.trajectory]
    steps = len(r_seq) - 1

    violations = []
    for t in range(steps):
        bound = r_seq[t] / wv + _THEORY_TOL
        if np.any(losses[t + 1] > bound):
            violations.append(t + 1)

    monotone = sum(1 for t in range(steps) if r_seq[t + 1] <= r_seq[t] + _THEORY_TOL)
    monotone_fraction = monotone / steps

    drops = np.diff(r_seq) * -1.0  # positive where r_check strictly fell
    ratios = [
        drops[t + 1] / drops[t]
        for t in range(steps - 1)
        if drops[t] > 0.0 and drops[t + 1] > 0.0
    ]
    alpha_hat = float(np.median(ratios)) if ratios else None

    N = result.config.C
    if N < 1:
        raise ValueError("neighborhood bound must be at least 1")
    gamma: float | None
    if steps == 1:
        gamma = 1.0 / N  # (1 - alpha) / ((1 - alpha) N), exact for any alpha
    elif alpha_hat is None:
        gamma = None
    elif abs(1.0 - alpha_hat) < 1e-12:
        gamma = steps / N  # limit of the geometric sum at alpha -> 1
    else:
        gamma = (1.0 - alpha_hat**steps) / ((1.0 - alpha_hat) * N)

    r_star = float(min(r_seq))
    r_zero = float(r_seq[0])
    bound_check: dict = {
        "alpha_hat": alpha_hat,
        "gamma": gamma,
        "n_neighborhood": int(N),
        "steps": steps,
        "r_star": r_star,
        "r_zero": r_zero,
        "bound": None,
        "final_losses": [float(v) for v in losses[-1]],
        "satisfied": None,
    }
    if gamma is not None:
        level = gamma * r_star + (1.0 - gamma) * r_zero
        bound_vec = level / wv
        bound_check["bound"] = [float(v) for v in bound_vec]
        bound_check["satisfied"] = bool(np.all(losses[-1] <= bound_vec + _THEORY_TOL))

    return TheoryReport(
        admissible_violations=len(violations),
        violation_steps=violations,
        r_check_sequence=[float(v) for v in r_seq],
        monotone_fraction=float(monotone_fraction),
        bound_check=bound_check,
    )


@dataclass
class ScanResult:
    """The rays' runs, the Pareto archive of their points and summary metrics.

    Every ``archive`` entry is one of the ``rays[k].trajectory`` points
    itself, not a copy.
    """

    archive: ParetoArchive
    rays: list[RunResult]
    metrics: dict


def front_scan(
    task_factory,
    weight_list: list,
    config: RunConfig,
    *,
    true_front=None,
) -> ScanResult:
    """Scan a weight grid: one seeded run per ray, pooled into one archive.

    The rays run in lockstep.  Before round 1 the factory is called once
    per ray, in ray order, and each ray starts as :func:`run_inversion`
    starts a run, with the same validation.  Every outer round then takes
    each live ray through the per-round step a run takes: each ray's
    start is clamped once, in one call for the rays whose tasks share a
    class and a ``stack_key``, a ray whose clamped start did not move
    reuses its last descent, and every other ray descends in one
    ``relax._descend_rows`` call, each on its own task.  That call groups
    its rays once: three or more rays whose tasks share a class and a key
    make a stack that keeps its arrays across the inner rounds, takes its
    losses from one call per round and steps at once: one QP pass and one
    clamp for all of them; every other ray steps alone.  Ray i equals the
    solo run of its settings bit for bit.

    Args:
      task_factory: Zero-argument callable building a fresh task per ray.
        The factory, not ``config.task``, decides what each ray runs, and a
        ray with ``config.eta`` None steps at its own task's ``default_eta``.
      weight_list: Non-empty sequence of weight vectors (a list or an array).
      config: Per-ray settings; ray i runs as ``run_inversion`` would with
        its weight vector, seed ``config.seed + i`` and an even share of
        ``config.oracle_budget``.  ``config.weights`` must be None, and a
        non-zero budget must allow one call per ray.
      true_front: Optional reference front for coverage.

    Returns:
      ScanResult; ``rays`` holds each ray's RunResult in grid order, and
      ``archive`` the trajectory points themselves that ``core.build_archive``
      keeps, offered in ray order and in each ray in round order.
      ``metrics`` holds hv against the unit corner, coverage within
      distance 0.05 of the reference front (None without one), nu_per_ray,
      nu_topk (mean of the 5 best rays' non-uniformity) and
      oracle_calls_total.  hv and coverage summarize the per-ray final
      solutions — the points the scan actually returns, one per weight —
      while the archive additionally keeps every per-iteration selection
      as a trace.  A ray whose task factory or run raises, such as one
      whose weights the run's validation refuses, is recorded as failed
      with the exception's text and an empty trajectory, so it adds
      nothing to the archive.
      A ray stopped by a NumericalFailureError is recorded as failed too,
      but keeps its partial trajectory: its points join the archive and
      its last point counts in hv.

    Raises:
      ValueError: Before any ray runs, for an empty ``weight_list``, an
        invalid ``config``, ``config.weights`` set, or an ``oracle_budget``
        below the ray count.
    """
    if len(weight_list) == 0:
        raise ValueError("weight_list must be non-empty")
    if not callable(task_factory):
        raise TypeError("task_factory must be a zero-argument callable")
    config.validate()
    if config.weights is not None:
        raise ValueError("weights must be None for a scan: each ray sets its own")
    if 0 < config.oracle_budget < len(weight_list):
        raise ValueError(
            f"oracle_budget {config.oracle_budget} is below one oracle call per ray "
            f"({len(weight_list)} rays); use at least {len(weight_list)} or 0 for unlimited"
        )

    per_ray_budget = config.oracle_budget // len(weight_list)
    runs: list[_Ray | RunResult] = []
    for i, w in enumerate(weight_list):
        w = np.asarray(w, dtype=np.float64)
        cfg = replace(config, weights=w, seed=config.seed + i, oracle_budget=per_ray_budget)
        try:
            task = task_factory()
            cfg.validate()
            runs.append(_start(cfg, task))
        except Exception as exc:  # per-ray isolation: record and continue
            runs.append(RunResult(cfg, w, [], None, error=str(exc)))
    _lockstep([run for run in runs if isinstance(run, _Ray)], config.T)
    rays = [run if isinstance(run, RunResult) else run.result() for run in runs]
    archive = build_archive(result.trajectory for result in rays)

    finals = np.array(
        [r.final_objectives for r in rays if r.final_objectives is not None]
    )
    if finals.size == 0:
        hv = 0.0
    else:
        try:
            hv = hypervolume(finals, np.ones(finals.shape[1]))
        except UnsupportedDimensionError:
            hv = float("nan")
    coverage = (
        front_coverage(finals, true_front)
        if true_front is not None and finals.size
        else None
    )
    nu_per_ray = [r.trajectory[-1].mu if r.trajectory else float("nan") for r in rays]
    finite_mu = [v for v in nu_per_ray if np.isfinite(v)]
    metrics = {
        "hv": float(hv),
        "coverage": coverage,
        "nu_per_ray": nu_per_ray,
        "nu_topk": nonuniformity_report(finite_mu) if finite_mu else None,
        "oracle_calls_total": int(sum(r.oracle_calls for r in rays)),
    }
    return ScanResult(archive=archive, rays=rays, metrics=metrics)


def trajectory_to_csv(trajectory: list[TrajectoryPoint]) -> str:
    """Serialize an outer trajectory: round, l_1..l_m, mu, r_check, oracle_calls.

    m is the first point's objective count; an empty trajectory raises
    EmptyInputError.
    """
    if not trajectory:
        raise EmptyInputError("trajectory is empty")
    m = trajectory[0].objectives.size
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["round"] + [f"l_{i + 1}" for i in range(m)] + ["mu", "r_check", "oracle_calls"]
    )
    for p in trajectory:
        writer.writerow(
            [str(p.round_index)]
            + [repr(float(v)) for v in p.objectives]
            + [repr(float(p.mu)), repr(float(p.r_check)), str(p.oracle_calls)]
        )
    return buf.getvalue()
