"""Command-line front end: run one ray or scan a front.

Configuration precedence, lowest to highest: built-in defaults, then a
JSON config file (``--config``), then explicit flags, then the
``PARETO_SEED`` environment variable (seed only).  All artifacts are
written inside the ``-o`` directory; nothing else is touched.

Exit codes: 0 success, 1 configuration error (offending keys are listed on
stderr), 2 numerical failure during optimization or a command line the
parser rejects.  Flags must be spelled in full: a prefix such as ``--budg``
is an unknown argument, not ``--budget``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .search import (
    RunConfig,
    front_scan,
    run_inversion,
    theory_diagnostics,
    trajectory_to_csv,
)
from .svgplot import render_front
from .tasks import TASK_NAMES, make_task
from .weights import lift_positive, load_weights_csv, weight_grid

__all__ = ["main"]

_TASK_PARAM_FLAGS = ("n", "l_max", "n_b")


class _ConfigError(Exception):
    """Invalid configuration; carries one message per offending key."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", choices=TASK_NAMES, default=None)
    parser.add_argument("--mode", choices=("epo", "ls"), default=None)
    parser.add_argument(
        "--lambda", dest="weights", default=None, metavar="W1,W2,...",
        help="comma-separated weight vector (run only; scan takes --weights)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("-T", type=int, default=None, help="outer iterations")
    parser.add_argument("-K", type=int, default=None, help="inner descent rounds")
    parser.add_argument("--eta", type=float, default=None, help="step size")
    parser.add_argument("-C", type=int, default=None, help="discretization candidates")
    parser.add_argument(
        "--budget", type=int, default=None, help="oracle-call budget (0 = unlimited)"
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("-o", "--out", default=None, help="output directory")
    parser.add_argument("--verbose", action="store_true")
    for name in _TASK_PARAM_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoscan",
        description="Discrete multi-objective optimization by Pareto inversion.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="optimize along a single weight ray", allow_abbrev=False
    )
    _add_common(run_p)

    scan_p = sub.add_parser(
        "scan", help="scan a weight grid and merge the front", allow_abbrev=False
    )
    _add_common(scan_p)
    scan_p.add_argument(
        "--weights", dest="weight_count", type=int, default=None,
        help="number of generated weight rays",
    )
    scan_p.add_argument("--weights-file", default=None, help="CSV of weight rays")

    return parser


def _parse_weights_flag(text: str) -> np.ndarray:
    try:
        values = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise _ConfigError([f"lambda: not a comma-separated float list: {text!r}"])
    return values


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise _ConfigError([f"config: file not found: {path}"])
    except OSError as exc:
        raise _ConfigError([f"config: cannot read {path}: {exc.strerror}"])
    except UnicodeDecodeError:
        raise _ConfigError([f"config: not UTF-8 text: {path}"])
    except json.JSONDecodeError as exc:
        raise _ConfigError([f"config: invalid JSON: {exc}"])
    if not isinstance(data, dict):
        raise _ConfigError(["config: top level must be a JSON object"])
    return data


def _assemble_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, flags and environment into a RunConfig."""
    merged: dict = {}
    problems: list[str] = []

    if args.config:
        # the file's keys name their fields before any flag overrides one
        try:
            merged = RunConfig.field_values(_load_config_file(args.config))
        except ValueError as exc:
            raise _ConfigError([str(exc)])
        task_params = merged.pop("task_params", None)
        if task_params is not None:
            if not isinstance(task_params, dict):
                problems.append("task_params: must be an object")
            else:
                merged["task_params"] = dict(task_params)

    for name in ("task", "mode", "T", "K", "eta", "C", "seed"):
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if args.budget is not None:
        merged["oracle_budget"] = args.budget
    if args.weights is not None:
        merged["weights"] = _parse_weights_flag(args.weights)

    params = dict(merged.get("task_params", {}))
    for name in _TASK_PARAM_FLAGS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if params:
        merged["task_params"] = params

    env_seed = os.environ.get("PARETO_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            problems.append(f"PARETO_SEED: not an integer: {env_seed!r}")

    if problems:
        raise _ConfigError(problems)
    try:
        return RunConfig.from_dict(merged)
    except (ValueError, TypeError) as exc:
        raise _ConfigError([str(exc)])


def _require_out(args: argparse.Namespace, artifacts: tuple[str, ...]) -> Path:
    if not args.out:
        raise _ConfigError(["out: output directory (-o) is required"])
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _ConfigError([f"out: cannot create directory {out}: {exc.strerror}"])
    # Writing an artifact over a directory would only fail after the run.
    for name in artifacts:
        path = out / name
        if path.exists() and not path.is_file():
            raise _ConfigError([f"out: {path} exists and is not a regular file"])
    return out


def _write_text(path: Path, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    path.write_text(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True))


def _make_task_checked(config: RunConfig):
    try:
        return make_task(config.task, **config.task_params)
    except (TypeError, ValueError) as exc:
        raise _ConfigError([f"task: {exc}"])


def _cmd_run(args: argparse.Namespace) -> int:
    config = _assemble_config(args)
    out = _require_out(args, ("trajectory.csv", "metrics.json", "theory.json"))
    task = _make_task_checked(config)
    if config.weights is not None and np.asarray(config.weights).size != task.m:
        raise _ConfigError(
            [
                f"lambda: got {np.asarray(config.weights).size} components "
                f"but task {config.task!r} has {task.m} objectives"
            ]
        )
    start = time.perf_counter()
    result = run_inversion(config, task=task)
    wallclock_ms = (time.perf_counter() - start) * 1e3
    if args.verbose:
        print(
            f"{config.mode} run: {len(result.trajectory) - 1} outer rounds, "
            f"{result.oracle_calls} oracle calls",
            file=sys.stderr,
        )

    _write_text(out / "trajectory.csv", trajectory_to_csv(result.trajectory))
    last = result.trajectory[-1]
    _write_json(
        out / "metrics.json",
        {
            "final_losses": last.objectives,
            "mu": last.mu,
            "r_check": last.r_check,
            "oracle_calls": result.oracle_calls,
            "rounds": len(result.trajectory) - 1,
            "converged": result.converged,
            "failed": result.failed,
            "wallclock_ms": wallclock_ms,
        },
    )
    theory = (
        asdict(theory_diagnostics(result))
        if len(result.trajectory) >= 2
        else {"note": "trajectory too short for diagnostics"}
    )
    _write_json(out / "theory.json", theory)
    if result.failed:
        print(f"numerical failure: {result.error}", file=sys.stderr)
        return 2
    return 0


def _scan_weights(args: argparse.Namespace, m: int) -> list[np.ndarray]:
    if args.weights_file:
        if args.weight_count is not None:
            raise _ConfigError(["weights: give a ray count or a weights file, not both"])
        try:
            rays = load_weights_csv(args.weights_file)
        except (OSError, ValueError) as exc:
            raise _ConfigError([f"weights-file: {exc}"])
        for i, w in enumerate(rays):
            if w.size != m:
                raise _ConfigError(
                    [f"weights-file: row {i + 2} has {w.size} components, task needs {m}"]
                )
            try:
                lift_positive(w)  # the check RunConfig.validate makes of --lambda
            except ValueError as exc:
                raise _ConfigError([f"weights-file: row {i + 2}: {exc}"])
        return rays
    try:
        return weight_grid(m, args.weight_count if args.weight_count is not None else 50)
    except ValueError as exc:
        raise _ConfigError([f"weights: {exc}"])


def _cmd_scan(args: argparse.Namespace) -> int:
    config = _assemble_config(args)
    if config.weights is not None:
        raise _ConfigError(["lambda: scan takes its rays from --weights or --weights-file"])
    out = _require_out(args, ("metrics.json", "archive.csv", "front.svg"))
    probe = _make_task_checked(config)
    rays = _scan_weights(args, probe.m)
    truth = probe.true_front(400) if hasattr(probe, "true_front") else None

    start = time.perf_counter()
    try:
        scan = front_scan(
            lambda: make_task(config.task, **config.task_params),
            rays,
            config,
            true_front=truth,
        )
    except ValueError as exc:
        # The config is valid and carries no weights, so what is left for
        # front_scan to refuse, before any ray runs, is a budget below the
        # ray count.
        raise _ConfigError([f"budget: {exc}"])
    wallclock_ms = (time.perf_counter() - start) * 1e3
    if args.verbose:
        for i, ray in enumerate(scan.rays):
            status = "failed" if ray.failed else "ok"
            print(
                f"ray {i}: {status}, calls={ray.oracle_calls}",
                file=sys.stderr,
            )

    _write_json(
        out / "metrics.json",
        {
            **scan.metrics,
            "rays_failed": sum(1 for r in scan.rays if r.failed),
            "wallclock_ms": wallclock_ms,
        },
    )
    if len(scan.archive):
        _write_text(out / "archive.csv", scan.archive.to_csv())
        svg = render_front(
            scan.archive.objectives_array(),
            truth=truth,
            weight_rays=[r.weights for r in scan.rays],
            title=f"{config.task} {config.mode} front",
        )
        _write_text(out / "front.svg", svg)
    if scan.rays and all(r.failed for r in scan.rays):
        print("numerical failure: every ray failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "scan": _cmd_scan}[args.command]
    try:
        return handler(args)
    except _ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
