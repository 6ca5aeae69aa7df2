"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload synthetic-epo --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run starts a scan process that repeats the
workload's ``front_scan`` for ``--seconds`` and three more processes that
only set up, and prints the end-to-end metrics of ``BENCHMARK.json``: the
median scan time, the median set-up time of the four processes, the
scan's HV figures and oracle calls, and the scan process's peak RSS.
With ``--trace 1`` one process times half of ``--seconds`` of untraced
scans and then traces the rest; it prints the per-layer metrics and
writes the full layer report and the spans under ``bench/out/``.

Scan and set-up times are reported at a reference machine speed: each
wall time is rescaled by how long a fixed calibration kernel took next to
it (``worker.calibration_s``).  The median set-up time is rescaled by the
median of the calibrations that all set-up processes took: one kernel run
is short enough to catch a brief swing in the machine's speed, which
rescaling each process by its own two runs carried into the result.  The
wall times themselves go to stderr and to the traced report.

Every run checks the scan's outputs with ``check.py``.  The result is
``{"correct", "attempted", "failed", "metrics"}``: ``attempted`` counts
rays over all repetitions and ``failed`` the rays that failed.  The
process exits 1 without a result when the program is missing or a
process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from worker import to_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Processes whose set-up time is measured; the scan process is one of them.
SETUP_SAMPLES = 4
#: The whole run ends within this many seconds or fails.
RUN_LIMIT_S = 170.0
#: Linear algebra runs on one thread, so that runs do not depend on the
#: machine's core count; recorded in each full trace report.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(RuntimeError):
    """A benchmark process failed; the run prints no result."""


def _spawn(args: argparse.Namespace, mode: str, deadline: float, spans=None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--spawned-at", repr(time.time()),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} process ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ray_counts(report: dict) -> tuple[int, int]:
    reps = len(report["scan"]["wall"]) + len(report.get("traced_scan", {}).get("wall", []))
    failed = sum(r["failed"] for r in report["rays"])
    return reps * len(report["rays"]), reps * failed


def _trace_agreement(report: dict, wl) -> list[str]:
    """Traced counts against the program's own counters."""
    layer = report["per_layer"]
    outer_rounds = sum(
        (r["oracle_calls"] // wl.m - 1) // wl.C for r in report["rays"] if r["final"] is not None
    )
    pairs = {
        "tasks.oracle.calls x m vs oracle_calls": (
            layer["tasks.oracle.calls"] * wl.m, report["oracle_calls"]),
        "relax.inner_descent.calls vs outer rounds": (
            layer["relax.inner_descent.calls"], outer_rounds),
        "relax.inner_rounds vs inner_descent.calls x K": (
            layer["relax.inner_rounds"], layer["relax.inner_descent.calls"] * wl.K),
        "balance + descent rounds vs relax.inner_rounds": (
            layer["relax.balance_rounds"] + layer["relax.descent_rounds"], layer["relax.inner_rounds"]),
        "search.rays vs rays": (layer["search.rays"], len(report["rays"])),
    }
    return [f"{name}: {a} != {b}" for name, (a, b) in pairs.items() if a != b]


def _metric_specs(section: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[section]


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "paretoscan" / "__init__.py").is_file():
        raise RunError(f"no paretoscan package under {ROOT / 'src'}")
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(ROOT / "src", quiet=1)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}"
        report = _spawn(args, "trace", deadline, spans=OUT / f"spans-{stem}.csv.gz")
        problems = check(report, wl) + _trace_agreement(report, wl)
        values = report["per_layer"]
        report["blas_env"] = PINNED_ENV
        (OUT / f"trace-{stem}.json").write_text(json.dumps(report, indent=1))
        specs = _metric_specs("per_layer")
    else:
        report = _spawn(args, "scan", deadline)
        setups = [report] + [_spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        walls = [r["setup_wall_s"] for r in setups]
        calibrations = [c for r in setups for c in r["setup_calibration"]]
        print(f"set-up wall times: {walls}", file=sys.stderr)
        print(f"set-up calibration times: {calibrations}", file=sys.stderr)
        problems = check(report, wl)
        values = {
            "scan_s": statistics.median(report["scan"]["ref"]),
            "setup_s": to_reference(statistics.median(walls), statistics.median(calibrations)),
            "hv": report["hv"],
            "archive_hv": report["archive_hv"],
            "oracle_calls": report["oracle_calls"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        specs = _metric_specs("end_to_end")
    if not report["repeatable"]:
        problems.append("repeated scans of one seed gave different outputs")
    for key in ("wall", "calibration", "ref"):
        print(f"scan {key} times: {report['scan'][key]}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = _ray_counts(report)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
