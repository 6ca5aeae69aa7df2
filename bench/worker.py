"""One benchmark process: set up, scan, report JSON on the last stdout line.

Modes:
  setup  import paretoscan, build the weight grid and one task, report the
         set-up time and stop;
  scan   set up, then repeat the workload's ``front_scan`` until
         ``--seconds`` have passed, with tracing off;
  trace  set up with timers on each set-up step, run untraced scans for
         half of ``--seconds``, then traced scans for the rest.

The process imports ``paretoscan`` from the checkout's ``src`` directory
only, and fails when it is not there.  ``run.py`` starts this script; it
is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Rounds of the calibration kernel, and the seconds they take at the
#: reference speed; times rescaled to it read as wall seconds on a machine
#: running at that speed.
CALIBRATION_ROUNDS = 3000
REFERENCE_S = 0.1
#: Rounds of the kernel run at each ray boundary inside a scan.
RAY_CALIBRATION_ROUNDS = 1500


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import paretoscan

    import_s = time.perf_counter() - start
    origin = Path(paretoscan.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"paretoscan was imported from {origin}, not from {src}")
    return paretoscan, import_s


def _setup(ps, wl, timers: dict):
    """Build the grid and the probe task as the CLI does; fill ``timers``."""
    start = time.perf_counter()
    grid = ps.weight_grid(wl.m, wl.rays)
    timers["weights.grid_s"] = time.perf_counter() - start
    start = time.perf_counter()
    probe = ps.make_task(wl.task, **wl.params)
    timers["tasks.build_s"] = time.perf_counter() - start
    truth = probe.true_front(400) if hasattr(probe, "true_front") else None
    return grid, probe, truth


def _fingerprint(scan) -> str:
    finals = [
        None if r.final_objectives is None else [float(v) for v in r.final_objectives]
        for r in scan.rays
    ]
    return json.dumps(
        [scan.metrics["hv"], scan.metrics["oracle_calls_total"], finals, scan.archive.to_csv()]
    )


def _outputs(ps, scan, probe, m: int) -> dict:
    archive = scan.archive.objectives_array()
    out = {
        "hv": scan.metrics["hv"],
        "archive_hv": float(ps.hypervolume(archive, [1.0] * m)),
        "oracle_calls": scan.metrics["oracle_calls_total"],
        "rays": [
            {
                "final": None
                if r.final_objectives is None
                else [float(v) for v in r.final_objectives],
                "oracle_calls": int(r.oracle_calls),
                "failed": bool(r.failed),
                "error": r.error,
            }
            for r in scan.rays
        ],
        "archive": [
            {"id": e.candidate_id, "objectives": [float(v) for v in e.objectives]}
            for e in scan.archive
        ],
    }
    if hasattr(probe, "oracle"):
        out["oracle"] = {"w": probe.oracle.w.tolist(), "b": probe.oracle.b.tolist()}
    return out


def calibration_s(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds that CALIBRATION_ROUNDS rounds of a fixed kernel take, from ``rounds``.

    The kernel mixes interpreter work with small NumPy calls and a 4x4
    solve, as the engine does, and uses nothing from ``paretoscan``.  On
    the 2-core machine this benchmark was made on, the same scan took
    anywhere from 5.3 to 8.9 s within a few minutes, and this kernel slowed
    and sped up with it.
    """
    import numpy as np  # here, so that ``setup.import_s`` includes NumPy's import

    rng = np.random.default_rng(0)
    A = rng.random((4, 4)) + 4.0 * np.eye(4)
    b, v = rng.random(4), rng.random(20)
    acc = 0.0
    start = time.perf_counter()
    for i in range(rounds):
        x = np.asarray(v, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite calibration input")
        y = np.clip(x - 0.01 * i, -1.0, 1.0)
        acc += float(np.max(y * 0.5)) + float(y @ y) + float(np.linalg.solve(A, b).sum())
        acc += sum(k * 0.5 for k in range(10))
        ",".join(str(int(k)) for k in (x * 100).astype(np.int64)[:8])
    return (time.perf_counter() - start) * CALIBRATION_ROUNDS / rounds


def to_reference(seconds: float, *calibrations: float) -> float:
    """Rescale a wall time to the speed at which the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.mean(calibrations)


class RayClock:
    """Task factory for ``front_scan`` that runs a short calibration per ray.

    ``front_scan`` calls its factory once at the start of every ray, so the
    kernel runs at each ray boundary.  ``finish`` splits the scan at those
    boundaries into the preamble, one segment per ray and the merge, drops
    the kernel's own time, and rescales each segment by the mean of the
    calibrations at its two ends.
    """

    def __init__(self, make_task) -> None:
        self.make_task = make_task
        self.calibrate = lambda: calibration_s(RAY_CALIBRATION_ROUNDS)
        self.marks: list[tuple[float, float, float]] = []  # kernel start, end, calibration

    def __call__(self):
        start = time.perf_counter()
        calibration = self.calibrate()
        self.marks.append((start, time.perf_counter(), calibration))
        return self.make_task()

    def finish(self, start: float, end: float, before: float, after: float) -> tuple[float, float]:
        """(wall seconds of the scan without the kernel, seconds at the reference speed)."""
        cuts = [start] + [t for first, last, _ in self.marks for t in (first, last)] + [end]
        segments = [b - a for a, b in zip(cuts[::2], cuts[1::2])]
        calibrations = [before] + [c for _, _, c in self.marks] + [after]
        ref = sum(
            to_reference(seg, a, b) for seg, a, b in zip(segments, calibrations, calibrations[1:])
        )
        return sum(segments), ref


def _scan_loop(ps, wl, grid, truth, seed: int, seconds: float, reference=None, tracer=None):
    """Repeat the scan until ``seconds`` pass.

    Returns (times, first scan, its fingerprint, whether all scans agreed).
    ``times`` holds each scan's wall time without the calibration kernel,
    the full calibrations before and after the scans, and each scan's time
    at the reference speed.  With a ``tracer`` the per-ray kernel is a
    span of its own, so no layer's self time includes it.
    """
    config = ps.RunConfig(**wl.config_kwargs(seed))
    times = {"wall": [], "calibration": [calibration_s()], "ref": []}
    first, first_fp, same = None, None, True
    began = time.perf_counter()
    while True:
        clock = RayClock(lambda: ps.make_task(wl.task, **wl.params))
        if tracer is not None:
            clock.calibrate = tracer.wrap("bench.calibration", clock.calibrate)
        start = time.perf_counter()
        scan = ps.search.front_scan(clock, grid, config, true_front=truth)
        end = time.perf_counter()
        times["calibration"].append(calibration_s())
        wall, ref = clock.finish(start, end, *times["calibration"][-2:])
        times["wall"].append(wall)
        times["ref"].append(ref)
        fp = _fingerprint(scan)
        if first is None:
            first, first_fp = scan, fp
        same = same and fp == first_fp and (reference is None or fp == reference)
        if time.perf_counter() - began >= seconds:
            return times, first, first_fp, same


def _layer_metrics(tracer, epsilon: float) -> dict:
    """Per-layer counts and self times of one traced scan.

    A round is in balance mode when its ``mu`` is above the scan's
    ``epsilon``, and in descent mode otherwise.
    """
    calls, self_s = tracer.totals()

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    kept = tracer.kept
    balance = descent = rounds = converged = 0
    for result in kept["relax.inner_descent"]:
        for row in result.trace:
            if row.mu > epsilon:
                balance += 1
            else:
                descent += 1
        rounds += len(result.trace)
        converged += bool(result.converged)
    seen: dict[int, tuple[object, set]] = {}
    for task, candidate in kept["tasks.oracle"]:
        seen.setdefault(id(task), (task, set()))[1].add(task.candidate_id(candidate))
    solutions = kept["qp.solve"]
    profile = ("qp.profile.nonuniformity", "qp.profile.anchor", "qp.profile.active")
    return {
        "core.validate.calls": n("core.validate"),
        "core.validate.self_s": s("core.validate"),
        "core.dominates.calls": n("core.dominates"),
        "core.archive.insert.calls": n("core.archive.insert"),
        "core.archive.insert.accepted": sum(map(bool, kept["core.archive.insert"])),
        "core.archive.self_s": s("core.archive.insert", "core.archive.merge"),
        "qp.solve.calls": n("qp.solve"),
        "qp.solve.self_s": s("qp.solve"),
        "qp.solve.infeasible": sum(bool(x.infeasible) for x in solutions),
        "qp.solve.degenerate": sum(bool(x.degenerate) for x in solutions),
        "qp.profile.calls": n("qp.profile.nonuniformity"),
        "qp.profile.self_s": s(*profile),
        "qp.project_simplex.calls": n("qp.project_simplex"),
        "qp.project_simplex.self_s": s("qp.project_simplex"),
        "relax.inner_descent.calls": n("relax.inner_descent"),
        "relax.inner_descent.self_s": s("relax.inner_descent"),
        "relax.inner_rounds": rounds,
        "relax.converged": converged,
        "relax.discretize_select.self_s": s("relax.discretize_select"),
        "relax.balance_rounds": balance,
        "relax.descent_rounds": descent,
        "tasks.relaxed_losses.self_s": s("tasks.relaxed_losses"),
        "tasks.gradients.self_s": s("tasks.gradients"),
        "tasks.clamp.self_s": s("tasks.clamp"),
        "tasks.neighborhood.self_s": s("tasks.neighborhood"),
        "tasks.oracle.self_s": s("tasks.oracle"),
        "tasks.oracle.calls": n("tasks.oracle"),
        "tasks.oracle.distinct": sum(len(ids) for _, ids in seen.values()),
        "net.logits.calls": n("net.logits"),
        "net.logits.self_s": s("net.logits"),
        "net.input_gradients.calls": n("net.input_gradients"),
        "net.input_gradients.self_s": s("net.input_gradients"),
        "metrics.hypervolume.self_s": s("metrics.hypervolume"),
        "metrics.coverage.calls": n("metrics.coverage"),
        "metrics.coverage.self_s": s("metrics.coverage"),
        "search.front_scan.self_s": s("search.front_scan"),
        "search.theory_diagnostics.self_s": s("search.theory_diagnostics"),
        "search.rays": sum(len(scan.rays) for scan in kept["search.front_scan"]),
    }


def _trace(ps, wl, grid, truth, seed: int, seconds: float, timers: dict, tracer, spans_path):
    plain, scan, fp, same = _scan_loop(ps, wl, grid, truth, seed, seconds / 2)
    epsilon = ps.RunConfig(**wl.config_kwargs(seed)).epsilon
    traced = {"wall": [], "calibration": [], "ref": []}
    layers = []
    began = time.perf_counter()
    while True:
        tracer.reset()
        tracer.install()
        try:
            times, _, _, same_traced = _scan_loop(ps, wl, grid, truth, seed, 0.0, fp, tracer)
        finally:
            tracer.uninstall()
        for key, values in times.items():
            traced[key] += values
        same = same and same_traced
        layers.append(_layer_metrics(tracer, epsilon))
        if time.perf_counter() - began >= seconds / 2:
            break
    tracer.write_spans(spans_path)
    per_layer = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("_s"):
            per_layer[key] = statistics.median(values)
        else:
            same = same and len(set(values)) == 1
            per_layer[key] = values[0]
    per_layer.update(timers)
    per_layer["scan.ref_s"] = statistics.median(plain["ref"])
    per_layer["scan.wall_s"] = statistics.median(plain["wall"])
    per_layer["trace.overhead_s"] = statistics.median(traced["ref"]) - statistics.median(plain["ref"])
    return scan, same, plain, traced, per_layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "scan", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="trace mode: gzipped CSV of the last traced scan")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    timers: dict = {}
    ps, timers["setup.import_s"] = _import_program()
    # Calibrate after the import and after the rest of set-up; the kernel's
    # own time is left out of the set-up time.
    imported = time.time()
    at_import = calibration_s()
    resumed = time.time()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            grid, probe, truth = _setup(ps, wl, timers)
        finally:
            tracer.uninstall()
        timers["net.train_s"] = tracer.total_s("net.train")
    else:
        grid, probe, truth = _setup(ps, wl, timers)
    done = time.time()
    at_done = calibration_s()
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "mode": args.mode,
        "setup_wall_s": (imported - args.spawned_at) + (done - resumed),
        "setup_calibration": [at_import, at_done],
    }
    report.update(timers)

    if args.mode == "scan":
        times, scan, _, same = _scan_loop(ps, wl, grid, truth, args.seed, args.seconds)
        report.update(scan=times, repeatable=same)
    elif args.mode == "trace":
        scan, same, plain, traced, per_layer = _trace(
            ps, wl, grid, truth, args.seed, args.seconds, timers, tracer, args.spans
        )
        report.update(scan=plain, traced_scan=traced, repeatable=same, per_layer=per_layer)
    if args.mode != "setup":
        report.update(_outputs(ps, scan, probe, wl.m))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
