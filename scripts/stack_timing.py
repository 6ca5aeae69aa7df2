"""Scan time per ray-round, and the route each row-round took, at several
ray counts on three tasks.

Each case runs ``front_scan`` over ``weight_grid(m, rays)`` on one task at
its benchmark workload's settings: ``synthetic`` (n = 20, m = 2, eta
0.05), ``ngram-uni`` (m = 3, eta 0.2) and ``surrogate`` (m = 4, eta 0.1),
each with T = 50, K = 20, C = 10 and seed 1.  A case scans once to warm
up (the surrogate trains its net there) and then ``--repeats`` times, and
writes one CSV row per task and ray count: the median wall seconds of a
scan, the ray-rounds it ran (each ray's completed outer rounds, its
trajectory less the start) and the median time per ray-round in
microseconds.  In an inner round, three or more computed rows whose
tasks share a class and a ``stack_key`` take one losses call and step
as one stack: one QP pass and one clamp; every other row calls its own
task on a one-row stack and steps alone.  The warm-up scan counts the computed
row-rounds (one ray's inner round; a reused descent computes none) that
stepped in a stack and those that stepped alone, by wrapping
``relax._step_stack`` and ``relax._step_row`` in this script; a stack
that a row's check refuses steps its rows alone, and counts there.

Usage:
    python scripts/stack_timing.py --out results/stack_timing
    python scripts/stack_timing.py --out results/stack_timing --rays 1 3 16 --repeats 5
"""

import argparse
import csv
import statistics
import time
from pathlib import Path

from paretoscan import RunConfig, front_scan, make_task, relax, weight_grid

#: (task, its parameters, m, eta): the benchmark workloads' settings.
_TASKS = (
    ("synthetic", {"n": 20}, 2, 0.05),
    ("ngram-uni", {}, 3, 0.2),
    ("surrogate", {"m": 4}, 4, 0.1),
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="results/stack_timing", help="output directory")
    p.add_argument("--rays", type=int, nargs="+", default=[1, 3, 16], help="ray counts")
    p.add_argument("--repeats", type=int, default=5, help="timed scans per ray count")
    p.add_argument("-T", type=int, default=50, help="outer rounds")
    p.add_argument("-K", type=int, default=20, help="inner rounds")
    p.add_argument("-C", type=int, default=10, help="candidates per round")
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args()


def count_routes(run):
    """``run()``'s result with the row-rounds that stepped in a stack and
    those that stepped alone while it ran."""
    counts = {"stacked": 0, "alone": 0}
    step_stack, step_row = relax._step_stack, relax._step_row

    def stack(L, *args):
        stepped = step_stack(L, *args)
        if stepped is not None:
            counts["stacked"] += len(L)
        return stepped

    def row(*args):
        counts["alone"] += 1
        return step_row(*args)

    relax._step_stack, relax._step_row = stack, row
    try:
        result = run()
    finally:
        relax._step_stack, relax._step_row = step_stack, step_row
    return result, counts["stacked"], counts["alone"]


def main():
    args = parse_args()
    if args.repeats < 1 or min(args.rays) < 1:
        raise SystemExit("--repeats and every --rays count must be positive")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for task, params, m, eta in _TASKS:
        config = RunConfig(
            task=task, task_params=params, T=args.T, K=args.K, C=args.C,
            eta=eta, seed=args.seed,
        )
        for rays in args.rays:
            grid = weight_grid(m, rays)

            def scan():
                return front_scan(lambda: make_task(task, **params), grid, config)

            first, stacked, alone = count_routes(scan)
            ray_rounds = sum(max(len(ray.trajectory) - 1, 0) for ray in first.rays)
            seconds = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                scan()
                seconds.append(time.perf_counter() - start)
            median = statistics.median(seconds)
            per = median / ray_rounds * 1e6 if ray_rounds else float("nan")
            rows.append(
                {
                    "task": task, "rays": rays, "T": args.T, "K": args.K, "C": args.C,
                    "seed": args.seed, "repeats": args.repeats, "ray_rounds": ray_rounds,
                    "scan_s": f"{median:.4f}", "us_per_ray_round": f"{per:.1f}",
                    "stacked_row_rounds": stacked, "alone_row_rounds": alone,
                }
            )
            print(
                f"{task} rays={rays}: scan {median:.4f} s over {ray_rounds} ray-rounds, "
                f"{per:.1f} us each; row-rounds {stacked} stacked, {alone} alone"
            )
    with open(out / "stack_timing.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"table in {out}/stack_timing.csv")


if __name__ == "__main__":
    main()
