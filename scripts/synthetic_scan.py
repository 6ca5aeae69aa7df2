"""Synthetic front scans: QP-direction runs vs the weighted-sum baseline.

Runs the same seeded weight-grid scan in both modes, prints a per-seed
summary table, and writes the merged-front plot plus a CSV of the metrics.

Usage:
    python scripts/synthetic_scan.py --out results/synthetic --seeds 1 2 3 4 5
"""

import argparse
import csv
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from paretoscan.search import RunConfig, front_scan
from paretoscan.svgplot import render_front
from paretoscan.tasks import SyntheticTask
from paretoscan.weights import weight_grid


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="results/synthetic", help="output directory")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--weights", type=int, default=50, help="rays per scan")
    p.add_argument("-T", type=int, default=50)
    p.add_argument("-K", type=int, default=20)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("-C", type=int, default=10)
    return p.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = SyntheticTask().true_front(2001)
    rays = weight_grid(2, args.weights)

    rows = []
    plot_scan = None
    for seed in args.seeds:
        cfg = RunConfig(
            task="synthetic", T=args.T, K=args.K, eta=args.eta, C=args.C, seed=seed
        )
        for mode in ("epo", "ls"):
            start = time.perf_counter()
            scan = front_scan(
                lambda: SyntheticTask(),
                rays,
                replace(cfg, mode=mode),
                true_front=truth,
            )
            seconds = time.perf_counter() - start
            rows.append(
                {
                    "seed": seed,
                    "mode": mode,
                    "hv": scan.metrics["hv"],
                    "coverage": scan.metrics["coverage"],
                    "nu_topk": scan.metrics["nu_topk"],
                    "oracle_calls": scan.metrics["oracle_calls_total"],
                    "seconds": round(seconds, 2),
                }
            )
            if mode == "epo" and plot_scan is None:
                plot_scan = scan

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    svg = render_front(
        plot_scan.archive.objectives_array(),
        truth=truth,
        weight_rays=[r.weights for r in plot_scan.rays],
        title="synthetic scan (QP direction)",
    )
    (out / "front.svg").write_text(svg)

    print(f"{'seed':>4} {'mode':>4} {'hv':>8} {'coverage':>8} {'calls':>8} {'s':>6}")
    for r in rows:
        print(
            f"{r['seed']:>4} {r['mode']:>4} {r['hv']:>8.4f} "
            f"{r['coverage']:>8.3f} {r['oracle_calls']:>8} {r['seconds']:>6.2f}"
        )
    for mode in ("epo", "ls"):
        hvs = [r["hv"] for r in rows if r["mode"] == mode]
        covs = [r["coverage"] for r in rows if r["mode"] == mode]
        print(
            f"median {mode}: hv {np.median(hvs):.4f}  coverage {np.median(covs):.3f}"
        )
    epo = np.array([r["hv"] for r in rows if r["mode"] == "epo"])
    ls = np.array([r["hv"] for r in rows if r["mode"] == "ls"])
    print(f"median hv ratio epo/ls: {np.median(epo / ls):.2f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
