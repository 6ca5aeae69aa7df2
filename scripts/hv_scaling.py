"""Exact hypervolume timing on seeded concave fronts.

Each case draws n points on the positive orthant of the unit sphere in m
objectives (a concave front: no point dominates another, so every point
reaches the slicing recursion), times one ``metrics.hypervolume`` call
against the unit reference corner, and writes one CSV row per case.

Usage:
    python scripts/hv_scaling.py --out results/hv_scaling
    python scripts/hv_scaling.py --out results/hv_scaling --case 4 400
"""

import argparse
import csv
import time
from pathlib import Path

import numpy as np

from paretoscan.metrics import hypervolume

_DEFAULT_CASES = [(3, 200), (4, 100), (4, 200)]
_SEED = 0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="results/hv_scaling", help="output directory")
    p.add_argument(
        "--case", type=int, nargs=2, action="append", metavar=("M", "N"),
        help="objectives and points of one case, repeatable; default 3 200, 4 100, 4 200",
    )
    return p.parse_args()


def concave_front(n, m, seed):
    """``n`` seeded points on the positive orthant of the unit sphere in R^m."""
    u = np.abs(np.random.default_rng(seed).normal(size=(n, m)))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for m, n in args.case or _DEFAULT_CASES:
        front = concave_front(n, m, _SEED)
        start = time.perf_counter()
        hv = float(hypervolume(front, np.ones(m)))
        seconds = time.perf_counter() - start
        rows.append({"m": m, "n": n, "seconds": f"{seconds:.4f}", "hv": repr(hv)})
        print(f"m={m} n={n}: {seconds:.4f} s  hv={hv:.12f}")
    with open(out / "hv_scaling.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"table in {out}/hv_scaling.csv")


if __name__ == "__main__":
    main()
