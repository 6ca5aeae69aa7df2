"""Weight-ray targeting on the synthetic task.

For evenly spaced interior rays, runs the QP-direction loop under an oracle
budget and reports how close each final point lands to the exact ray/front
intersection (found by dense search on the closed-form front).

Usage:
    python scripts/weight_rays.py --out results/rays --rays 5 --budget 480
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from paretoscan.metrics import ray_nonuniformity
from paretoscan.search import RunConfig, run_inversion, trajectory_to_csv
from paretoscan.svgplot import render_front
from paretoscan.tasks import synthetic_true_front
from paretoscan.weights import weight_grid


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="results/rays", help="output directory")
    p.add_argument("--rays", type=int, default=5, help="number of interior rays")
    p.add_argument("--budget", type=int, default=480, help="oracle calls per ray")
    p.add_argument("--seed", type=int, default=110)
    p.add_argument("-T", type=int, default=50)
    p.add_argument("-K", type=int, default=20)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("-C", type=int, default=10)
    return p.parse_args()


def ray_target(dense, w):
    """Front point with the most ray-aligned loss profile."""
    mus = np.array([ray_nonuniformity(p, w) for p in dense])
    return dense[int(np.nanargmin(mus))]


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dense = synthetic_true_front(20001)
    # interior rays only: the boundary rays point along the axes, where a
    # single objective dominates and the intersection is degenerate
    rays = weight_grid(2, args.rays + 2)[1:-1]

    rows = []
    finals = []
    for i, w in enumerate(rays):
        cfg = RunConfig(
            task="synthetic",
            weights=w,
            T=args.T,
            K=args.K,
            eta=args.eta,
            C=args.C,
            seed=args.seed + i,
            oracle_budget=args.budget,
        )
        res = run_inversion(cfg)
        last = res.trajectory[-1]
        target = ray_target(dense, w)
        dist = float(np.linalg.norm(last.objectives - target))
        rows.append(
            {
                "ray": i,
                "lambda_1": w[0],
                "lambda_2": w[1],
                "l_1": last.objectives[0],
                "l_2": last.objectives[1],
                "mu": last.mu,
                "target_dist": dist,
                "oracle_calls": res.oracle_calls,
                "converged": res.converged,
            }
        )
        finals.append(last.objectives)
        (out / f"trajectory_ray{i}.csv").write_text(trajectory_to_csv(res.trajectory))
        print(
            f"ray {i}: lambda=({w[0]:.3f},{w[1]:.3f})  "
            f"final=({last.objectives[0]:.4f},{last.objectives[1]:.4f})  "
            f"mu={last.mu:.4f}  dist={dist:.4f}  calls={res.oracle_calls}"
        )

    with open(out / "rays.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    svg = render_front(
        np.array(finals), truth=dense[::100], weight_rays=rays,
        title="final points vs their weight rays",
    )
    (out / "front.svg").write_text(svg)

    hit = sum(1 for r in rows if r["mu"] <= 0.02 and r["target_dist"] <= 0.05)
    print(f"{hit}/{len(rows)} rays within mu <= 0.02 and distance <= 0.05")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
