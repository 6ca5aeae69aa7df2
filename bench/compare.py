"""Collect sets of benchmark runs, show their spread, and compare two sets.

    python3 bench/compare.py collect --out parent.jsonl --seeds 1-10
    python3 bench/compare.py spread parent.jsonl
    python3 bench/compare.py diff parent.jsonl change.jsonl

``collect`` runs ``bench/run.py`` with tracing off once per workload and
seed, one run at a time, for the ``run_seconds`` of ``BENCHMARK.json``,
and appends each result, with its workload and seed, to the JSONL file.
``spread`` prints, per workload and end-to-end metric, the median, the
quartiles, the interquartile range as a share of the median against the
metric's bound, and the share of failed rays.  ``diff`` pairs the runs
of two sets by seed (in file order when the seeds differ) and reports per
workload and metric both sides' medians and quartiles, the share of
pairs the second set won, and a verdict:

  worse       the gap between the medians exceeds the metric's bound;
  unresolved  a side's spread is wider than the bound and the runs of the
              two sets overlap;
  better      the second set won at least 9 in 10 pairs and its median
              moved by more than the first set's interquartile range;
  same        otherwise.

``diff`` exits 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("trace", 0) == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the IQR as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def collect(args: argparse.Namespace) -> int:
    spec = _spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    status = 0
    for name in names:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
            if proc.returncode == 0:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                with args.out.open("a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed, "trace": 0, **result}) + "\n")
            status = status or proc.returncode
    return status


def spread(args: argparse.Namespace) -> int:
    spec = _spec()
    runs = _load(args.runs)
    worst = 0
    for name, records in runs.items():
        failed = sorted({r["failed"] / r["attempted"] for r in records})
        correct = all(r["correct"] for r in records)
        print(f"{name}: {len(records)} runs, correct {correct}, failed shares {failed}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            med, q1, q3, share = _stats(values)
            flag = "ok" if share <= metric["bound"] / 3 else "WIDE" if share > metric["bound"] else "over a third"
            if share > metric["bound"]:
                worst = 1
            print(f"  {metric['name']:<13} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f} (bound {metric['bound']}) {flag}")
    return worst


def _verdict(a: list[float], b: list[float], metric: dict) -> tuple[str, float, float]:
    lower = metric["better"] == "lower"
    med_a, q1_a, q3_a, share_a = _stats(a)
    med_b, _, _, share_b = _stats(b)
    pairs = list(zip(a, b))
    wins = sum((y < x) if lower else (y > x) for x, y in pairs) / len(pairs)
    gap = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = gap if lower else -gap
    b_beats_all = (max(b) < min(a)) if lower else (min(b) > max(a))
    a_beats_all = (max(a) < min(b)) if lower else (min(a) > max(b))
    bound = metric["bound"]
    if max(share_a, share_b) > bound and not (a_beats_all or b_beats_all):
        return "unresolved", wins, gap
    if worse_by > bound:
        return "worse", wins, gap
    if wins >= 0.9 and abs(med_b - med_a) > (q3_a - q1_a):
        return "better", wins, gap
    return "same", wins, gap


def diff(args: argparse.Namespace) -> int:
    spec = _spec()
    parent, change = _load(args.parent), _load(args.change)
    status = 0
    for name in parent:
        if name not in change:
            print(f"{name}: no runs in {args.change}")
            continue
        a_runs, b_runs = parent[name], change[name]
        b_by_seed = {r["seed"]: r for r in b_runs}
        if all(r["seed"] in b_by_seed for r in a_runs):
            b_runs = [b_by_seed[r["seed"]] for r in a_runs]
        n = min(len(a_runs), len(b_runs))
        print(f"{name}: {n} pairs")
        for metric in spec["end_to_end"]:
            a = [r["metrics"][metric["name"]]["value"] for r in a_runs[:n]]
            b = [r["metrics"][metric["name"]]["value"] for r in b_runs[:n]]
            verdict, wins, gap = _verdict(a, b, metric)
            status = status or verdict == "worse"
            (ma, qa1, qa3, _), (mb, qb1, qb3, _) = _stats(a), _stats(b)
            print(f"  {metric['name']:<13} {ma:.6g} [{qa1:.6g}, {qa3:.6g}] -> {mb:.6g} [{qb1:.6g}, {qb3:.6g}]"
                  f"  {gap:+.2%}  pairs won {wins:.0%}  {verdict}")
    return int(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run every workload on every seed")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--workloads", help="comma-separated; default all")
    p.set_defaults(func=collect)
    p = sub.add_parser("spread", help="medians, quartiles and spread of one set")
    p.add_argument("runs", type=Path)
    p.set_defaults(func=spread)
    p = sub.add_parser("diff", help="compare two sets")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(func=diff)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
