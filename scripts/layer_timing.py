"""Where a scan's time goes, layer by layer, on the benchmark workloads.

Each workload runs ``front_scan`` at its benchmark settings:
``synthetic-epo`` (``synthetic``, n = 20, 16 rays of ``weight_grid(2, 16)``,
eta 0.05), ``ngram-uni`` (12 rays of ``weight_grid(3, 12)``, eta 0.2) and
``surrogate-m4`` (``surrogate`` with m = 4, ``weight_grid(4, 4)``, eta
0.1), each with T = 50, K = 20, C = 10, seed 1 and the task's reference
front where it has one.  A workload scans once to warm up (the surrogate
trains its net there), then ``--repeats`` times with ``time.perf_counter``
wrappers on six layers, each timed without the wrapped layers it calls:

* ``descend``: ``relax._descend_rows``, the inner descent of the rays that
  moved, stacked or row by row;
* ``starts``: ``search._descents`` outside ``descend``: each ray's relaxed
  candidate, the clamps of the rays' starts and the reuse check;
* ``select``: ``search.discretize_select`` outside ``oracle``: the
  neighbourhood draw and the pick of one candidate per ray and round;
* ``oracle``: ``eval_discrete``, wrapped on ``relax.TaskContract`` and on
  each subclass that defines it: one candidate's oracle losses and the
  check of their vector, the rays' start points included;
* ``archive``: ``search.build_archive``, the scan's Pareto archive;
* ``record``: ``search._record``, one trajectory point per evaluation.

It writes one CSV row per workload: the median wall seconds of a scan,
``setup_s``, the median seconds of a cold ``make_task`` (the task's
cache of trained surrogate nets is cleared before each, so the surrogate
trains its net in every one), each layer's median seconds per scan and
calls per scan, ``rest_s``, the scan time the six layers leave (the
rays' set-up, the outer loop, metrics), and ``oracle_calls_total``, the
scan's own count of oracle calls (m per ``eval_discrete`` call).

Usage:
    python scripts/layer_timing.py --out results/layer_timing
    python scripts/layer_timing.py --out results/layer_timing --repeats 7 --workloads ngram-uni
"""

import argparse
import csv
import statistics
import time
from pathlib import Path

from paretoscan import RunConfig, front_scan, make_task, relax, search, tasks, weight_grid

#: name: (task, its parameters, m, rays, eta), as the benchmark runs them.
_WORKLOADS = {
    "synthetic-epo": ("synthetic", {"n": 20}, 2, 16, 0.05),
    "ngram-uni": ("ngram-uni", {}, 3, 12, 0.2),
    "surrogate-m4": ("surrogate", {"m": 4}, 4, 4, 0.1),
}

#: layer: (attribute, the modules that bind it by that name, or the class
#: on which, and on whose subclasses that define it, the method is wrapped).
_LAYERS = {
    "descend": ("_descend_rows", (relax, search)),
    "starts": ("_descents", (search,)),
    "select": ("discretize_select", (search,)),
    "oracle": ("eval_discrete", relax.TaskContract),
    "archive": ("build_archive", (search,)),
    "record": ("_record", (search,)),
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="results/layer_timing", help="output directory")
    p.add_argument(
        "--workloads", nargs="+", choices=list(_WORKLOADS), default=list(_WORKLOADS)
    )
    p.add_argument("--repeats", type=int, default=5, help="timed scans per workload")
    p.add_argument("-T", type=int, default=50, help="outer rounds")
    p.add_argument("-K", type=int, default=20, help="inner rounds")
    p.add_argument("-C", type=int, default=10, help="candidates per round")
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args()


def _owners(attr: str, where) -> list:
    """The modules, or the class and its subclasses, that define ``attr``."""
    if not isinstance(where, type):
        return list(where)
    owners, todo = [], [where]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in vars(cls):
            owners.append(cls)
    return owners


def _install(spent: dict, calls: dict) -> list:
    """Wrap every layer at each of its bindings; returns what to restore.

    A layer's time leaves out the time of the wrapped layers it calls.
    """
    restore = []
    nested = [0.0]  # time of the wrapped calls inside the current one
    for layer, (attr, where) in _LAYERS.items():
        for owner in _owners(attr, where):
            original = vars(owner)[attr]

            def timed(*args, _fn=original, _layer=layer, **kwargs):
                outer, nested[0] = nested[0], 0.0
                start = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    spent[_layer] += elapsed - nested[0]
                    nested[0] = outer + elapsed
                    calls[_layer] += 1

            restore.append((owner, attr, original))
            setattr(owner, attr, timed)
    return restore


def _setup_seconds(task: str, params: dict, repeats: int) -> float:
    """Median seconds of a cold ``make_task``, with no trained net cached."""
    walls = []
    for _ in range(repeats):
        tasks._trained_net.cache_clear()
        start = time.perf_counter()
        make_task(task, **params)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _time_workload(name: str, args) -> dict:
    task, params, m, rays, eta = _WORKLOADS[name]
    setup = _setup_seconds(task, params, args.repeats)
    grid = weight_grid(m, rays)
    probe = make_task(task, **params)
    truth = probe.true_front(400) if hasattr(probe, "true_front") else None
    config = RunConfig(
        task=task, task_params=params, T=args.T, K=args.K, C=args.C, eta=eta, seed=args.seed
    )

    def scan():
        return front_scan(lambda: make_task(task, **params), grid, config, true_front=truth)

    scan()
    walls, per_layer = [], {layer: [] for layer in _LAYERS}
    for _ in range(args.repeats):
        spent = dict.fromkeys(_LAYERS, 0.0)
        calls = dict.fromkeys(_LAYERS, 0)
        restore = _install(spent, calls)
        try:
            start = time.perf_counter()
            result = scan()
            walls.append(time.perf_counter() - start)
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)
        for layer in _LAYERS:
            per_layer[layer].append(spent[layer])
    wall = statistics.median(walls)
    row = {
        "workload": name, "rays": rays, "T": args.T, "K": args.K, "C": args.C,
        "seed": args.seed, "repeats": args.repeats, "scan_s": f"{wall:.4f}",
        "setup_s": f"{setup:.6f}",
    }
    layers = {layer: statistics.median(values) for layer, values in per_layer.items()}
    for layer, seconds in layers.items():
        row[f"{layer}_s"] = f"{seconds:.4f}"
        row[f"{layer}_calls"] = calls[layer]
    row["rest_s"] = f"{wall - sum(layers.values()):.4f}"
    row["oracle_calls_total"] = result.metrics["oracle_calls_total"]
    return row


def main():
    args = parse_args()
    if args.repeats < 1:
        raise SystemExit("--repeats must be positive")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in args.workloads:
        row = _time_workload(name, args)
        rows.append(row)
        print(
            f"{name}: setup {row['setup_s']} s, scan {row['scan_s']} s; "
            + ", ".join(f"{layer} {row[layer + '_s']} s" for layer in _LAYERS)
            + f"; rest {row['rest_s']} s"
        )
    with open(out / "layer_timing.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"table in {out}/layer_timing.csv")


if __name__ == "__main__":
    main()
