"""The traced benchmark run still fits the program it traces.

``bench/tracer.py`` wraps names of ``paretoscan`` that it resolves with a
strict ``getattr``, and ``bench/worker.py`` marks a traced run incorrect
when tracing moves a scan's fingerprint.  These tests import both
unchanged and run a tiny synthetic scan with and without the tracer, so a
rename in the program that breaks the traced run fails here first.  A tiny
stalling n-gram scan and a five-ray synthetic scan, whose rays descend as
one stack, must also pass ``bench/run.py``'s own check of the traced
counts against the program's counters.
"""

import importlib
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import paretoscan

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Two rays of the synthetic workload with T = K = C = 2.
TINY = replace(WORKLOADS["synthetic-epo"], rays=2, T=2, K=2, C=2)
#: Two unigram rays that stand still in 6 of their 8 outer rounds.
STALLING = replace(WORKLOADS["ngram-uni"], rays=2, T=4, K=2, C=2)
#: Five synthetic rays, so that a scan's round descends several rays as one stack.
STACKED = replace(WORKLOADS["synthetic-epo"], rays=5, T=6, K=4, C=3)


def test_every_traced_name_resolves():
    for _, module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _, module, base, _ in tracer.METHODS:
        assert isinstance(getattr(importlib.import_module(module), base), type), (module, base)


def _bindings():
    """Every name bound in a ``paretoscan`` module or a traced class."""
    owners = [
        mod for name, mod in sys.modules.items()
        if name == "paretoscan" or name.startswith("paretoscan.")
    ]
    todo = [getattr(sys.modules[module], base) for _, module, base, _ in tracer.METHODS]
    while todo:
        cls = todo.pop()
        owners.append(cls)
        todo.extend(cls.__subclasses__())
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_tracing_a_scan_keeps_its_fingerprint_and_counts_its_rounds():
    grid, _, truth = worker._setup(paretoscan, TINY, {})
    _, _, plain, _ = worker._scan_loop(paretoscan, TINY, grid, truth, 1, 0.0)
    before = _bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        _, scan, traced, same = worker._scan_loop(
            paretoscan, TINY, grid, truth, 1, 0.0, plain, spans
        )
    finally:
        spans.uninstall()
    assert same and traced == plain == worker._fingerprint(scan)
    layers = worker._layer_metrics(spans, paretoscan.RunConfig().epsilon)
    assert layers["relax.inner_descent.calls"] == 4  # 2 rays x T
    assert layers["relax.inner_rounds"] == 8  # 2 rays x T x K
    assert spans.totals()[0]["tasks.clamp"] == 12  # K + 1 per descent
    for owner, names in before.values():
        now = vars(owner)
        assert all(now.get(key) is value for key, value in names.items()), owner


def _clamp_parents(spans) -> Counter:
    """The traced ``tasks.clamp`` calls, counted by their parent span's name."""
    names = spans.names
    return Counter(
        names[spans.span_name[parent]]
        for name, parent in zip(spans.span_name, spans.span_parent)
        if names[name] == "tasks.clamp"
    )


def test_the_benchmarks_trace_agreement_holds_when_descents_are_reused():
    grid, probe, truth = worker._setup(paretoscan, STALLING, {})
    spans = tracer.Tracer()
    spans.install()
    try:
        _, scan, _, _ = worker._scan_loop(paretoscan, STALLING, grid, truth, 1, 0.0, None, spans)
    finally:
        spans.uninstall()
    report = worker._outputs(paretoscan, scan, probe, STALLING.m)
    report["per_layer"] = worker._layer_metrics(spans, paretoscan.RunConfig().epsilon)
    assert run._trace_agreement(report, STALLING) == []
    assert report["per_layer"]["relax.inner_descent.calls"] == 8  # 2 rays x T
    assert report["per_layer"]["relax.inner_rounds"] == 16  # reused rounds count too
    # 2 computed descents clamp K + 1 times, the 6 reused ones only their
    # start, all of them in the scan's own step
    assert _clamp_parents(spans) == {"search.front_scan": 2 * 3 + 6}


def test_the_benchmarks_trace_agreement_holds_when_rays_descend_as_one_stack():
    grid, probe, truth = worker._setup(paretoscan, STACKED, {})
    spans = tracer.Tracer()
    spans.install()
    try:
        _, scan, _, _ = worker._scan_loop(paretoscan, STACKED, grid, truth, 1, 0.0, None, spans)
    finally:
        spans.uninstall()
    report = worker._outputs(paretoscan, scan, probe, STACKED.m)
    report["per_layer"] = worker._layer_metrics(spans, paretoscan.RunConfig().epsilon)
    assert run._trace_agreement(report, STACKED) == []
    calls = report["per_layer"]["relax.inner_descent.calls"]
    assert calls == STACKED.rays * STACKED.T
    # every ray moved in every round: the scan clamps each start once and
    # each of the K steps, and the traced call, handed its row, clamps nothing
    assert _clamp_parents(spans) == {"search.front_scan": calls * (STACKED.K + 1)}
