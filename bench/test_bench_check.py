"""Tests of the benchmark's output checker.

Each task runs a two-ray scan with T=3 (the surrogate net trains for 50
epochs), is reported as the benchmark's scan process reports it, and must
pass every check; the same report with one archive entry nudged, or with
a wrong hv, must fail.  The full-size workloads set the HV floor, so these
small scans check against a floor of 0.
"""

from dataclasses import replace

import numpy as np
import pytest

import check
import worker
from workloads import WORKLOADS

TINY = {
    "synthetic-epo": {},
    "ngram-uni": {},
    "surrogate-m4": {"epochs": 50},
}


@pytest.fixture(scope="module", params=sorted(TINY))
def scanned(request):
    ps, _ = worker._import_program()
    base = WORKLOADS[request.param]
    params = {**base.params, **TINY[request.param]}
    wl = replace(base, rays=2, T=3, params=params, hv_floor=0.0 if base.hv_floor else None)
    grid, probe, truth = worker._setup(ps, wl, {})
    _, scan, _, same = worker._scan_loop(ps, wl, grid, truth, seed=1, seconds=0.0)
    assert same
    return wl, worker._outputs(ps, scan, probe, wl.m)


def _copy(report: dict) -> dict:
    return {**report, "archive": [dict(e, objectives=list(e["objectives"])) for e in report["archive"]]}


def test_genuine_report_passes(scanned):
    wl, report = scanned
    assert check.check(report, wl) == []


def test_perturbed_archive_entry_is_rejected(scanned):
    wl, report = scanned
    bad = _copy(report)
    bad["archive"][0]["objectives"][0] += 1e-6
    problems = check.check(bad, wl)
    assert any(bad["archive"][0]["id"] in p and "expected" in p for p in problems)


def test_wrong_hv_is_rejected(scanned):
    wl, report = scanned
    bad = _copy(report)
    bad["hv"] = report["hv"] * 1.001
    assert any(p.startswith("hv ") for p in check.check(bad, wl))


def test_wrong_oracle_count_is_rejected(scanned):
    wl, report = scanned
    bad = _copy(report)
    bad["oracle_calls"] = report["oracle_calls"] + wl.m
    assert check.check(bad, wl) == ["per-ray oracle calls do not sum to oracle_calls"]


def test_hypervolume_methods_agree():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4):
        pts = rng.random((9, m))
        grid = check.hv_grid(pts)
        assert check.hv_inclusion_exclusion(pts) == pytest.approx(grid, rel=1e-12)
        if m == 2:
            assert check.hv_sweep_2d(pts) == pytest.approx(grid, rel=1e-12)
        lattice = rng.integers(0, 9, (9, m)) / 8.0
        assert check.hv_lattice(lattice) == pytest.approx(check.hv_grid(lattice), rel=1e-12)


def test_synthetic_front_hv_matches_a_dense_sweep():
    t = np.linspace(-1.0, 1.0, 200_001)
    front = np.stack([1.0 - np.exp(-((t - 1.0) ** 2)), 1.0 - np.exp(-((t + 1.0) ** 2))], axis=1)
    assert check.hv_sweep_2d(front) == pytest.approx(check.synthetic_front_hv(), abs=1e-4)
    assert not any(check.below_synthetic_front(p) for p in front[::1000])
    assert check.below_synthetic_front(front[100_000] - 1e-3)
