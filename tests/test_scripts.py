"""The experiment scripts run end to end on a tiny configuration."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_TINY = ["-T", "2", "-K", "2", "-C", "2"]


@pytest.mark.parametrize(
    "script, args, files",
    [
        (
            "synthetic_scan.py",
            ["--seeds", "1", "--weights", "3", *_TINY],
            ["summary.csv", "front.svg"],
        ),
        (
            "ngram_fronts.py",
            ["--seeds", "1", "--weights", "3", *_TINY],
            ["unigram_archive.csv", "unigram_front.svg", "bigram_runs.csv"],
        ),
        (
            "weight_rays.py",
            ["--rays", "2", "--budget", "20", *_TINY],
            ["rays.csv", "front.svg", "trajectory_ray0.csv", "trajectory_ray1.csv"],
        ),
        ("hv_scaling.py", ["--case", "3", "5", "--case", "4", "5"], ["hv_scaling.csv"]),
        ("stack_timing.py", ["--rays", "1", "3", "--repeats", "1", *_TINY], ["stack_timing.csv"]),
        ("layer_timing.py", ["--repeats", "1", *_TINY], ["layer_timing.csv"]),
    ],
    ids=[
        "synthetic_scan", "ngram_fronts", "weight_rays", "hv_scaling", "stack_timing",
        "layer_timing",
    ],
)
def test_experiment_script_runs(tmp_path, script, args, files):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (tmp_path / name).is_file(), name


def test_stack_timing_counts_each_computed_row_round_on_one_route(tmp_path):
    # each computed descent runs K inner rounds, and each of its row-rounds
    # steps either in a stack or alone; a lone ray never stacks, and three
    # synthetic rays stack in every round of the first outer round
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["--rays", "1", "3", "--repeats", "1", *_TINY]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stack_timing.py"), "--out", str(tmp_path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "stack_timing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["task"], row["rays"]) for row in rows] == [
        (task, rays) for task in ("synthetic", "ngram-uni", "surrogate") for rays in ("1", "3")
    ]
    for row in rows:
        stacked, alone = int(row["stacked_row_rounds"]), int(row["alone_row_rounds"])
        computed = stacked + alone
        assert computed % 2 == 0 and 0 < computed <= int(row["ray_rounds"]) * 2, row
        if row["rays"] == "1":
            assert stacked == 0, row
    synthetic = rows[1]
    assert int(synthetic["stacked_row_rounds"]) >= 3 * 2, synthetic


def test_layer_timing_times_the_start_clamps_apart_from_the_descents(tmp_path):
    # each outer round of a scan makes one _descents call, which makes one
    # _descend_rows call; the starts layer is the first without the second.
    # The oracle layer counts one eval_discrete call per m oracle calls.
    # Set-up is timed cold, so only the surrogate's includes training its net.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workloads = ["synthetic-epo", "ngram-uni", "surrogate-m4"]
    args = ["--repeats", "1", "--workloads", *workloads, *_TINY]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_timing.py"), "--out", str(tmp_path), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "layer_timing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["workload"] for row in rows] == workloads
    setup = [float(row["setup_s"]) for row in rows]
    assert 0.0 < max(setup[:2]) and 10 * max(setup[:2]) < setup[2], setup
    layers = ("descend", "starts", "select", "oracle", "archive", "record")
    for row, m in zip(rows, (2, 3, 4)):
        assert int(row["starts_calls"]) == int(row["descend_calls"]) == 2, row
        assert int(row["oracle_calls"]) * m == int(row["oracle_calls_total"]) > 0, row
        assert int(row["archive_calls"]) == 1, row
        seconds = [float(row[f"{layer}_s"]) for layer in layers]
        assert all(value > 0.0 for value in seconds), row
        total = sum(seconds) + float(row["rest_s"])
        assert abs(total - float(row["scan_s"])) < 1e-3, row
