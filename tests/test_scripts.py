"""The experiment scripts run end to end on a tiny configuration."""

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
