"""Command-line interface: artifacts, precedence, exit codes (in-process but for one stderr check)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoscan.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PARETO_SEED", raising=False)


def _run_args(out, *extra):
    return [
        "run",
        "--task",
        "synthetic",
        "--n",
        "6",
        "-T",
        "3",
        "-K",
        "3",
        "-C",
        "3",
        "--eta",
        "0.05",
        "-o",
        str(out),
        *extra,
    ]


def test_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(_run_args(out, "--seed", "4")) == 0
    trajectory = (out / "trajectory.csv").read_text()
    assert trajectory.startswith("round,l_1,l_2,mu,r_check,oracle_calls\n")
    assert trajectory.endswith("\n")
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {
        "final_losses",
        "mu",
        "r_check",
        "oracle_calls",
        "rounds",
        "converged",
        "failed",
        "wallclock_ms",
    }
    assert metrics["failed"] is False
    assert len(metrics["final_losses"]) == 2
    theory = json.loads((out / "theory.json").read_text())
    assert "bound_check" in theory


def test_run_is_deterministic_across_invocations(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_run_args(a, "--seed", "11")) == 0
    assert main(_run_args(b, "--seed", "11")) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    c = tmp_path / "c"
    assert main(_run_args(c, "--seed", "12")) == 0
    assert (a / "trajectory.csv").read_bytes() != (c / "trajectory.csv").read_bytes()


def test_a_run_stopped_by_its_budget_after_the_start_writes_the_short_note(tmp_path):
    out = tmp_path / "short"
    argv = ["run", "--task", "synthetic", "--budget", "1", "-T", "5", "-K", "1", "-C", "1"]
    assert main([*argv, "--seed", "1", "-o", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 2  # the header and the start point
    theory = json.loads((out / "theory.json").read_text())
    assert theory == {"note": "trajectory too short for diagnostics"}


def test_environment_seed_beats_the_flag(tmp_path, monkeypatch):
    flagged = tmp_path / "flagged"
    assert main(_run_args(flagged, "--seed", "3")) == 0
    monkeypatch.setenv("PARETO_SEED", "3")
    env_run = tmp_path / "env"
    assert main(_run_args(env_run, "--seed", "99")) == 0
    assert (flagged / "trajectory.csv").read_bytes() == (env_run / "trajectory.csv").read_bytes()


def test_environment_seed_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARETO_SEED", "later")
    assert main(_run_args(tmp_path / "x")) == 1
    assert "config error: PARETO_SEED" in capsys.readouterr().err


def test_wrong_weight_length_is_a_config_error(tmp_path, capsys):
    rc = main(_run_args(tmp_path / "x", "--lambda", "0.5,0.5,0.5"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error: lambda" in err and "2 objectives" in err


def test_malformed_weight_flag(tmp_path, capsys):
    rc = main(_run_args(tmp_path / "x", "--lambda", "0.5;0.5"))
    assert rc == 1
    assert "comma-separated" in capsys.readouterr().err


def test_bad_task_parameter_is_a_config_error(tmp_path, capsys):
    base = ["run", "--task", "synthetic", "-T", "2", "-K", "2", "-C", "2", "-o", str(tmp_path / "x")]
    assert main(base + ["--n", "0"]) == 1
    assert "config error: task" in capsys.readouterr().err
    # a parameter the task does not take is rejected, not dropped
    assert main(base + ["--l-max", "5"]) == 1
    assert "config error: task: task 'synthetic' does not take parameter(s): l_max" in (
        capsys.readouterr().err
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task_params": {"n": 4, "bogus": 1}}))
    assert main(base + ["--config", str(cfg)]) == 1
    assert "config error: task: task 'synthetic' does not take parameter(s): bogus" in (
        capsys.readouterr().err
    )
    cfg.write_text(json.dumps({"task_params": {"per_property_oracle": False}}))
    assert main(base + ["--config", str(cfg)]) == 1
    assert "does not take parameter(s): per_property_oracle" in capsys.readouterr().err
    # a parameter of the wrong type is named
    for bad in ("6", True, 6.0):
        cfg.write_text(json.dumps({"task_params": {"n": bad}}))
        assert main(base + ["--config", str(cfg)]) == 1
        assert f"config error: task: n must be int, got {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, flags, params, message",
    [
        ("synthetic", ["--n", "0"], {}, "n must be >= 1, got 0"),
        ("ngram-uni", ["--l-max", "1"], {}, "l_max must be >= 2, got 1"),
        ("surrogate", ["--n-b", "0"], {}, "n_b must be >= 2, got 0"),
        # one bit leaves the oracle no second direction to span its plane
        ("surrogate", ["--n-b", "1"], {}, "n_b must be >= 2, got 1"),
        ("surrogate", [], {"m": 0}, "m must be >= 1, got 0"),
        ("surrogate", [], {"epochs": -1}, "epochs must be >= 0, got -1"),
    ],
    ids=["n=0", "l_max=1", "n_b=0", "n_b=1", "m=0", "epochs=-1"],
)
def test_task_parameter_out_of_range_is_a_config_error(tmp_path, capsys, task, flags, params, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task_params": params}))
    args = ["run", "--task", task, "-T", "1", "-K", "1", "-C", "1", "--config", str(cfg)]
    assert main(args + flags + ["-o", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"config error: task: {message}" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("flag", ["--grid-step", "--oracle-seed", "--epsilon"])
def test_fixed_task_constants_have_no_flag(tmp_path, capsys, flag):
    args = ["run", "--task", "synthetic", flag, "1", "-o", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


_BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    max_value=-1e-300, allow_nan=False, allow_infinity=False
)


@settings(deadline=None, max_examples=60)
@given(
    command=st.sampled_from(["run", "scan"]),
    key=st.sampled_from(["eta", "lambda"]),
    bad=_BAD_NUMBERS,
    good=st.floats(0.0, 10.0),
)
def test_non_finite_or_negative_numbers_are_config_errors(command, key, bad, good):
    value = f"{good!r},{bad!r}" if key == "lambda" else repr(bad)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        rc = main([command, "--task", "synthetic", f"--{key}={value}", "-o", tmp])
    assert rc == 1
    assert f"config error: {key}" in err.getvalue()


@pytest.mark.parametrize("command", ["run", "scan"])
@pytest.mark.parametrize("key", ["T", "K", "C"])
def test_a_count_below_one_names_its_key(tmp_path, capsys, command, key):
    counts = {"T": "2", "K": "2", "C": "2", key: "0"}
    argv = [command, "--task", "synthetic"]
    for flag, value in counts.items():
        argv += [f"-{flag}", value]
    assert main(argv + ["-o", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key} must be at least 1, got 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_unknown_task_is_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--task", "quantum", "-o", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # there is no --m flag: read as --mode, this ran the baseline
        ["run", "--task", "surrogate", "--m", "ls", "-T", "2", "-K", "2", "-C", "2"],
        ["run", "--task", "synthetic", "--budg", "8"],
        ["scan", "--task", "synthetic", "--weights-f", "w.csv"],
    ],
)
def test_abbreviated_flags_are_rejected_by_the_parser(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-o", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_missing_output_directory_is_a_config_error(capsys):
    assert main(["run", "--task", "synthetic", "-T", "2", "-K", "2", "-C", "2"]) == 1
    assert "output directory" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    # the file's keys name their fields first, so a flag beats its field's
    # key by any name: -T beats "t" and "T", --lambda "weights" and "lambda"
    for t_key, weights_key in (("t", "weights"), ("T", "lambda")):
        cfg = tmp_path / f"{t_key}.json"
        cfg.write_text(
            json.dumps(
                {
                    "task": "synthetic",
                    "task_params": {"n": 6},
                    t_key: 2,
                    weights_key: [1.0, 0.0],
                    "k": 2,
                    "c": 1,
                    "eta": 0.0,
                    "seed": 5,
                }
            )
        )
        out = tmp_path / t_key
        argv = ["run", "--config", str(cfg), "-T", "4", "--lambda", "0.6,0.8", "-o", str(out)]
        assert main(argv) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 5  # header + rounds 0..4: the flag beat the file
        _, l1, l2, _, r_check, _ = map(float, lines[1].split(","))
        assert r_check == pytest.approx(max(0.6 * l1, 0.8 * l2))  # the flag's ray


@pytest.mark.parametrize(
    "data, keys",
    [
        ({"T": 3, "t": 4, "K": 2}, ("'T'", "'t'")),
        ({"lambda": [1, 2], "weights": [3, 4]}, ("'lambda'", "'weights'")),
    ],
)
def test_two_file_keys_that_name_one_field_are_a_config_error(tmp_path, capsys, data, keys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    # a flag for the field does not hide the clash
    for flags in ([], ["-T", "2"]):
        assert main(["run", "--config", str(cfg), *flags, "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and all(key in err for key in keys), err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_config_file_errors(tmp_path, capsys):
    missing = main(["run", "--config", str(tmp_path / "nope.json"), "-o", str(tmp_path / "o")])
    assert missing == 1
    assert "file not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["run", "--config", str(bad), "-o", str(tmp_path / "o")]) == 1
    assert "JSON object" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "-o", str(tmp_path / "o")]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"task": "synthetic", "rounds": 5}))
    assert main(["run", "--config", str(unknown), "-o", str(tmp_path / "o")]) == 1
    assert "unknown config key" in capsys.readouterr().err
    # a value of the wrong type is named, never a traceback
    wrong = [
        ({"T": 1.5}, "T"),
        ({"K": 2.5}, "K"),
        ({"T": "5"}, "T"),
        ({"C": True}, "C"),
        ({"seed": "1"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"oracle_budget": "x"}, "oracle_budget"),
        ({"oracle_budget": 2.5}, "oracle_budget"),
        ({"eta": True}, "eta"),
        ({"lambda": "abc"}, "lambda"),
        ({"lambda": [1, "x"]}, "lambda"),
        ({"task": "bogus"}, "task"),
    ]
    for data, key in wrong:
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad), "-o", str(tmp_path / "o")]) == 1, data
        assert f"config error: {key}" in capsys.readouterr().err, data


def _existing_file(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    return path


def _latin1_config(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"task": "synthétique"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "flag, make, key",
    [
        ("-o", _existing_file, "out"),
        ("-o", lambda tmp: _existing_file(tmp) / "x", "out"),
        ("--config", lambda tmp: tmp, "config"),
        ("--config", _latin1_config, "config"),
    ],
    ids=["out-is-a-file", "out-under-a-file", "config-is-a-directory", "config-not-utf8"],
)
def test_unusable_paths_are_config_errors(tmp_path, capsys, flag, make, key):
    args = _run_args(tmp_path / "out") + [flag, str(make(tmp_path))]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err and "Traceback" not in err


def _scan_args(out, *extra):
    return [
        "scan",
        "--task",
        "synthetic",
        "--n",
        "6",
        "-T",
        "3",
        "-K",
        "3",
        "-C",
        "3",
        "--eta",
        "0.05",
        "--weights",
        "4",
        "-o",
        str(out),
        *extra,
    ]


def _file_scan_args(out, path):
    """Scan arguments taking the rays from a weights file instead of a count."""
    args = _scan_args(out, "--weights-file", str(path))
    del args[args.index("--weights") : args.index("--weights") + 2]
    return args


@pytest.mark.parametrize(
    "command, artifact",
    [("run", name) for name in ("trajectory.csv", "metrics.json", "theory.json")]
    + [("scan", name) for name in ("metrics.json", "archive.csv", "front.svg")],
)
def test_a_directory_in_place_of_an_artifact_is_refused_before_the_run(
    tmp_path, capsys, command, artifact
):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main({"run": _run_args, "scan": _scan_args}[command](out)) == 1
    err = capsys.readouterr().err
    assert f"config error: out: {out / artifact}" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [artifact]


def test_scan_writes_archive_metrics_and_plot(tmp_path):
    out = tmp_path / "scan"
    assert main(_scan_args(out, "--seed", "2")) == 0
    archive = (out / "archive.csv").read_text()
    assert archive.startswith("candidate_id,l_1,l_2,lambda_1,lambda_2,oracle_calls\n")
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {
        "hv",
        "coverage",
        "nu_per_ray",
        "nu_topk",
        "oracle_calls_total",
        "rays_failed",
        "wallclock_ms",
    }
    assert metrics["rays_failed"] == 0
    assert len(metrics["nu_per_ray"]) == 4
    assert 0.0 <= metrics["coverage"] <= 1.0  # synthetic task has a known front
    svg = (out / "front.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_scan_archive_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_scan_args(a, "--seed", "6")) == 0
    assert main(_scan_args(b, "--seed", "6")) == 0
    assert (a / "archive.csv").read_bytes() == (b / "archive.csv").read_bytes()


def test_scan_accepts_a_weights_file(tmp_path):
    path = tmp_path / "rays.csv"
    path.write_text("lambda_1,lambda_2\n1.0,0.0\n0.6,0.8\n0.0,1.0\n")
    out = tmp_path / "out"
    assert main(_file_scan_args(out, path)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["nu_per_ray"]) == 3


def test_scan_weights_file_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "rays.csv"
    path.write_text("lambda_1,lambda_2,lambda_3\n0.6,0.0,0.8\n0.0,0.6,0.8\n")
    rc = main(_file_scan_args(tmp_path / "out", path))
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 2 has 3 components, task needs 2" in err


def test_scan_weights_file_parse_errors(tmp_path, capsys):
    path = tmp_path / "rays.csv"
    path.write_text("lambda_1,lambda_2\n0.5,oops\n")
    assert main(_file_scan_args(tmp_path / "out", path)) == 1
    assert "config error: weights-file" in capsys.readouterr().err


def test_an_overflowing_weight_norm_prints_no_numpy_warning(tmp_path):
    # a fresh interpreter shows what a user sees on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [
            sys.executable, "-m", "paretoscan.cli",
            *_run_args(tmp_path / "run", "--lambda", "1e308,1e308"),
        ],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "config error: lambda" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_scan_weights_file_row_with_an_overflowing_norm_is_a_config_error(
    tmp_path, capsys
):
    # the same numbers that --lambda refuses; a valid first row does not hide it
    path = tmp_path / "rays.csv"
    path.write_text("lambda_1,lambda_2\n0.6,0.8\n1e308,1e308\n")
    out = tmp_path / "out"
    assert main(_file_scan_args(out, path)) == 1
    err = capsys.readouterr().err
    assert (
        "config error: weights-file: row 3: weights must have a finite Euclidean norm"
        in err
    )
    assert not (out / "metrics.json").exists()  # refused before any ray ran
    assert main(_run_args(tmp_path / "run", "--lambda", "1e308,1e308")) == 1
    assert "must have a finite Euclidean norm" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["1e20", "1e300", "1e308"])
def test_a_huge_step_on_the_simplex_still_completes_the_run(tmp_path, eta):
    # the step throws each row of the n-gram matrix out to about eta, far
    # past where cumsum - 1 can see the 1 of the simplex projection
    out = tmp_path / "run"
    argv = ["run", "--task", "ngram-uni", "-T", "2", "-K", "3", "-C", "2"]
    assert main([*argv, "--eta", eta, "-o", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header, the start and two rounds


def test_scan_rejects_nonpositive_ray_count(tmp_path, capsys):
    args = _scan_args(tmp_path / "out")
    args[args.index("--weights") + 1] = "0"
    assert main(args) == 1
    assert "count must be positive" in capsys.readouterr().err


def test_scan_rejects_lambda_it_would_ignore(tmp_path, capsys):
    # front_scan sets the weights of every ray, so a single lambda is never used
    assert main(_scan_args(tmp_path / "out", "--lambda", "5,1")) == 1
    assert "config error: lambda" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [5, 1]}))
    assert main(_scan_args(tmp_path / "out", "--config", str(cfg))) == 1
    assert "config error: lambda" in capsys.readouterr().err


def test_scan_rejects_a_budget_below_one_call_per_ray(tmp_path, capsys):
    # 4 rays: a budget of 3 gives each ray a share of 0 calls, which a run
    # reads as unlimited
    out = tmp_path / "out"
    assert main(_scan_args(out, "--budget", "3")) == 1
    assert "config error: budget: oracle_budget 3" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()
    assert main(_scan_args(out, "--budget", "4")) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["oracle_calls_total"] == 4 * 2  # each ray evaluates its start


def test_scan_rejects_a_ray_count_with_a_weights_file(tmp_path, capsys):
    path = tmp_path / "rays.csv"
    path.write_text("lambda_1,lambda_2\n1.0,0.0\n0.0,1.0\n")
    args = _scan_args(tmp_path / "out", "--weights-file", str(path))
    args[args.index("--weights") + 1] = "7"
    assert main(args) == 1
    assert "config error: weights" in capsys.readouterr().err


@pytest.mark.parametrize("m", [1, 5])
def test_scan_without_a_weight_grid_is_a_config_error(tmp_path, capsys, m):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "surrogate", "task_params": {"m": m, "epochs": 0}}))
    rc = main(["scan", "-T", "1", "-K", "1", "-C", "1", "--config", str(cfg), "-o", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config error: weights: weight grids support m in {{2, 3, 4}}, got {m}" in err


# acceptance test 10's argument lists
_GOLDEN_ARGS = {
    "run": [
        "run", "--task", "synthetic", "--n", "6", "-T", "5", "-K", "5",
        "-C", "4", "--eta", "0.05", "--seed", "17",
    ],
    "scan": [
        "scan", "--task", "synthetic", "--n", "6", "-T", "4", "-K", "5",
        "-C", "4", "--eta", "0.05", "--seed", "17", "--weights", "6",
    ],
    # the m >= 3 QP path: m = 3 and m = 4
    "scan-ngram-uni": [
        "scan", "--task", "ngram-uni", "-T", "4", "-K", "5", "-C", "4",
        "--seed", "17", "--weights", "6",
    ],
    "scan-surrogate-m4": [
        "scan", "--config", str(GOLDEN / "scan-surrogate-m4" / "config.json"),
        "--weights", "4",
    ],
    # the bigram relaxation, whose gradient depends on the point; seed 17's
    # trajectory keeps its start, seed 1's moves
    "run-ngram-bi": [
        "run", "--task", "ngram-bi", "-T", "5", "-K", "5", "-C", "4", "--seed", "17",
    ],
    "run-ngram-bi-1": [
        "run", "--task", "ngram-bi", "-T", "5", "-K", "5", "-C", "4", "--seed", "1",
    ],
}


@pytest.mark.parametrize(
    "command, names",
    [
        ("run", ("trajectory.csv", "theory.json")),
        ("scan", ("archive.csv",)),
        ("scan-ngram-uni", ("archive.csv",)),
        ("scan-surrogate-m4", ("archive.csv",)),
        ("run-ngram-bi", ("trajectory.csv", "theory.json")),
        ("run-ngram-bi-1", ("trajectory.csv", "theory.json")),
    ],
)
def test_artifacts_match_golden_bytes(tmp_path, command, names):
    """Artifacts equal, byte for byte, those in ``tests/data/golden``.

    The ``run`` and ``scan`` files were written by commit 403d519, before the
    inner loop stopped re-validating its vectors, the two m >= 3 scans by
    commit 994d378, before the m >= 3 QP was warm-started, and the
    two ``run-ngram-bi`` runs by commit f843aa2, before the tasks' losses and
    gradients became one call per round; all with numpy 2.4.6 on Python 3.11
    (x86-64).  The ``scan-surrogate-m4`` files were written again when the
    surrogate net's training became L-BFGS.  ``metrics.json`` is kept without its
    ``wallclock_ms``.  Another numpy or BLAS build may change the last digits.
    """
    out = tmp_path / command
    assert main(_GOLDEN_ARGS[command] + ["-o", str(out)]) == 0
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / command / name).read_bytes(), name
    metrics = json.loads((out / "metrics.json").read_text())
    del metrics["wallclock_ms"]
    text = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / command / "metrics.json").read_text()
