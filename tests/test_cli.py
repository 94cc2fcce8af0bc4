"""Command line front end: exit codes, artifacts, determinism, precedence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ibodylab
from ibodylab.cli import main

# `python -m ibodylab` in a child process finds the package under test
# even when it is not installed
SRC = str(Path(ibodylab.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# happy paths

def test_eigen_check_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(["eigen-check", "--out", str(out_dir)], capsys)
    assert code == 0
    for name in ("report.json", "report.csv", "config.resolved.json", "run_meta.json"):
        assert (out_dir / name).exists()
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["ok"] is True
    assert doc["schema_version"] == 1
    assert all(row["abs_error"] <= 1e-8 for row in doc["rows"])
    row = next(r for r in doc["rows"] if r["dim"] == 3 and r["degree"] == 2)
    assert row["spectral"] == -0.5
    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert set(meta) == {"argv", "created_unix", "version"}


def test_radon_oracle_passes(tmp_path, capsys):
    code, _, _ = run_cli(["radon-oracle", "--out", str(tmp_path / "r")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert doc["summary"]["max_abs_error"] <= 1e-8


def test_ellipsoid_check_passes(tmp_path, capsys):
    code, _, _ = run_cli(["ellipsoid-check", "--out", str(tmp_path / "e")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "e" / "report.json").read_text())
    assert doc["summary"]["rel_sup_error"] <= 1e-6


def test_ellipsoid_check_ball_axes(tmp_path, capsys):
    code, _, _ = run_cli(
        ["ellipsoid-check", "--axes", "1.0,1.0,1.0", "--out", str(tmp_path / "b")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "b" / "report.json").read_text())
    assert doc["summary"]["rel_sup_error"] <= 1e-10


def test_iterate_z4_mix_rate(tmp_path, capsys):
    code, _, _ = run_cli(["iterate", "--preset", "z4-mix", "--out", str(tmp_path / "i")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "i" / "report.json").read_text())
    assert doc["summary"]["predicted_dominant_ratio"] == 0.75
    assert abs(doc["summary"]["asymptotic_ratio"] - 0.75) <= 0.02
    assert doc["summary"]["stopped_reason"] in ("max_steps", "converged")


def test_multiplier_bound_small_corpus(tmp_path, capsys):
    code, _, _ = run_cli(
        ["multiplier-bound", "--corpus-size", "8", "--band-limit", "128",
         "--n-list", "4,8,16,32,64", "--out", str(tmp_path / "m")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "m" / "report.json").read_text())
    assert doc["summary"]["fix_coeff_error"] == 0.0
    assert doc["summary"]["max_sup_ratio"] <= 10.0
    assert doc["summary"]["monotone_growth"] is False


def test_smoothing_gain_defaults(tmp_path, capsys):
    code, _, _ = run_cli(["smoothing-gain", "--out", str(tmp_path / "s")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "s" / "report.json").read_text())
    assert abs(doc["summary"]["energy_slope"] - doc["summary"]["expected_energy_slope"]) <= 0.3


def test_cap_scaling_defaults(tmp_path, capsys):
    code, _, _ = run_cli(["cap-scaling", "--out", str(tmp_path / "c")], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "c" / "report.json").read_text())
    assert abs(doc["summary"]["exponent_sup"] - 2.0 / 3.0) <= 0.1
    assert abs(doc["summary"]["exponent_grad"] - 1.0 / 3.0) <= 0.1


# ---------------------------------------------------------------------------
# output formats

def test_csv_stdout_with_summary_comments(capsys):
    code, out, _ = run_cli(["eigen-check", "--dims", "3", "--k-max", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim,degree,spectral,geometric,abs_error"
    hashes = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# max_abs_error") for l in hashes)


def test_json_stdout_envelope(capsys):
    code, out, _ = run_cli(
        ["eigen-check", "--dims", "3", "--k-max", "6", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"schema_version", "command", "config", "rows", "summary", "ok"}
    assert doc["ok"] is True


def test_iterate_json_stdout_is_pure_json(capsys):
    # the per-run human summary goes to stderr, never into the envelope
    code, out, err = run_cli(
        ["iterate", "--preset", "z4-mix", "--steps", "4", "--format", "json"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "iterate"
    assert "asymptotic ratio" in err


# ---------------------------------------------------------------------------
# determinism

def test_report_csv_identical_across_out_dirs(tmp_path, capsys):
    args = ["iterate", "--preset", "z4-mix", "--steps", "6"]
    run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b


def test_report_json_identical_on_rerun(tmp_path, capsys):
    args = ["iterate", "--preset", "random-even", "--seed", "5",
            "--out", str(tmp_path / "x")]
    run_cli(args, capsys)
    first = (tmp_path / "x" / "report.json").read_bytes()
    run_cli(args, capsys)
    assert (tmp_path / "x" / "report.json").read_bytes() == first


def test_seed_changes_random_start(tmp_path, capsys):
    out = []
    for seed in (1, 2):
        run_cli(["iterate", "--preset", "random-even", "--seed", str(seed),
                 "--steps", "3", "--out", str(tmp_path / f"s{seed}")], capsys)
        doc = json.loads((tmp_path / f"s{seed}" / "report.json").read_text())
        # the start deviation is normalized to epsilon, so compare step 1
        out.append(doc["rows"][1]["l2"])
    assert out[0] != out[1]


# ---------------------------------------------------------------------------
# config file handling

def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 4, "epsilon": 5e-4, "steps": 6}))
    code, _, _ = run_cli(
        ["iterate", "--config", str(cfg), "--dim", "3", "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    resolved = json.loads((tmp_path / "o" / "config.resolved.json").read_text())
    assert resolved["dim"] == 3  # flag wins
    assert resolved["epsilon"] == 5e-4  # config wins over default
    assert resolved["steps"] == 6


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 3}))
    code, _, err = run_cli(["iterate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config" in err


def test_preset_perturb_conflict_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "z4-mix", "perturb": [[2, 0.1]]}))
    code, _, err = run_cli(["iterate", "--config", str(cfg)], capsys)
    assert code == 2


def test_bad_axes_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axes": [1.0, -2.0, 1.0]}))
    code, _, _ = run_cli(["ellipsoid-check", "--config", str(cfg)], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# failure reporting

def test_divergent_run_is_exit_1_with_partial_report(tmp_path, capsys):
    code, _, _ = run_cli(
        ["iterate", "--raw-power", "--preset", "h2-only", "--epsilon", "0.2",
         "--steps", "8", "--out", str(tmp_path / "d")], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "d" / "report.json").read_text())
    assert doc["ok"] is False
    assert doc["summary"]["stopped_reason"] == "diverged"
    assert len(doc["rows"]) >= 2


def test_coarse_ellipsoid_band_is_exit_1(tmp_path, capsys):
    code, _, _ = run_cli(
        ["ellipsoid-check", "--band-limit", "8", "--out", str(tmp_path / "c")], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "c" / "report.json").read_text())
    assert doc["ok"] is False
    assert doc["summary"]["rel_sup_error"] > 1e-6


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation_version():
    p = subprocess.run([sys.executable, "-m", "ibodylab", "--version"],
                       capture_output=True, text=True, env=CHILD_ENV)
    assert p.returncode == 0
    assert p.stdout.strip() == "0.1.0"


def test_module_invocation_eigen_check():
    p = subprocess.run(
        [sys.executable, "-m", "ibodylab", "eigen-check", "--dims", "3", "--k-max", "4"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert p.returncode == 0
    assert p.stdout.startswith("dim,degree,")


def test_module_invocation_nan_perturbation_is_a_config_error():
    p = subprocess.run(
        [sys.executable, "-m", "ibodylab", "iterate", "--perturb", "4:nan"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert p.returncode == 2
    assert p.stderr.startswith("error:")
    assert "Traceback" not in p.stderr
