"""Command line front end: exit codes, artifacts, determinism, precedence."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ibodylab
from ibodylab import cli, make_rng
from ibodylab.cli import main
from helpers import dipping_zonal_body, zonal_body

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
    assert doc["schema_version"] == 2
    assert all(row["abs_error"] <= 1e-8 for row in doc["rows"])
    row = next(r for r in doc["rows"] if r["dim"] == 3 and r["degree"] == 2)
    assert row["spectral"] == -0.5
    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert set(meta) == {"argv", "created_unix", "version", "environment", "wall_s",
                         "peak_rss_mb"}
    assert set(meta["environment"]) == {
        "python", "numpy", "platform", "nproc",
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert meta["wall_s"] > 0.0
    assert meta["peak_rss_mb"] > 0.0


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
    code, _, _ = run_cli(["iterate", "--start", "z4-mix", "--out", str(tmp_path / "i")], capsys)
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
        ["iterate", "--start", "z4-mix", "--steps", "4", "--format", "json"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "iterate"
    assert "asymptotic ratio" in err


def test_iterate_report_csv_layout(tmp_path, capsys):
    code, _, _ = run_cli(["iterate", "--steps", "3", "--out", str(tmp_path / "c")], capsys)
    assert code == 0
    lines = (tmp_path / "c" / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "m,l2,sup,ratio,gamma,q_norm,trunc_loss,u_alpha"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == ""  # no ratio before the first step
    doc = json.loads((tmp_path / "c" / "report.json").read_text())
    assert len(lines) == len(doc["rows"]) + 1 == 5


@pytest.mark.parametrize("flags, tracked", [
    (["--alpha", "4"], True),
    (["--dim", "4"], False),  # no default decay exponent outside d = 3
])
def test_iterate_rows_carry_u_alpha(flags, tracked, tmp_path, capsys):
    code, _, _ = run_cli(["iterate", "--steps", "3", "--out", str(tmp_path)] + flags, capsys)
    assert code == 0
    cells = [line.split(",")[-1] for line in
             (tmp_path / "report.csv").read_text().strip().split("\n")[1:]]
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert len(cells) == len(rows) == 4
    if tracked:
        assert all(np.isfinite(float(c)) for c in cells)
        assert all(r["u_alpha"] >= r["sup"] for r in rows)
    else:
        assert cells == [""] * 4
        assert all(r["u_alpha"] is None for r in rows)


# ---------------------------------------------------------------------------
# determinism

def test_report_csv_identical_across_out_dirs(tmp_path, capsys):
    args = ["iterate", "--start", "z4-mix", "--steps", "6"]
    run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b


def test_report_json_identical_on_rerun(tmp_path, capsys):
    args = ["iterate", "--start", "random-even", "--seed", "5",
            "--out", str(tmp_path / "x")]
    run_cli(args, capsys)
    first = (tmp_path / "x" / "report.json").read_bytes()
    run_cli(args, capsys)
    assert (tmp_path / "x" / "report.json").read_bytes() == first


def test_seed_changes_random_start(tmp_path, capsys):
    out = []
    for seed in (1, 2):
        run_cli(["iterate", "--start", "random-even", "--seed", str(seed),
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
    # the keys of removed options are unknown too: no key is read as an alias
    cfg = tmp_path / "cfg.json"
    for values in ({"dimension": 3}, {"kill_h2": False}, {"preset": "z4-mix"}):
        cfg.write_text(json.dumps(values))
        code, _, err = run_cli(["iterate", "--config", str(cfg)], capsys)
        assert code == 2, values
        assert "unknown config" in err and repr(next(iter(values))) in err


@pytest.mark.parametrize("command,values", [
    ("eigen-check", {"dims": "3"}),
    ("iterate", {"band_limit": 16.5}),
    ("iterate", {"start": [[4, 0.001]]}),
])
def test_mistyped_config_value_is_exit_2(tmp_path, capsys, command, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, _, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert repr(next(iter(values))) in err


@pytest.mark.parametrize("argv,config,key", [
    (["multiplier-bound", "--n-list", ","], None, "n_list"),
    (["multiplier-bound", "--corpus-size", "0"], None, "corpus_size"),
    (["ellipsoid-check", "--axes", "1,1,nan"], None, "axes"),
    (["eigen-check", "--dims", ","], None, "dims"),
    (["radon-oracle", "--trials", "0"], None, "trials"),
    (["iterate", "--alpha", "nan"], None, "alpha"),
    (["cap-scaling", "--widths", "0.1,nan"], None, "widths"),
    (["iterate"], '{"alpha": NaN}', "alpha"),
    (["multiplier-bound", "--dim", "2"], None, "dim"),
], ids=["n-list-empty", "corpus-size-0", "axes-nan", "dims-empty", "trials-0",
        "alpha-nan", "widths-nan", "config-alpha-nan", "dim-2"])
def test_empty_non_finite_or_zero_count_inputs_are_exit_2(argv, config, key, tmp_path, capfd):
    # flags and JSON config go through the same check (json.loads accepts
    # NaN); capfd also sees what native code prints
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(argv, capfd)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err


@pytest.mark.parametrize("argv,message", [
    (["eigen-check", "--dims", "a,b"], "expected a comma-separated integer list, got 'a,b'"),
    (["ellipsoid-check", "--axes", "1,x,2"],
     "expected a comma-separated number list, got '1,x,2'"),
], ids=["dims", "axes"])
def test_unparsable_list_flag_keeps_its_message(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert message in err
    assert "_parse" not in err


@pytest.mark.parametrize("argv,named", [
    (["cap-scaling", "--widths", "1e-300,0.1"], "[1e-300]"),
    (["cap-scaling", "--widths", "1e-150,0.1"], "[1e-150]"),
    (["smoothing-gain", "--decay", "1e10"], "decay"),
    (["ellipsoid-check", "--axes", "1e200,1,1"], "1e+200"),
], ids=["widths-1e-300", "widths-1e-150", "decay-1e10", "axes-1e200"])
def test_inputs_beyond_the_floating_point_range_are_exit_2(argv, named, capfd):
    # squares and powers that overflow or underflow end in a check that
    # names the input, not in a RuntimeWarning or a LAPACK failure; capfd
    # also sees what native code prints
    code, out, err = run_cli(argv, capfd)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


def test_cap_scaling_repeated_widths_are_exit_2(capfd):
    code, out, err = run_cli(["cap-scaling", "--widths", "0.1,0.1"], capfd)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "distinct widths" in err


def test_cap_scaling_small_representable_width_fits(capsys):
    code, _, _ = run_cli(["cap-scaling", "--widths", "1e-8,0.1"], capsys)
    assert code == 0


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_config_file_of_every_default_resolves_like_no_config(command, tmp_path):
    # every default passes the check of its own option kind
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps({key: default for key, _, default, _
                                in cli.COMMANDS[command][2] + cli._COMMON}))
    parser = cli.build_parser()
    with_file = cli._resolve_config(parser.parse_args([command, "--config", str(path)]))
    without = cli._resolve_config(parser.parse_args([command]))
    assert json.dumps(with_file, sort_keys=True) == json.dumps(without, sort_keys=True)


def test_bad_axes_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axes": [1.0, -2.0, 1.0]}))
    code, _, _ = run_cli(["ellipsoid-check", "--config", str(cfg)], capsys)
    assert code == 2


@pytest.mark.parametrize("flags", [["--steps", "0"], ["--stop-tol", "0"]])
def test_bad_iteration_options_are_exit_2(flags, capsys):
    code, _, err = run_cli(["iterate"] + flags, capsys)
    assert code == 2
    assert err.startswith("error:")


def test_start_outside_step_domain_is_exit_2(tmp_path, capsys):
    # epsilon 0.45 puts the start's radial function beyond 1 +- 1/2
    code, _, err = run_cli(["iterate", "--epsilon", "0.45", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "1/2" in err
    assert not any(tmp_path.iterdir())


def test_ellipsoid_too_eccentric_for_its_band_is_exit_2(tmp_path, capsys):
    # the band-8 projection of the 10:1:0.1 ellipsoid dips below 0
    code, out, err = run_cli(["ellipsoid-check", "--axes", "10,1,0.1", "--band-limit", "8",
                              "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "band_limit 8" in err and "[10.0, 1.0, 0.1]" in err
    assert not any(tmp_path.iterdir())


def test_even_ellipsoid_on_a_grid_not_closed_under_negation_is_exit_1(tmp_path, capsys):
    # the band-8 grid (49 longitudes) is not closed under x -> -x, yet the
    # projected ellipsoid keeps no aliased odd energy: the body is accepted,
    # and the check fails because band 8 is too small for these semiaxes
    code, _, _ = run_cli(["ellipsoid-check", "--axes", "4,1,0.25", "--band-limit", "8",
                          "--out", str(tmp_path)], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["ok"] is False
    assert 0.4 < doc["summary"]["rel_sup_error"] < 0.5
    assert (tmp_path / "report.csv").is_file()


def test_unknown_start_is_exit_2_naming_the_presets(capsys):
    code, out, err = run_cli(["iterate", "--start", "zz-mix"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'zz-mix'" in err
    assert all(name in err for name in ("z4-mix", "h2-only", "random-even"))
    assert "degree:amplitude" in err


@pytest.mark.parametrize("amplitude", ["nan", "inf"])
def test_non_finite_perturbation_amplitude_is_exit_2(amplitude, capsys):
    code, _, err = run_cli(["iterate", "--start", f"4:{amplitude}"], capsys)
    assert code == 2
    assert "amplitude" in err
    assert "epsilon" not in err


@pytest.mark.parametrize("amplitude", ["1e200", "1e-200"])
def test_extreme_perturbation_amplitudes_normalize_like_unit_ones(amplitude, tmp_path, capsys):
    # the squares of 1e200 overflow and those of 1e-200 underflow; only the
    # direction of the perturbation counts, so the run matches 4:1,6:1
    reports = []
    for amp in ("1", amplitude):
        out = tmp_path / amp
        code, _, _ = run_cli(["iterate", "--steps", "3", "--start",
                              f"4:{amp},6:{amp}", "--out", str(out)], capsys)
        assert code == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[1] == reports[0]


# ---------------------------------------------------------------------------
# failure reporting

def test_divergent_run_is_exit_1_with_partial_report(tmp_path, capsys):
    code, _, _ = run_cli(
        ["iterate", "--mode", "raw", "--start", "h2-only", "--epsilon", "0.2",
         "--steps", "8", "--out", str(tmp_path / "d")], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "d" / "report.json").read_text())
    assert doc["ok"] is False
    assert doc["summary"]["stopped_reason"] == "diverged"
    assert len(doc["rows"]) >= 2


STOPPED_REASONS = ("converged", "max_steps", "diverged", "nonpositive", "left_domain",
                   "correction_too_large")


def _random_iterate_argv(seed: int) -> list[str]:
    """An `iterate` configuration drawn uniformly over every option; odd and
    out-of-range degrees, bands below 4 and starts that are not positive
    are included, so every exit code occurs."""
    rng = make_rng(seed)
    dim = int(rng.choice((3, 4, 5, 7)))
    rep = "s2" if dim == 3 and rng.random() < 0.5 else "zonal"
    if rng.random() < 0.5:
        start = str(rng.choice(("z4-mix", "h2-only", "random-even")))
    else:
        start = ",".join(f"{rng.integers(-2, 15)}:{rng.uniform(-2.0, 2.0)!r}"
                         for _ in range(rng.integers(1, 4)))
    argv = ["iterate", "--dim", str(dim), "--representation", rep,
            "--band-limit", str(rng.integers(2, 13)),
            "--epsilon", repr(math.exp(rng.uniform(math.log(1e-8), math.log(5.0)))),
            "--steps", str(rng.integers(1, 5)), f"--start={start}",
            "--mode", str(rng.choice(cli.MODES)),
            "--method", str(rng.choice(("spectral", "geometric")))]
    if rng.random() < 0.5:
        argv.append(f"--alpha={rng.uniform(-4.0, 8.0)!r}")
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_iterate_configurations_end_in_a_documented_exit(seed):
    # every configuration ends in exit 0, 1 or 2 with no exception (warnings
    # are errors in this suite); a rejected one says why on one line and
    # writes nothing, and any run writes one CSV row per state and a
    # documented stopped_reason, which alone decides between exits 0 and 1
    argv = _random_iterate_argv(seed)
    with tempfile.TemporaryDirectory() as out_dir:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out_dir])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1
            assert not (Path(out_dir) / "report.json").exists()
        else:
            summary = json.loads((Path(out_dir) / "report.json").read_text())["summary"]
            rows = (Path(out_dir) / "report.csv").read_text().strip().split("\n")[1:]
            assert len(rows) == summary["steps_run"] + 1
            assert summary["stopped_reason"] in STOPPED_REASONS
            assert (code == 0) == (summary["stopped_reason"] in ("converged", "max_steps"))
            assert (code == 0) == (summary["diverged"] is None)


def test_state_outside_step_domain_is_exit_1_with_partial_report(tmp_path, capsys):
    # the start is valid and two steps run; the second state deviates from 1
    # by 1/2 or more, so the run stops there, as the library run does
    code, _, _ = run_cli(
        ["iterate", "--dim", "7", "--band-limit", "6", "--epsilon", "0.0961", "--steps", "4",
         "--start", "h2-only", "--mode", "uncorrected", "--out", str(tmp_path)], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["ok"] is False
    assert doc["summary"]["stopped_reason"] == "left_domain"
    assert "deviates from 1 by 1/2 or more" in doc["summary"]["diverged"]
    rows = (tmp_path / "report.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 3
    rep = ibodylab.run_iteration(zonal_body(7, 6, {2: 0.0961}),
                                 ibodylab.IterationOptions(mode="uncorrected", max_steps=4))
    assert doc["summary"]["diverged"] == rep.detail
    assert [row["l2"] for row in doc["rows"]] == [r.l2 for r in rep.records]


def test_nonpositive_step_is_exit_1_with_partial_report(tmp_path, capsys):
    code, _, err = run_cli(
        ["iterate", "--dim", "7", "--band-limit", "11", "--epsilon", "1", "--steps", "3",
         "--start", "h2-only", "--mode", "raw", "--out", str(tmp_path)], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["ok"] is False
    assert doc["summary"]["stopped_reason"] == "nonpositive"
    assert "not strictly positive" in doc["summary"]["diverged"]
    assert len(doc["rows"]) == 1


def test_start_dipping_between_nodes_is_exit_2(tmp_path, capsys, monkeypatch):
    # a start positive at its storage nodes but not on its refined set
    monkeypatch.setattr(cli, "_start_body", lambda cfg: dipping_zonal_body())
    code, _, err = run_cli(["iterate", "--band-limit", "4", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "not strictly positive on the refined set" in err
    assert not (tmp_path / "report.json").exists()


def test_state_dipping_between_nodes_is_exit_1_with_partial_report(tmp_path, capsys,
                                                                   monkeypatch):
    dip = dipping_zonal_body()
    monkeypatch.setattr(ibodylab.iteration, "intersection_body", lambda body, method: (
        ibodylab.StarBody(dip.profile, meta={"trunc_loss": 0.0, "mean_power": 1.0})))
    code, _, _ = run_cli(["iterate", "--band-limit", "4", "--steps", "3",
                          "--out", str(tmp_path)], capsys)
    assert code == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"]["stopped_reason"] == "nonpositive"
    assert "on the refined set" in doc["summary"]["diverged"]
    assert len(doc["rows"]) == 1


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
        [sys.executable, "-m", "ibodylab", "iterate", "--start", "4:nan"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert p.returncode == 2
    assert p.stderr.startswith("error:")
    assert "Traceback" not in p.stderr


def test_runs_without_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import ibodylab\n"
            "import ibodylab.cli\n"
            "sys.exit(ibodylab.cli.main(['iterate', '--steps', '2']))\n")
    p = subprocess.run([sys.executable, "-c", code],
                       capture_output=True, text=True, env=CHILD_ENV)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("m,l2,")
