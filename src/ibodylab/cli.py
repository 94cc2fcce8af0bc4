"""Command line driver for reproducible experiments.

Every command resolves its configuration from built-in defaults, an
optional JSON config file, and command line flags, in that order (flags
win).  With --out DIR each command persists report.json (versioned),
report.csv, and config.resolved.json, which are byte-identical across
re-runs of the same resolved config; wall-clock metadata goes to the
run_meta.json sidecar only.  Exit codes: 0 all checks within tolerance,
1 a tolerance or convergence failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import apply_multiplier, l2_norm, smooth_cutoff, sup_norm
from .bodies import (
    PositivityError,
    StarBody,
    ball_body,
    ellipsoid_body,
    ellipsoid_intersection_closed_form,
    intersection_body,
)
from .iteration import (
    DivergenceError,
    IterationOptions,
    cap_scaling_exponents,
    run_iteration,
)
from .radon import (
    radon_geometric_s2,
    radon_geometric_zonal,
    radon_multiplier,
    radon_spectral,
    smoothing_gain_experiment,
)
from .seeding import make_rng
from .sphharm import S2Function, sh_degrees, sh_index
from .zonal import ZonalProfile

SCHEMA_VERSION = 1

EIGEN_TOL = 1e-8
ORACLE_TOL = 1e-8
ELLIPSOID_TOL = 1e-6
MULTIPLIER_CAP = 10.0
SMOOTHING_SLOPE_TOL = 0.3
CAP_EXPONENT_TOL = 0.1


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# config plumbing

def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc


def _parse_perturb(text: str) -> dict[int, float]:
    """Parse 'degree:amplitude' pairs, e.g. '4:1e-3,6:2e-3'."""
    out: dict[int, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            deg_s, amp_s = part.split(":")
            out[int(deg_s)] = float(amp_s)
        except ValueError as exc:
            raise ConfigError(f"bad perturbation entry {part!r}; "
                              "expected degree:amplitude") from exc
    if not out:
        raise ConfigError("empty perturbation spec")
    return out


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags, returning one flat dict."""
    file_values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            file_values = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        _check_config_types(args.command, file_values, defaults)
    resolved = dict(defaults)
    resolved.update(file_values)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# flag type -> (test of a JSON value, what the flag parses to)
_JSON_TYPES = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    _parse_ints: (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                  "a list of integers"),
    _parse_floats: (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                    "a list of numbers"),
    None: (lambda v: isinstance(v, str), "a string"),
}


def _check_config_types(command: str, file_values: dict, defaults: dict) -> None:
    """Reject config values of another type than their flag parses to;
    null is accepted where the default is null."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for action in subs.choices[command]._actions:
        key = action.dest
        if key not in file_values:
            continue
        value = file_values[key]
        if value is None and defaults[key] is None:
            continue
        if action.choices is not None:
            ok, want = value in action.choices, f"one of {list(action.choices)}"
        elif isinstance(action, argparse.BooleanOptionalAction):
            ok, want = isinstance(value, bool), "true or false"
        else:
            test, want = _JSON_TYPES[action.type]
            ok = test(value)
        if not ok:
            raise ConfigError(f"config key {key!r} must be {want}, got {value!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(command: str, cfg: dict, header: list[str], rows: list[list],
          summary: dict, ok: bool) -> int:
    ok = bool(ok)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": _json_safe(cfg),
        "rows": [dict(zip(header, (_json_safe(v) for v in row))) for row in rows],
        "summary": _json_safe(summary),
        "ok": ok,
    }
    csv_text = _csv_text(header, rows)
    out_dir = cfg.get("out")
    if out_dir:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        (target / "report.csv").write_text(csv_text)
        (target / "config.resolved.json").write_text(
            json.dumps(_json_safe(cfg), indent=2, sort_keys=True) + "\n")
        (target / "run_meta.json").write_text(json.dumps({
            "created_unix": time.time(),
            "argv": sys.argv[1:],
            "version": __version__,
        }, indent=2, sort_keys=True) + "\n")
    if cfg.get("format") == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(csv_text, end="")
        for key in sorted(summary):
            print(f"# {key} = {_json_safe(summary[key])}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# commands

def cmd_eigen_check(cfg: dict) -> int:
    dims = cfg["dims"]
    k_max = cfg["k_max"]
    if any(d < 3 for d in dims):
        raise ConfigError("all dims must be >= 3")
    if k_max < 2:
        raise ConfigError("k_max must be >= 2")
    header = ["dim", "degree", "spectral", "geometric", "abs_error"]
    rows = []
    worst = 0.0
    for d in dims:
        mult = radon_multiplier(d, k_max)
        for k in range(0, k_max + 1, 2):
            coeffs = np.zeros(k_max + 1)
            coeffs[k] = 1.0
            zk = ZonalProfile.from_coeffs(d, coeffs)
            geo = float(radon_geometric_zonal(zk).coeffs[k])
            err = abs(geo - mult[k])
            worst = max(worst, err)
            rows.append([d, k, float(mult[k]), geo, err])
    summary = {"max_abs_error": worst, "tolerance": EIGEN_TOL}
    return _emit("eigen-check", cfg, header, rows, summary, worst <= EIGEN_TOL)


def _random_even_zonal(d: int, band_limit: int, rng) -> ZonalProfile:
    # decay 1.5 keeps the low degrees dominant, so cutting at small n does
    # not shrink sup norms enough to fake a growth trend at large n
    k = np.arange(band_limit + 1)
    coeffs = np.where(k % 2 == 0, rng.standard_normal(band_limit + 1), 0.0)
    coeffs *= (1.0 + k) ** -1.5
    return ZonalProfile.from_coeffs(d, coeffs)


def cmd_radon_oracle(cfg: dict) -> int:
    d = cfg["dim"]
    band_limit = cfg["band_limit"]
    if d < 3:
        raise ConfigError("dim must be >= 3")
    if band_limit < 4:
        raise ConfigError("band_limit must be >= 4")
    rng = make_rng(cfg["seed"])
    header = ["trial", "representation", "max_coeff_error"]
    rows = []
    worst = 0.0
    for trial in range(cfg["trials"]):
        f = _random_even_zonal(d, band_limit, rng)
        err = float(np.abs(radon_geometric_zonal(f).coeffs
                           - radon_spectral(f).coeffs).max())
        worst = max(worst, err)
        rows.append([trial, "zonal", err])
        if d == 3:
            full = S2Function.from_coeffs(
                rng.standard_normal((band_limit + 1) ** 2)
                * (1.0 + sh_degrees(band_limit)) ** -1.5)
            err = float(np.abs(radon_geometric_s2(full).coeffs
                               - radon_spectral(full).coeffs).max())
            worst = max(worst, err)
            rows.append([trial, "s2", err])
    summary = {"max_abs_error": worst, "tolerance": ORACLE_TOL}
    return _emit("radon-oracle", cfg, header, rows, summary, worst <= ORACLE_TOL)


def cmd_ellipsoid_check(cfg: dict) -> int:
    axes = cfg["axes"]
    if len(axes) != 3 or any(a <= 0 for a in axes):
        raise ConfigError("axes must be three positive semiaxis lengths")
    band_limit = cfg["band_limit"]
    if band_limit < 8:
        raise ConfigError("band_limit must be >= 8")
    a = np.diag(axes)
    body = ellipsoid_body(a, band_limit=band_limit)
    numeric = intersection_body(body, method=cfg["method"])
    exact = ellipsoid_intersection_closed_form(a, band_limit=band_limit)
    pts = numeric.profile.grid.points().reshape(-1, 3)
    got = numeric.radial_eval(pts)
    want = exact.radial_eval(pts)
    rel = float(np.max(np.abs(got - want) / np.abs(want)))
    header = ["axis_x", "axis_y", "axis_z", "rel_sup_error"]
    rows = [[axes[0], axes[1], axes[2], rel]]
    summary = {"rel_sup_error": rel, "tolerance": ELLIPSOID_TOL,
               "trunc_loss": numeric.meta["trunc_loss"]}
    return _emit("ellipsoid-check", cfg, header, rows, summary,
                 rel <= ELLIPSOID_TOL)


def _start_body(cfg: dict) -> StarBody:
    d = cfg["dim"]
    band_limit = cfg["band_limit"]
    rep = cfg["representation"]
    eps = cfg["epsilon"]
    if d < 3:
        raise ConfigError("dim must be >= 3")
    if band_limit < 4:
        raise ConfigError("band_limit must be >= 4")
    if not 0.0 < eps:
        raise ConfigError("epsilon must be positive")
    if rep not in ("zonal", "s2"):
        raise ConfigError(f"unknown representation {rep!r}")
    if rep == "s2" and d != 3:
        raise ConfigError("the s2 representation requires dim 3")
    preset = cfg["preset"]
    perturb = None if cfg["perturb"] is None else _parse_perturb(cfg["perturb"])
    if perturb and preset:
        raise ConfigError("give either a preset or an explicit perturbation, not both")
    rng = make_rng(cfg["seed"])
    weights: dict[int, float] = {}
    spread_m = False
    if perturb:
        weights = perturb
    else:
        name = preset or "z4-mix"
        if name == "z4-mix":
            weights = {k: 1.0 for k in (4, 6, 8, 10, 12) if k <= band_limit}
        elif name == "h2-only":
            weights = {2: 1.0}
        elif name == "random-even":
            spread_m = True
            for k in range(2, band_limit + 1, 2):
                weights[k] = float(rng.standard_normal()) / (1.0 + k)
        else:
            raise ConfigError(f"unknown preset {name!r}")
    for k, w in weights.items():
        if k % 2 or k < 2 or k > band_limit:
            raise ConfigError(
                f"perturbation degree {k} must be even and within [2, band_limit]")
        if not math.isfinite(w):
            raise ConfigError(f"perturbation amplitude {w} at degree {k} is not finite")
    if rep == "zonal":
        coeffs = np.zeros(band_limit + 1)
        for k, w in weights.items():
            coeffs[k] = w
    else:
        coeffs = np.zeros((band_limit + 1) ** 2)
        for k, w in weights.items():
            if spread_m:
                coeffs[k * k:(k + 1) ** 2] = w * rng.standard_normal(2 * k + 1)
            else:
                coeffs[sh_index(k, 0)] = w
    norm = float(np.sqrt((coeffs**2).sum()))
    if norm == 0.0:
        raise ConfigError("the perturbation is identically zero")
    coeffs *= eps / norm
    coeffs[0] = 1.0
    if rep == "zonal":
        profile = ZonalProfile.from_coeffs(d, coeffs)
    else:
        profile = S2Function.from_coeffs(coeffs)
    try:
        return StarBody(profile)
    except PositivityError as exc:
        raise ConfigError(
            f"epsilon {eps} makes the radial function nonpositive") from exc


def cmd_iterate(cfg: dict) -> int:
    body = _start_body(cfg)
    d = cfg["dim"]
    alpha = cfg["alpha"]
    if alpha is None and d == 3:
        alpha = 4.0
    try:
        opts = IterationOptions(
            kill_h2=cfg["kill_h2"],
            raw_power_mode=cfg["raw_power"],
            max_steps=cfg["steps"],
            stop_tol=cfg["stop_tol"],
            method=cfg["method"],
            track_decay_alpha=alpha,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    diverged = None
    try:
        report = run_iteration(body, opts)
    except DivergenceError as exc:
        diverged = str(exc)
        report = exc.report
    except ValueError as exc:
        # a start outside the corrected step's domain fails the first step
        raise ConfigError(str(exc)) from exc
    doc = report.to_json_dict()
    header = ["m", "l2", "sup", "ratio", "gamma", "q_norm", "trunc_loss"]
    rows = [[r.m, r.l2, r.sup, None if math.isnan(r.ratio) else r.ratio,
             r.gamma, r.q_norm, r.trunc_loss] for r in report.records]
    predicted = 3.0 / (d + 1.0)
    summary = {
        "asymptotic_ratio": doc["asymptotic_ratio"],
        "predicted_dominant_ratio": predicted,
        "monotone_after_first": doc["monotone_after_first"],
        "stopped_reason": doc["stopped_reason"],
        "steps_run": len(report.records) - 1,
        "final_l2": report.records[-1].l2,
        "diverged": diverged,
    }
    code = _emit("iterate", cfg, header, rows, summary, diverged is None)
    ratio = doc["asymptotic_ratio"]
    shown = "nan" if ratio is None else f"{ratio:.6f}"
    print(f"asymptotic ratio {shown} vs predicted dominant {predicted:.6f}",
          file=sys.stderr)
    return code


def cmd_multiplier_bound(cfg: dict) -> int:
    n_list = cfg["n_list"]
    if any(n < 1 for n in n_list):
        raise ConfigError("all cutoff indices must be positive")
    band_limit = cfg["band_limit"]
    if band_limit <= max(n_list):
        raise ConfigError("band_limit must exceed the largest cutoff index")
    rng = make_rng(cfg["seed"])
    corpus = [_random_even_zonal(cfg["dim"], band_limit, rng)
              for _ in range(cfg["corpus_size"])]
    sups = [sup_norm(f) for f in corpus]
    header = ["n", "max_sup_ratio", "fix_coeff_error"]
    rows = []
    worst = 0.0
    fix_worst = 0.0
    for n in sorted(n_list):
        m = smooth_cutoff(n)
        ratio = max(sup_norm(apply_multiplier(f, m)) / s
                    for f, s in zip(corpus, sups))
        low = corpus[0].coeffs.copy()
        low[min(n, band_limit) + 1:] = 0.0
        truncated = ZonalProfile.from_coeffs(cfg["dim"], low)
        fix_err = float(np.abs(apply_multiplier(truncated, m).coeffs - low).max())
        worst = max(worst, ratio)
        fix_worst = max(fix_worst, fix_err)
        rows.append([n, ratio, fix_err])
    ratios = [row[1] for row in rows]
    grows = all(b > a for a, b in zip(ratios, ratios[1:]))
    summary = {
        "max_sup_ratio": worst,
        "ratio_cap": MULTIPLIER_CAP,
        "fix_coeff_error": fix_worst,
        "monotone_growth": grows,
    }
    ok = worst <= MULTIPLIER_CAP and fix_worst == 0.0 and not grows
    return _emit("multiplier-bound", cfg, header, rows, summary, ok)


def cmd_smoothing_gain(cfg: dict) -> int:
    d = cfg["dim"]
    if d < 3:
        raise ConfigError("dim must be >= 3")
    try:
        res = smoothing_gain_experiment(
            d, decay=cfg["decay"], band_limit=cfg["band_limit"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = ["tail_degree", "energy_ratio", "l2_ratio"]
    rows = [[int(n), float(r), float(math.sqrt(r))]
            for n, r in zip(res.tail_indices, res.energy_ratios)]
    expected = -(d - 2.0)
    summary = {
        "energy_slope": res.energy_slope,
        "l2_slope": res.l2_slope,
        "expected_energy_slope": expected,
        "tolerance": SMOOTHING_SLOPE_TOL,
    }
    ok = abs(res.energy_slope - expected) <= SMOOTHING_SLOPE_TOL
    return _emit("smoothing-gain", cfg, header, rows, summary, ok)


def cmd_cap_scaling(cfg: dict) -> int:
    d = cfg["dim"]
    if d < 3:
        raise ConfigError("dim must be >= 3")
    widths = cfg["widths"]
    try:
        res = cap_scaling_exponents(
            d, widths=widths, resolution=cfg["resolution"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = ["width", "l2", "sup", "grad_sup"]
    rows = [[float(w), float(l2), float(s), float(g)]
            for w, l2, s, g in zip(res.widths, res.l2_values,
                                   res.sup_values, res.grad_values)]
    want_sup = 4.0 / (d + 3.0)
    want_grad = 2.0 / (d + 3.0)
    summary = {
        "exponent_sup": res.exponent_sup,
        "exponent_grad": res.exponent_grad,
        "expected_sup": want_sup,
        "expected_grad": want_grad,
        "tolerance": CAP_EXPONENT_TOL,
    }
    ok = (abs(res.exponent_sup - want_sup) <= CAP_EXPONENT_TOL
          and abs(res.exponent_grad - want_grad) <= CAP_EXPONENT_TOL)
    return _emit("cap-scaling", cfg, header, rows, summary, ok)


# ---------------------------------------------------------------------------
# argument wiring

_DEFAULTS = {
    "eigen-check": {
        "dims": [3, 4, 5, 7], "k_max": 20,
        "seed": 0, "out": None, "format": "csv",
    },
    "radon-oracle": {
        "dim": 3, "band_limit": 24, "trials": 3,
        "seed": 0, "out": None, "format": "csv",
    },
    "ellipsoid-check": {
        "axes": [1.2, 1.0, 0.8], "band_limit": 32, "method": "spectral",
        "seed": 0, "out": None, "format": "csv",
    },
    "iterate": {
        "dim": 3, "band_limit": 16, "epsilon": 1e-3, "steps": 10,
        "stop_tol": 1e-12, "preset": None, "perturb": None,
        "representation": "zonal", "kill_h2": True, "raw_power": False,
        "method": "spectral", "alpha": None,
        "seed": 0, "out": None, "format": "csv",
    },
    "multiplier-bound": {
        "dim": 3, "band_limit": 300, "n_list": [4, 8, 16, 32, 64, 128, 256],
        "corpus_size": 50,
        "seed": 0, "out": None, "format": "csv",
    },
    "smoothing-gain": {
        "dim": 3, "decay": 2.0, "band_limit": 4096,
        "seed": 0, "out": None, "format": "csv",
    },
    "cap-scaling": {
        "dim": 3, "widths": None, "resolution": 4096,
        "seed": 0, "out": None, "format": "csv",
    },
}

_HANDLERS = {
    "eigen-check": cmd_eigen_check,
    "radon-oracle": cmd_radon_oracle,
    "ellipsoid-check": cmd_ellipsoid_check,
    "iterate": cmd_iterate,
    "multiplier-bound": cmd_multiplier_bound,
    "smoothing-gain": cmd_smoothing_gain,
    "cap-scaling": cmd_cap_scaling,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, help="seed for all randomness")
    sub.add_argument("--out", help="directory for report files")
    sub.add_argument("--format", choices=("json", "csv"),
                     help="stdout rendering (files are always written with --out)")
    sub.add_argument("--config", help="JSON config file; flags win over it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibodylab",
        description="numerical experiments for the intersection-body map "
                    "near the ball")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eigen-check",
                        help="spectral vs geometric transform eigenvalues")
    p.add_argument("--dims", type=_parse_ints, help="comma list of dimensions")
    p.add_argument("--k-max", dest="k_max", type=int, help="largest degree")
    _add_common(p)

    p = subs.add_parser("radon-oracle",
                        help="dual-route transform agreement on random inputs")
    p.add_argument("--dim", type=int)
    p.add_argument("--band-limit", dest="band_limit", type=int)
    p.add_argument("--trials", type=int)
    _add_common(p)

    p = subs.add_parser("ellipsoid-check",
                        help="numeric intersection body vs the ellipsoid closed form")
    p.add_argument("--axes", type=_parse_floats, help="three semiaxes, e.g. 1.2,1.0,0.8")
    p.add_argument("--band-limit", dest="band_limit", type=int)
    p.add_argument("--method", choices=("spectral", "geometric"))
    _add_common(p)

    p = subs.add_parser("iterate", help="run the corrected iteration")
    p.add_argument("--dim", type=int)
    p.add_argument("--band-limit", dest="band_limit", type=int)
    p.add_argument("--epsilon", type=float, help="L2 size of the starting perturbation")
    p.add_argument("--steps", type=int, help="maximum number of steps")
    p.add_argument("--stop-tol", dest="stop_tol", type=float)
    p.add_argument("--preset", choices=("z4-mix", "h2-only", "random-even"))
    p.add_argument("--perturb", help="explicit degree:amplitude list, e.g. 4:1,6:0.5")
    p.add_argument("--representation", choices=("zonal", "s2"))
    p.add_argument("--kill-h2", dest="kill_h2",
                   action=argparse.BooleanOptionalAction,
                   help="apply the degree-2 correction map each step")
    p.add_argument("--raw-power", dest="raw_power",
                   action=argparse.BooleanOptionalAction,
                   help="bare power recursion, no correction or rescale")
    p.add_argument("--method", choices=("spectral", "geometric"))
    p.add_argument("--alpha", type=float,
                   help="decay exponent to track (default 4 when dim is 3)")
    _add_common(p)

    p = subs.add_parser("multiplier-bound",
                        help="sup-norm ratios of the smooth cutoff over a corpus")
    p.add_argument("--dim", type=int)
    p.add_argument("--band-limit", dest="band_limit", type=int)
    p.add_argument("--n-list", dest="n_list", type=_parse_ints,
                   help="comma list of cutoff degrees")
    p.add_argument("--corpus-size", dest="corpus_size", type=int)
    _add_common(p)

    p = subs.add_parser("smoothing-gain",
                        help="tail-energy transfer slope of the transform")
    p.add_argument("--dim", type=int)
    p.add_argument("--decay", type=float, help="coefficient decay exponent")
    p.add_argument("--band-limit", dest="band_limit", type=int)
    _add_common(p)

    p = subs.add_parser("cap-scaling",
                        help="sup and gradient norms of cap bumps against L2 size")
    p.add_argument("--dim", type=int)
    p.add_argument("--widths", type=_parse_floats, help="comma list of cap widths")
    p.add_argument("--resolution", type=int)
    _add_common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args, _DEFAULTS[args.command])
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositivityError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
