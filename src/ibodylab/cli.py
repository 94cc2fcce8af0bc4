"""Command line driver for reproducible experiments.

Every command declares its options once, in the COMMANDS table: each
option's key names both its config key and its flag, and its kind gives
the flag's parser and the check that every resolved value must pass.  A
command resolves its configuration from those defaults, an optional JSON
config file, and command line flags, in that order (flags win).  With
--out DIR each command persists report.json (versioned), report.csv,
and config.resolved.json, which are byte-identical across re-runs of
the same resolved config; wall-clock metadata goes to the run_meta.json
sidecar only.  Exit codes: 0 all checks within tolerance; 1 a check
failed or a run stopped early, with the report written; 2 the
configuration or the start was rejected, and nothing is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import apply_multiplier, smooth_cutoff, sup_norm
from .bodies import (
    PositivityError,
    StarBody,
    ellipsoid_body,
    ellipsoid_intersection_closed_form,
    intersection_body,
)
from .iteration import (
    MODES,
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

SCHEMA_VERSION = 2

EIGEN_TOL = 1e-8
ORACLE_TOL = 1e-8
ELLIPSOID_TOL = 1e-6
MULTIPLIER_CAP = 10.0
SMOOTHING_SLOPE_TOL = 0.3
CAP_EXPONENT_TOL = 0.1
_PRESETS = ("z4-mix", "h2-only", "random-even")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# config plumbing

def _parse_list(convert, noun: str):
    """Flag type of a comma-separated list of `convert` values."""
    def parse(text: str) -> list:
        try:
            return [convert(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated {noun} list, got {text!r}") from exc
    return parse


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
            raise ConfigError(f"bad start entry {part!r}; expected one of "
                              f"{list(_PRESETS)} or degree:amplitude pairs") from exc
    return out  # an empty list is the zero perturbation, which _start_body rejects


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, returning one flat dict;
    every value must then pass the check of its option's kind."""
    options = COMMANDS[args.command][2] + _COMMON
    resolved = {key: default for key, _, default, _ in options}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            file_values = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(resolved)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_values)
    for key in resolved:
        val = getattr(args, key)
        if val is not None:
            resolved[key] = val
    for key, kind, default, _ in options:
        value = resolved[key]
        if value is None and default is None:
            continue
        if isinstance(kind, tuple):
            ok, want = value in kind, f"one of {list(kind)}"
        else:
            test, want = _KINDS[kind][1:]
            ok = test(value)
        if not ok:
            raise ConfigError(f"option {key!r} must be {want}, got {value!r}")
    return resolved


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _non_empty_list_of(test):
    return lambda v: isinstance(v, list) and bool(v) and all(map(test, v))


# option kind -> (flag type, test of a resolved value, what the test wants);
# a tuple kind lists the choices of a string option
_KINDS = {
    "int": (int, _is_int, "an integer"),
    "count": (int, lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "dim": (int, lambda v: _is_int(v) and v >= 3, "an integer >= 3"),
    "float": (float, _is_finite, "a finite number"),
    "ints": (_parse_list(int, "integer"), _non_empty_list_of(_is_int),
             "a non-empty list of integers"),
    "floats": (_parse_list(float, "number"), _non_empty_list_of(_is_finite),
               "a non-empty list of finite numbers"),
    "str": (None, lambda v: isinstance(v, str), "a string"),
}


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


def _random_even_zonal(d: int, band_limit: int, rng, decay: float = 1.5) -> ZonalProfile:
    # decay 1.5, the default, keeps the low degrees dominant, so cutting at
    # small n does not shrink sup norms enough to fake a growth trend at large n
    k = np.arange(band_limit + 1)
    coeffs = np.where(k % 2 == 0, rng.standard_normal(band_limit + 1), 0.0)
    return ZonalProfile.from_coeffs(d, coeffs * (1.0 + k) ** -decay)


def _random_s2(band_limit: int, rng, decay: float = 1.5) -> S2Function:
    # every degree and order, odd ones included
    degs = sh_degrees(band_limit)
    return S2Function.from_coeffs(rng.standard_normal(degs.size) * (1.0 + degs) ** -decay)


def cmd_radon_oracle(cfg: dict) -> int:
    d = cfg["dim"]
    band_limit = cfg["band_limit"]
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
            full = _random_s2(band_limit, rng)
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
    try:
        body = ellipsoid_body(a, band_limit=band_limit)
        numeric = intersection_body(body, method=cfg["method"])
        exact = ellipsoid_intersection_closed_form(a, band_limit=band_limit)
    except PositivityError as exc:
        raise ConfigError(
            f"band_limit {band_limit} is too small for the semiaxes {axes}: {exc}") from exc
    got, want = numeric.profile.values, exact.profile.values
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
    if band_limit < 4:
        raise ConfigError("band_limit must be >= 4")
    if not 0.0 < eps:
        raise ConfigError("epsilon must be positive")
    if rep == "s2" and d != 3:
        raise ConfigError("the s2 representation requires dim 3")
    start = cfg["start"]
    rng = make_rng(cfg["seed"])
    spread_m = start == "random-even"
    if start == "z4-mix":
        weights = {k: 1.0 for k in (4, 6, 8, 10, 12) if k <= band_limit}
    elif start == "h2-only":
        weights = {2: 1.0}
    elif spread_m:
        weights = {k: float(rng.standard_normal()) / (1.0 + k)
                   for k in range(2, band_limit + 1, 2)}
    else:
        weights = _parse_perturb(start)
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
    peak = float(np.abs(coeffs).max())
    if peak == 0.0:
        raise ConfigError("the perturbation is identically zero")
    coeffs /= peak  # so that the squares neither overflow nor underflow
    coeffs *= eps / float(np.sqrt((coeffs**2).sum()))
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
    opts = IterationOptions(
        mode=cfg["mode"],
        max_steps=cfg["steps"],
        stop_tol=cfg["stop_tol"],
        method=cfg["method"],
        track_decay_alpha=alpha,
    )
    report = run_iteration(body, opts)
    header = ["m", "l2", "sup", "ratio", "gamma", "q_norm", "trunc_loss", "u_alpha"]
    rows = [[m, r.l2, r.sup, None if math.isnan(r.ratio) else r.ratio,
             r.gamma, r.q_norm, r.trunc_loss, r.u_alpha]
            for m, r in enumerate(report.records)]
    predicted = 3.0 / (d + 1.0)
    summary = {
        "asymptotic_ratio": report.asymptotic_ratio,
        "predicted_dominant_ratio": predicted,
        "monotone_after_first": report.monotone_after_first,
        "stopped_reason": report.stopped_reason,
        "steps_run": len(report.records) - 1,
        "final_l2": report.records[-1].l2,
        "diverged": report.detail,
    }
    code = _emit("iterate", cfg, header, rows, summary,
                 report.stopped_reason in ("converged", "max_steps"))
    print(f"asymptotic ratio {report.asymptotic_ratio:.6f} "
          f"vs predicted dominant {predicted:.6f}", file=sys.stderr)
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
    res = smoothing_gain_experiment(d, decay=cfg["decay"], band_limit=cfg["band_limit"])
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
    res = cap_scaling_exponents(d, widths=cfg["widths"], resolution=cfg["resolution"])
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

_COMMON = [
    ("seed", "int", 0, "seed for all randomness"),
    ("out", "str", None, "directory for report files"),
    ("format", ("json", "csv"), "csv",
     "stdout rendering (files are always written with --out)"),
]

# command -> (handler, help, [(key, kind, default, help), ...]); each key is
# a config key and, with "-" for "_", a flag
COMMANDS = {
    "eigen-check": (cmd_eigen_check, "spectral vs geometric transform eigenvalues", [
        ("dims", "ints", [3, 4, 5, 7], "comma list of dimensions"),
        ("k_max", "int", 20, "largest degree"),
    ]),
    "radon-oracle": (cmd_radon_oracle, "dual-route transform agreement on random inputs", [
        ("dim", "dim", 3, None),
        ("band_limit", "int", 24, None),
        ("trials", "count", 3, None),
    ]),
    "ellipsoid-check": (
        cmd_ellipsoid_check, "numeric intersection body vs the ellipsoid closed form", [
            ("axes", "floats", [1.2, 1.0, 0.8], "three semiaxes, e.g. 1.2,1.0,0.8"),
            ("band_limit", "int", 32, None),
            ("method", ("spectral", "geometric"), "spectral", None),
        ]),
    "iterate": (cmd_iterate, "run the corrected iteration", [
        ("dim", "dim", 3, None),
        ("band_limit", "int", 16, None),
        ("epsilon", "float", 1e-3, "L2 size of the starting perturbation"),
        ("steps", "count", 10, "maximum number of steps"),
        ("stop_tol", "float", 1e-12, None),
        ("start", "str", "z4-mix", f"a preset ({', '.join(_PRESETS)}) or a "
         "degree:amplitude list, e.g. 4:1,6:0.5"),
        ("representation", ("zonal", "s2"), "zonal", None),
        ("mode", MODES, "corrected", "corrected (degree-2 map and mean rescale), "
         "uncorrected (mean rescale only) or raw (bare power recursion)"),
        ("method", ("spectral", "geometric"), "spectral", None),
        ("alpha", "float", None, "decay exponent to track (default 4 when dim is 3)"),
    ]),
    "multiplier-bound": (
        cmd_multiplier_bound, "sup-norm ratios of the smooth cutoff over a corpus", [
            ("dim", "dim", 3, None),
            ("band_limit", "int", 300, None),
            ("n_list", "ints", [4, 8, 16, 32, 64, 128, 256], "comma list of cutoff degrees"),
            ("corpus_size", "count", 50, None),
        ]),
    "smoothing-gain": (cmd_smoothing_gain, "tail-energy transfer slope of the transform", [
        ("dim", "dim", 3, None),
        ("decay", "float", 2.0, "coefficient decay exponent"),
        ("band_limit", "int", 4096, None),
    ]),
    "cap-scaling": (
        cmd_cap_scaling, "sup and gradient norms of cap bumps against L2 size", [
            ("dim", "dim", 3, None),
            ("widths", "floats", None, "comma list of cap widths"),
            ("resolution", "int", 4096, None),
        ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibodylab",
        description="numerical experiments for the intersection-body map "
                    "near the ball")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for key, kind, _, option_help in options + _COMMON:
            flag = "--" + key.replace("_", "-")
            if isinstance(kind, tuple):
                sub.add_argument(flag, dest=key, choices=kind, help=option_help)
            else:
                sub.add_argument(flag, dest=key, type=_KINDS[kind][0], help=option_help)
        sub.add_argument("--config", help="JSON config file; flags win over it")
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        code = COMMANDS[args.command][0](cfg)
    except (ValueError, PositivityError) as exc:
        # ConfigError, or a library check that rejects the input or the start;
        # exit 1 comes from _emit alone, so it always writes the report
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.get("out"):  # every command that returns has written its report there
        (Path(cfg["out"]) / "run_meta.json").write_text(json.dumps({
            "created_unix": time.time(),
            "argv": sys.argv[1:],
            "version": __version__,
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "platform": platform.platform(), "nproc": os.cpu_count(),
                            **{var: os.environ.get(var) for var in _THREAD_VARS}},
            "wall_s": time.perf_counter() - started,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        }, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
