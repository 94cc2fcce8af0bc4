"""The interface that ZonalProfile and S2Function share, and the package exports."""

import ast
import dataclasses
import inspect
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import ibodylab
from ibodylab import S2Function, ZonalProfile, eval_s2_at_points, sh_index, sup_norm
from helpers import random_even_s2, random_even_zonal, random_points_on_sphere

PROFILES = {
    "zonal-d3": lambda: random_even_zonal(3, 12, seed=31),
    "zonal-d5": lambda: random_even_zonal(5, 12, seed=32),
    "s2": lambda: random_even_s2(8, seed=33),
}


@pytest.fixture(params=sorted(PROFILES))
def f(request):
    return PROFILES[request.param]()


def _storage(f):
    return f.rule if isinstance(f, ZonalProfile) else f.grid


def _eval(f, pts):
    """f at unit points of R^d (zonal profiles read the last coordinate)."""
    if isinstance(f, ZonalProfile):
        return f.eval_at(pts[:, -1])
    return f.eval_at_points(pts)


def test_degrees_match_the_coefficient_layout(f):
    assert f.degrees.shape == f.coeffs.shape
    if isinstance(f, ZonalProfile):
        assert f.representation == "zonal"
        assert np.array_equal(f.degrees, np.arange(f.band_limit + 1))
    else:
        assert f.representation == "s2" and f.dim == 3
        for l in range(f.band_limit + 1):
            for m in range(-l, l + 1):
                assert f.degrees[sh_index(l, m)] == l


def test_with_coeffs_keeps_the_rule_or_grid(f):
    g = f.with_coeffs(list(2.0 * f.coeffs))
    assert type(g) is type(f) and g.dim == f.dim
    assert _storage(g) is _storage(f)
    assert np.array_equal(g.coeffs, 2.0 * f.coeffs)
    assert np.max(np.abs(g.values - 2.0 * f.values)) <= 1e-13


def test_values_are_synthesized_at_first_read(f):
    # profiles store coefficients; samples on the rule or grid are built
    # when first read and kept, so a profile nobody samples never builds them
    assert "values" not in vars(f)
    v = f.values
    assert f.values is v and v.shape == _storage(f).weights.shape
    for g in (f.with_coeffs(f.coeffs), f.power(2)):
        assert "values" not in vars(g)


def test_energies_sum_squares_per_degree(f):
    want = np.bincount(f.degrees, weights=f.coeffs**2, minlength=f.band_limit + 1)
    assert np.array_equal(f.energies(), want)


def test_square_matches_pointwise_square(f):
    sq = f.power(2)
    assert sq.band_limit == 2 * f.band_limit and sq.dim == f.dim
    pts = random_points_on_sphere(200, f.dim, seed=34)
    want = _eval(f, pts) ** 2
    assert np.max(np.abs(_eval(sq, pts) - want)) <= 1e-12 * np.max(np.abs(want))


def test_s2_power_rejects_an_unresolved_band():
    with pytest.raises(ValueError):
        random_even_s2(8, seed=35).power(4)


def _point_sup(f: S2Function) -> tuple[float, np.ndarray]:
    """max |f| over the refined grid and the poles, point by point, and
    the point where it is taken."""
    pts = f.refined_set()
    assert pts.shape == (f.refined_grid().weights.size + 2, 3)
    vals = np.abs(eval_s2_at_points(f.coeffs, pts))
    return float(vals.max()), pts[np.argmax(vals)]


def _local_sup(f: S2Function, x0: np.ndarray) -> float:
    """max |f| near the unit point x0, by a Nelder-Mead search in (theta, phi)."""
    from scipy.optimize import minimize

    def neg_abs(a):
        p = np.array([np.sin(a[0]) * np.cos(a[1]), np.sin(a[0]) * np.sin(a[1]), np.cos(a[0])])
        return -abs(float(eval_s2_at_points(f.coeffs, p)))

    start = [np.arccos(x0[2]), np.arctan2(x0[1], x0[0])]
    res = minimize(neg_abs, start, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-15})
    return -float(res.fun)


@pytest.mark.parametrize("band_limit", [8, 16, 32])
def test_s2_sup_norm_matches_point_evaluation(band_limit):
    """sup_norm beats the point-by-point scan of its refined set (its
    polish along the best node's colatitude column finds a larger value)
    and stays below the local maximum that point evaluation finds."""
    f = random_even_s2(band_limit, seed=36)
    scan, at = _point_sup(f)
    got = sup_norm(f)
    assert scan < got <= _local_sup(f, at) * (1.0 + 1e-12)


def test_package_exports_no_submodules():
    exported = {name: getattr(ibodylab, name) for name in ibodylab.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    assert {"S2Function", "ZonalProfile", "sup_norm", "run_iteration"} <= set(exported)


# Every public name, audited: a name joins this set only with a caller in
# the package, the command line, the demos or the benchmark.
SURFACE = {
    # quadrature, zonal and S^2 representations
    "JacobiRule", "S2Grid", "gauss_jacobi_rule", "s2_grid",
    "ZonalProfile", "default_rule", "sphere_exponent", "subsphere_rule",
    "zonal_basis_matrix",
    "S2Function", "analyze_s2", "default_s2_grid", "eval_s2_at_points",
    "sh_degrees", "sh_index", "synthesize_s2",
    # norms and multipliers
    "apply_multiplier", "approx_decay_norm", "cutoff_profile", "l2_norm",
    "smooth_cutoff", "sup_norm",
    # the Radon transform
    "SmoothingGainResult", "radon_geometric_s2", "radon_geometric_zonal",
    "radon_multiplier", "radon_spectral", "smoothing_gain_experiment",
    # bodies and the operator
    "PositivityError", "StarBody", "apply_linear_map", "ball_body",
    "ellipsoid_body", "ellipsoid_intersection_closed_form",
    "intersection_body",
    # the iteration and its experiments
    "CapScalingResult", "IterationOptions",
    "IterationReport", "StepRecord", "cap_scaling_exponents",
    "fit_degree2_correction", "iterate_step", "run_iteration",
    "make_rng",
}


def test_package_exports_exactly_the_audited_surface():
    assert len(SURFACE) == 44
    assert set(ibodylab.__all__) == SURFACE


# Every parameter with a default, audited: a new knob joins this set only with
# a caller in the package, the command line, the demos or the benchmark that
# sets it.  `smoothing_gain_experiment(tail_indices)` is the one exception:
# acceptance criterion 7 sets it, and that gate is fixed.
KNOBS = {
    "ball_body(representation)",
    "ellipsoid_body(band_limit)", "ellipsoid_intersection_closed_form(band_limit)",
    "intersection_body(method)",
    "cap_scaling_exponents(widths)", "cap_scaling_exponents(resolution)",
    "smoothing_gain_experiment(decay)", "smoothing_gain_experiment(band_limit)",
    "smoothing_gain_experiment(tail_indices)",
    "S2Function.from_values(grid)", "S2Function.from_coeffs(grid)",
    "ZonalProfile.from_values(rule)", "ZonalProfile.from_coeffs(rule)",
    "IterationOptions.mode",
    "IterationOptions.max_steps", "IterationOptions.stop_tol",
    "IterationOptions.method", "IterationOptions.track_decay_alpha",
}


def _defaulted(fn, owner: str) -> list[str]:
    return [f"{owner}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


def test_optional_parameters_are_exactly_the_audited_knobs():
    # exported functions, the public methods of exported classes, and the
    # fields of IterationOptions
    found = []
    for name in ibodylab.__all__:
        obj = getattr(ibodylab, name)
        if inspect.isfunction(obj):
            found += _defaulted(obj, name)
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                fn = getattr(raw, "__func__", raw)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found += _defaulted(fn, f"{name}.{attr}")
    found += [f"IterationOptions.{f.name}"
              for f in dataclasses.fields(ibodylab.IterationOptions)]
    assert len(KNOBS) == 18
    assert sorted(found) == sorted(KNOBS)


def _names_taken_from_the_package(path: Path) -> set[str]:
    """Names a script takes from ibodylab: `from ibodylab import ...` and the
    attributes of a module bound by `import ibodylab` or named `ib`."""
    tree = ast.parse(path.read_text())
    aliases = {"ib"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ibodylab" and not node.level:
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "ibodylab"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and not node.attr.startswith("__")):
            names.add(node.attr)
    return names


def test_demos_and_benchmark_use_only_exported_names():
    root = Path(__file__).resolve().parent.parent
    scripts = sorted(root.glob("demos/*.py")) + sorted(root.glob("benchmarks/*.py"))
    assert scripts
    missing = {f"{p.relative_to(root)}: {name}" for p in scripts
               for name in _names_taken_from_the_package(p) - set(ibodylab.__all__)}
    assert not missing


# The one export with no caller: `approx_decay_norm` defines the `u_alpha`
# cell of the iterate report (the library computes that cell from its
# private tail term), and its tests pin that cell's overflow behaviour.
UNCALLED_EXPORTS = {"approx_decay_norm"}


def test_every_export_has_a_caller():
    # the rule of SURFACE: each exported name is read, as a name or an
    # attribute, somewhere in the package, the demos or the benchmark
    root = Path(__file__).resolve().parent.parent
    scripts = ([p for p in sorted(root.glob("src/ibodylab/*.py")) if p.name != "__init__.py"]
               + sorted(root.glob("demos/*.py"))
               + [p for p in sorted(root.glob("benchmarks/*.py")) if p.name != "test_tracer.py"])
    used = set()
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert UNCALLED_EXPORTS <= set(ibodylab.__all__)
    assert sorted(set(ibodylab.__all__) - used) == sorted(UNCALLED_EXPORTS)
