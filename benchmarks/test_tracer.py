"""Tests of the benchmark's tracer and per-layer figures.

The tracer and the figure arithmetic are tested on a small synthetic
package whose modules are named like ibodylab's layers, so every expected
count follows from the synthetic code alone, not from how ibodylab works
today.  On ibodylab itself the tests check only that every binding is
wrapped and that tracing leaves results bitwise equal.

Runs under pytest from the repository root (with src/ on PYTHONPATH, as
the test suite is run) or as `python3 benchmarks/test_tracer.py`.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import layer_metrics  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402
from worker import Round, import_program  # noqa: E402

ib = import_program()

FAKE = "benchfake"
FAKE_MODULES = {
    "__init__.py": """
        from .analysis import sup_norm
        from .iteration import iterate_step
        from .sphharm import S2Function
    """,
    "quadrature.py": """
        _CACHE = {}

        def gauss_jacobi_rule(order):
            if order not in _CACHE:
                _CACHE[order] = [0.5] * order
            return _CACHE[order]
    """,
    "sphharm.py": """
        def legendre_table(band_limit, x):
            return [[0.0] * len(x)] * (band_limit + 1)

        def eval_s2_at_points(f, points):
            legendre_table(4, [p[2] for p in points])
            return [sum(f.coeffs) * p[0] for p in points]

        class S2Function:
            def __init__(self, coeffs):
                self.coeffs = coeffs

            @classmethod
            def from_coeffs(cls, coeffs):
                return cls(coeffs)

            def scaled(self, c):
                return S2Function([c * x for x in self.coeffs])
    """,
    "analysis.py": """
        from .quadrature import gauss_jacobi_rule
        from .sphharm import eval_s2_at_points

        def cutoff_profile(s):
            return 1.0 if s <= 1.0 else 0.0

        def sup_norm(f):
            gauss_jacobi_rule(8)
            return max(abs(v) for v in eval_s2_at_points(f, [(1.0, 0.0, 0.5)] * 10))

        def _helper(f):
            return f
    """,
    "iteration.py": """
        from .analysis import cutoff_profile, sup_norm

        def iterate_step(f):
            for k in range(3):
                cutoff_profile(k / 2.0)
            g = f.scaled(0.5)
            return g, sup_norm(g), sup_norm(g), sup_norm(f)
    """,
}


@pytest.fixture
def fake(tmp_path):
    """The synthetic package, imported fresh and traced."""
    pkg = tmp_path / FAKE
    pkg.mkdir()
    for name, text in FAKE_MODULES.items():
        (pkg / name).write_text(textwrap.dedent(text))
    sys.path.insert(0, str(tmp_path))
    import benchfake

    tr = Tracer()
    tr.install(FAKE)
    try:
        yield benchfake, tr
    finally:
        tr.uninstall()
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n == FAKE or n.startswith(FAKE + ".")]:
            del sys.modules[name]


def test_every_binding_of_a_function_gets_one_wrapper(fake):
    pkg, _ = fake
    wrapped = pkg.sup_norm
    assert hasattr(wrapped, "__traced__")
    assert pkg.analysis.sup_norm is wrapped and pkg.iteration.sup_norm is wrapped
    assert pkg.analysis.eval_s2_at_points is pkg.sphharm.eval_s2_at_points
    assert not hasattr(pkg.analysis._helper, "__traced__")
    assert hasattr(vars(pkg.S2Function)["scaled"], "__traced__")
    assert hasattr(vars(pkg.S2Function)["from_coeffs"].__func__, "__traced__")


def test_uninstall_restores_the_originals(fake):
    pkg, tr = fake
    wrapped = pkg.sup_norm
    tr.uninstall()
    original = wrapped.__traced__
    assert pkg.sup_norm is original and pkg.iteration.sup_norm is original
    assert not hasattr(vars(pkg.S2Function)["scaled"], "__traced__")


def test_calls_inside_the_package_are_traced(fake):
    pkg, tr = fake
    pkg.iterate_step(pkg.S2Function.from_coeffs([1.0, 2.0]))
    t = SpanTable(tr.names, tr.arrays())
    names = [t.names[i] for i in t.nid]
    assert names[:2] == ["sphharm.S2Function.from_coeffs", "iteration.iterate_step"]
    step = names.index("iteration.iterate_step")
    sups = [i for i, nm in enumerate(names) if nm == "analysis.sup_norm"]
    # reached through the iteration module's own binding
    assert len(sups) == 3 and all(t.parent[i] == step for i in sups)
    assert names.count("analysis.cutoff_profile") == 3
    assert names.count("sphharm.S2Function.scaled") == 1


def test_layer_figures_count_what_the_calls_did(fake):
    pkg, tr = fake
    f = pkg.S2Function.from_coeffs([1.0, 2.0])
    for _ in range(2):
        rnd = Round(tr)
        with tr.span("bench.round"):
            rnd.op(pkg.iterate_step, f)
        # calls between operations are not counted
        pkg.sup_norm(f)
    m = layer_metrics(tr, import_s=0.1, traced_wall_s=1.0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(m) == [x["name"] for x in spec["per_layer"]]
    # per round: one step with three cutoff calls and three sup norms, two
    # of them of the same function; each sup norm evaluates 10 points and
    # asks for one rule, which only the very first request had to build
    assert m["iteration.steps"] == 1.0
    assert m["analysis.cutoff_calls"] == 3.0
    assert m["analysis.sup_norm_calls"] == 3.0
    assert m["analysis.sup_norm_repeats"] == 1.0
    assert m["analysis.sup_norm_points"] == 30.0
    assert m["sphharm.points"] == 30.0
    assert m["sphharm.legendre_bytes_max"] == (4 + 1) ** 2 * 10 * 8
    assert m["quadrature.rule_requests"] == 3.0
    assert m["quadrature.rule_hit_ratio"] == 5.0 / 6.0
    assert m["iteration.step_s"] > 0.0 and m["iteration.telemetry_s"] > 0.0
    assert m["iteration.telemetry_s"] <= m["iteration.step_s"]
    assert m["radon.geometric_s"] == 0.0 and m["zonal.basis_values"] == 0.0
    assert m["traced.wall_s"] == 1.0


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("a"):
        with tr.span("b"):
            sum(range(20000))
        with tr.span("c"):
            with tr.span("b"):
                sum(range(20000))
    t = SpanTable(tr.names, tr.arrays())
    assert t.parent.tolist() == [-1, 0, 0, 2]
    assert t.last.tolist() == [3, 1, 3, 3]
    assert np.allclose(t.self_time[0], t.dur[0] - t.dur[1] - t.dur[2])
    assert np.allclose(t.self_time[2], t.dur[2] - t.dur[3])
    assert t.outermost(t.ids(["b"])).tolist() == [False, True, False, True]
    assert t.inside(t.ids(["c"])).tolist() == [False, False, False, True]
    assert np.all(t.self_time >= 0.0)


def test_every_ibodylab_function_binding_is_wrapped():
    modules = {n: m for n, m in sys.modules.items()
               if m is not None and (n == "ibodylab" or n.startswith("ibodylab."))}
    tr = Tracer()
    tr.install()
    try:
        wrapper_of = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith("ibodylab."):
                    continue
                assert hasattr(obj, "__traced__"), f"{mod.__name__}.{attr}"
                assert wrapper_of.setdefault(id(obj.__traced__), obj) is obj
        for cls in (ib.ZonalProfile, ib.S2Function):
            for attr, raw in vars(cls).items():
                fn = getattr(raw, "__func__", raw)
                if not attr.startswith("_") and callable(fn) and not isinstance(fn, type):
                    assert hasattr(fn, "__traced__"), f"{cls.__name__}.{attr}"
    finally:
        tr.uninstall()
    assert not hasattr(ib.sup_norm, "__traced__")


def api_outputs() -> list[np.ndarray]:
    """A few public calls across every layer, as arrays to compare."""
    rng = ib.make_rng(7)
    degs = ib.sh_degrees(6)
    coeffs = rng.standard_normal(degs.size) * 1e-3 / (1.0 + degs) ** 2
    coeffs[degs % 2 == 1] = 0.0
    coeffs[0] = 1.0
    s2_body = ib.StarBody(ib.S2Function.from_coeffs(coeffs))
    zc = np.zeros(13)
    zc[0], zc[4], zc[6] = 1.0, 1e-3, -5e-4
    z_body = ib.StarBody(ib.ZonalProfile.from_coeffs(4, zc))
    s2, rec = ib.iterate_step(s2_body, ib.IterationOptions(track_decay_alpha=4.0))
    z, zrec = ib.iterate_step(z_body, ib.IterationOptions())
    geo = ib.radon_geometric_zonal(z.profile)
    cut = ib.apply_multiplier(z.profile, ib.smooth_cutoff(4))
    return [s2.profile.coeffs, np.array([rec.l2, rec.sup, rec.u_alpha, rec.ratio]),
            z.profile.coeffs, np.array([zrec.l2, zrec.sup]), geo.coeffs,
            cut.coeffs, np.array([ib.sup_norm(cut)])]


def test_traced_results_are_bitwise_equal():
    plain = api_outputs()
    tr = Tracer()
    tr.install()
    try:
        traced = api_outputs()
    finally:
        tr.uninstall()
    assert "iteration.iterate_step" in tr.names
    for a, b in zip(plain, traced):
        assert a.tobytes() == b.tobytes()


def test_round_counts_failures_and_skips():
    rnd = Round()
    assert rnd.op(lambda: 1.0 / 0.0) is None
    rnd.skip(2)
    assert rnd.op(lambda: 3.0) == 3.0
    rnd.check(False, rnd.last, "property failed")
    rnd.check(False, rnd.last, "counted once")
    assert rnd.failed == [True, True, True, True]
    assert len(rnd.times) == 2


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
