"""Per-layer figures from the spans of a traced run.

The layers are the package's modules.  Every figure is taken per round
over the spans inside the benchmark's operation spans (so checks made
between operations do not count), except `ibodylab.import_s` and
`quadrature.setup_self_s`, which belong to set-up.  Rounds repeat the
same work, so the counts are exact.  "Self" time is a span's duration
minus the time its child spans cover; "_s" figures without "self" are
inclusive times of the outermost spans of the named functions.  The
figures come out in the order of BENCHMARK.json's `per_layer` list, which
gives their units; run.py checks that the two agree.
"""

from __future__ import annotations

import numpy as np

from tracer import SpanTable

LAYERS = ("quadrature", "zonal", "sphharm", "analysis", "radon", "bodies", "iteration")

POINT_EVALS = ("sphharm.eval_s2_at_points", "zonal.ZonalProfile.eval_at")
RULE_REQUESTS = ("quadrature.gauss_jacobi_rule", "quadrature.s2_grid")
GEOMETRIC = ("radon.radon_geometric_zonal", "radon.radon_geometric_s2")


def layer_metrics(tracer, import_s: float, traced_wall_s: float) -> dict:
    t = SpanTable(tracer.names, tracer.arrays())
    in_ops = t.inside(t.ids(["bench.op"]))
    rounds = max(int(t.ids(["bench.round"]).sum()), 1)

    def per_round(x) -> float:
        return float(x) / rounds

    def named(*names):
        return t.ids(names) & in_ops

    def inclusive(*names) -> float:
        return per_round(t.dur[t.outermost(named(*names))].sum())

    def count(*names) -> float:
        return per_round(named(*names).sum())

    def extra_inside(outer) -> float:
        return per_round(t.extra[named(*POINT_EVALS) & t.inside(named(*outer))].sum())

    out = {
        "ibodylab.import_s": import_s,
        "quadrature.setup_self_s": float(t.self_time[
            t.layer_mask("quadrature") & t.inside(t.ids(["bench.setup"]))].sum()),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_round(t.self_time[t.layer_mask(layer) & in_ops].sum())
    requests = named(*RULE_REQUESTS)
    out["quadrature.rule_requests"] = per_round(requests.sum())
    out["quadrature.rule_hit_ratio"] = (
        float(t.extra[requests].sum() / requests.sum()) if requests.any() else 1.0)
    basis = named("zonal.zonal_basis_matrix", "zonal.zonal_basis_derivatives")
    out["zonal.basis_values"] = per_round(t.extra[basis].sum())
    out["sphharm.transform_s"] = inclusive("sphharm.analyze_s2", "sphharm.synthesize_s2")
    out["sphharm.transforms"] = count("sphharm.analyze_s2", "sphharm.synthesize_s2")
    out["sphharm.point_eval_s"] = inclusive("sphharm.eval_s2_at_points")
    out["sphharm.points"] = per_round(t.extra[named("sphharm.eval_s2_at_points")].sum())
    tables = t.extra[named("sphharm.legendre_table")]
    out["sphharm.legendre_bytes_max"] = float(tables.max()) if tables.size else 0.0
    out["analysis.cutoff_calls"] = count("analysis.cutoff_profile")
    out["analysis.sup_norm_s"] = inclusive("analysis.sup_norm")
    out["analysis.sup_norm_calls"] = count("analysis.sup_norm")
    out["analysis.sup_norm_points"] = extra_inside(["analysis.sup_norm"])
    out["analysis.sup_norm_repeats"] = per_round(t.extra[named("analysis.sup_norm")].sum())
    out["radon.spectral_s"] = inclusive("radon.radon_spectral")
    out["radon.geometric_s"] = inclusive(*GEOMETRIC)
    out["radon.geometric_points"] = extra_inside(GEOMETRIC)
    out["bodies.power_step_s"] = per_round(t.self_time[named("bodies.radon_of_power")].sum())
    out["bodies.linear_map_s"] = inclusive("bodies.apply_linear_map")
    out["iteration.step_s"] = inclusive("iteration.iterate_step")
    out["iteration.fit_s"] = inclusive("iteration.fit_degree2_correction")
    out["iteration.steps"] = count("iteration.iterate_step")
    parent_in_iteration = (t.parent >= 0) & t.layer_mask("iteration", of=np.maximum(t.parent, 0))
    telemetry = t.layer_mask("analysis") & parent_in_iteration & in_ops
    out["iteration.telemetry_s"] = per_round(t.dur[telemetry].sum())
    out["traced.wall_s"] = traced_wall_s
    return out
