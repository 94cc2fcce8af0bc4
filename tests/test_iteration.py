"""Corrected power iteration: the step map, full runs, and the experiments."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ibodylab import (
    IterationOptions,
    PositivityError,
    S2Function,
    StarBody,
    ZonalProfile,
    ball_body,
    cap_scaling_exponents,
    default_rule,
    fit_degree2_correction,
    iterate_step,
    make_rng,
    radon_multiplier,
    radon_spectral,
    run_iteration,
    sup_norm,
)
from helpers import (
    dipping_zonal_body,
    quadratic_form_profile,
    random_even_s2,
    random_even_zonal,
    random_zonal_body,
    s2_body,
    zonal_body,
)
from ibodylab.iteration import MODES, _cap_hessian_norm, _deviation


# ---------------------------------------------------------------------------
# the degree-2 correction fit

def test_fit_zero_on_flat_profile():
    phi = ZonalProfile.from_coeffs(3, np.zeros(5))
    Q = fit_degree2_correction(phi)
    assert np.array_equal(Q, np.zeros((3, 3)))


def test_fit_recovers_height_squared():
    rule = default_rule(3, 4)
    phi = ZonalProfile.from_values(3, 4, rule.nodes**2 - 1.0 / 3.0, rule)
    Q = fit_degree2_correction(phi)
    want = np.diag([-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0])
    assert np.max(np.abs(Q - want)) <= 1e-12


def _mean_zero_input(rep: str, band_limit: int, seed: int, d: int = 3):
    """Random mean-zero profile with content in every degree up to the band."""
    rng = make_rng(seed)
    if rep == "zonal":
        c = rng.standard_normal(band_limit + 1)
        c[0] = 0.0
        return ZonalProfile.from_coeffs(d, c)
    c = rng.standard_normal((band_limit + 1) ** 2)
    c[0] = 0.0
    return S2Function.from_coeffs(c)


def _degree_two_part(phi):
    c = np.where(phi.degrees == 2, phi.coeffs, 0.0)
    return phi.with_coeffs(c)


def _check_fit(phi):
    Q = fit_degree2_correction(phi)
    assert np.array_equal(Q, Q.T)
    assert abs(np.trace(Q)) <= 1e-12
    form = quadratic_form_profile(Q, phi)
    want = _degree_two_part(phi)
    assert np.max(np.abs(form.coeffs - want.coeffs)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(3, 10), band_limit=st.integers(2, 24), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_degree_two_part_zonal(d, band_limit, seed):
    phi = _mean_zero_input("zonal", band_limit, seed, d)
    _check_fit(phi)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_degree_two_part_s2(band_limit, seed):
    phi = _mean_zero_input("s2", band_limit, seed)
    _check_fit(phi)


@pytest.mark.parametrize("rep", ["zonal", "s2"])
def test_fit_is_exactly_zero_without_degree_two(rep):
    phi = _mean_zero_input(rep, 8, seed=23, d=5)
    phi = phi.with_coeffs(np.where(phi.degrees == 2, 0.0, phi.coeffs))
    assert np.array_equal(fit_degree2_correction(phi), np.zeros((phi.dim, phi.dim)))


def test_fit_rejects_nonzero_mean():
    c = np.zeros(5)
    c[0] = 0.2
    phi = ZonalProfile.from_coeffs(3, c)
    with pytest.raises(ValueError):
        fit_degree2_correction(phi)


def test_linearized_spectrum_values():
    for d in (3, 4, 7):
        mu = (d - 1.0) * radon_multiplier(d, 12)
        assert mu[0] == pytest.approx(d - 1.0, abs=1e-15)
        assert mu[2] == pytest.approx(-1.0, abs=1e-15)
        assert mu[4] == pytest.approx(3.0 / (d + 1), abs=1e-15)
        assert np.sum(np.abs(mu[1::2])) == 0.0
        mags = np.abs(mu[2::2])
        assert np.all(np.diff(mags) < 0)


@pytest.mark.parametrize("d,band_limit,rep", [(3, 16, "zonal"), (5, 16, "zonal"), (3, 8, "s2")])
@pytest.mark.parametrize("method", ["spectral", "geometric"])
@pytest.mark.parametrize("raw", [False, True])
def test_jacobian_at_the_ball_is_the_multiplier(d, band_limit, rep, method, raw):
    # central differences of one step in every even coefficient of degree
    # >= 2 give the diagonal (d - 1) lambda_k; the correction zeroes the
    # degree-2 entry, the uncorrected and raw modes keep it at -1.  raw
    # selects the raw mode, else the two rescaling modes.  Measured at most
    # 1.2e-7 with h = 1e-4 (the O(h^2) remainder).
    ball = ball_body(d, band_limit, rep).profile
    deg = ball.degrees
    h = 1e-4
    for mode in ["raw"] if raw else ["corrected", "uncorrected"]:
        mu = (d - 1.0) * radon_multiplier(d, band_limit)[deg]
        if mode == "corrected":
            mu[deg == 2] = 0.0
        opts = IterationOptions(method=method, mode=mode)
        for j in np.flatnonzero((deg >= 2) & (deg % 2 == 0)):
            outs = []
            for step in (h, -h):
                c = ball.coeffs.copy()
                c[j] += step
                outs.append(iterate_step(StarBody(ball.with_coeffs(c)), opts)[0].profile.coeffs)
            column = (outs[0] - outs[1]) / (2.0 * h)
            column[j] -= mu[j]
            assert np.abs(column).max() <= 1e-6, (mode, j, deg[j])


# ---------------------------------------------------------------------------
# single steps

def test_step_fixes_ball():
    body = ball_body(3, 16)
    for mode in MODES:
        out, rec = iterate_step(body, IterationOptions(mode=mode))
        assert math.isnan(rec.ratio), mode
        assert rec.gamma == 1.0, mode
        assert rec.q_norm == 0.0, mode
        assert rec.sup <= 1e-12, mode
        dev = out.profile.coeffs.copy()
        dev[0] -= 1.0
        assert np.max(np.abs(dev)) <= 1e-12, mode


def test_step_contracts_degree_four_at_known_rate():
    eps = 1e-4
    body = zonal_body(3, 12, {4: eps})
    _, rec = iterate_step(body, IterationOptions())
    # dominant surviving mode contracts by (d-1)|v_4| = 3/4 per step
    assert rec.ratio == pytest.approx(0.75, abs=1e-3)


def test_step_degree_two_without_correction():
    eps = 1e-4
    body = zonal_body(3, 8, {2: eps})
    out, _ = iterate_step(body, IterationOptions(mode="uncorrected"))
    c2 = out.profile.coeffs[2]
    assert c2 / eps == pytest.approx(-1.0, abs=1e-2)


def test_step_degree_two_with_correction():
    eps = 1e-4
    body = zonal_body(3, 8, {2: eps})
    out, rec = iterate_step(body, IterationOptions(mode="corrected"))
    e2 = float(out.profile.energies()[2])
    assert e2 <= (10.0 * eps**2) ** 2
    assert rec.q_norm > 0


def test_step_rejects_large_deviation():
    body = zonal_body(3, 8, {4: 0.2})  # sup of Z4 part exceeds 1/2
    with pytest.raises(ValueError):
        iterate_step(body, IterationOptions())


def test_step_rejects_large_correction():
    # sup stays below 1/2 but the fitted degree-2 form does not
    body = zonal_body(3, 8, {2: 0.23, 4: -0.02})
    with pytest.raises(ValueError, match="correction"):
        iterate_step(body, IterationOptions())


def _deviation_l2(body) -> float:
    c = body.profile.coeffs.copy()
    c[0] -= 1.0
    return float(np.sqrt(np.sum(c * c)))


def test_step_gamma_near_one():
    body = zonal_body(3, 12, {4: 1e-3, 6: 5e-4})
    phi_l2 = _deviation_l2(body)
    _, rec = iterate_step(body, IterationOptions())
    assert rec.gamma > 0
    assert abs(rec.gamma - 1.0) <= 5.0 * phi_l2


# ---------------------------------------------------------------------------
# full runs

def test_run_on_ball_converges_immediately():
    rep = run_iteration(ball_body(3, 8), IterationOptions(max_steps=12))
    assert rep.stopped_reason == "converged"
    assert rep.detail is None
    assert len(rep.records) == 1
    assert rep.records[0].l2 == 0.0


def _mix_body(d: int) -> StarBody:
    eps = 1e-3 / np.sqrt(3.0)
    return zonal_body(d, 16, {4: eps, 6: eps, 8: eps})


def test_run_d3_reaches_dominant_rate():
    rep = run_iteration(_mix_body(3), IterationOptions(max_steps=10))
    assert abs(rep.asymptotic_ratio - 0.75) <= 0.02
    assert rep.monotone_after_first
    assert rep.stopped_reason == "max_steps"
    assert rep.detail is None


def test_run_d4_reaches_dominant_rate():
    rep = run_iteration(_mix_body(4), IterationOptions(max_steps=10))
    assert abs(rep.asymptotic_ratio - 0.60) <= 0.02


def test_run_matches_linear_oracle():
    # at eps = 1e-3 the run should track the linearized dynamics: each mode
    # scaled by its multiplier, h2 removed, independently recomputed here
    d = 3
    rep = run_iteration(_mix_body(d), IterationOptions(max_steps=10))
    mu = np.abs((d - 1.0) * radon_multiplier(d, 16))
    mu[2] = 0.0  # killed by the correction
    c = _mix_body(d).profile.coeffs.copy()
    c[0] = 0.0
    prev = float(np.sqrt(np.sum(c * c)))
    for rec in rep.records[1:]:
        c = c * mu
        cur = float(np.sqrt(np.sum(c * c)))
        assert rec.ratio == pytest.approx(cur / prev, abs=5e-3)
        prev = cur


def test_run_per_step_invariants():
    rep = run_iteration(_mix_body(3), IterationOptions(max_steps=10))
    prev = None
    for rec in rep.records:
        assert rec.l2 >= 0 and rec.sup >= 0
        assert rec.gamma > 0
        assert rec.q_matrix.shape == (3, 3)
        assert abs(np.trace(rec.q_matrix)) <= 1e-12
        assert np.max(np.abs(rec.q_matrix - rec.q_matrix.T)) <= 1e-12
        if prev is not None:
            assert abs(rec.gamma - 1.0) <= 5.0 * prev.l2
            assert rec.ratio <= 0.8
        prev = rec


def test_correction_residual_quadratic_in_eps():
    # energy left at degree 2 after one corrected step falls at least a
    # factor 5 per epsilon decade, i.e. behaves like eps^2 not eps
    resid = []
    for eps in (1e-2, 1e-3, 1e-4):
        body = zonal_body(3, 8, {2: eps})
        out, _ = iterate_step(body, IterationOptions(mode="corrected"))
        resid.append(np.sqrt(float(out.profile.energies()[2])) / eps)
    assert resid[1] <= resid[0] / 5.0
    assert resid[2] <= resid[1] / 5.0


def test_raw_power_envelope():
    eps = 0.05
    body = zonal_body(3, 16, {4: eps / 3.0})
    # scale so the initial deviation has sup exactly eps
    phi = body.profile.coeffs.copy()
    phi[0] = 0.0
    f = body.profile.with_coeffs(phi)
    scale = eps / sup_norm(f)
    c = phi * scale
    c[0] = 1.0
    body = StarBody(body.profile.with_coeffs(c))
    opts = IterationOptions(mode="raw", max_steps=4)
    rep = run_iteration(body, opts)
    for k, rec in enumerate(rep.records):
        lo = (1.0 - eps) ** ((3 - 1) ** k) - 1e-9
        hi = (1.0 + eps) ** ((3 - 1) ** k) + 1e-9
        assert lo <= rec.min_radial <= rec.max_radial <= hi


def test_raw_power_divergence_guard():
    body = zonal_body(3, 8, {2: 0.2})
    opts = IterationOptions(mode="raw", max_steps=12)
    rep = run_iteration(body, opts)
    assert rep.stopped_reason == "diverged"
    assert len(rep.records) >= 2
    assert rep.records[-1].l2 > rep.records[-2].l2
    assert rep.detail.startswith("L2 deviation grew from")
    assert f"at step {len(rep.records) - 1};" in rep.detail


@pytest.mark.parametrize("rep,d,band_limit", [("zonal", 3, 24), ("zonal", 5, 24), ("s2", 3, 8)])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_raw_step_is_the_truncated_transform_of_the_power(rep, d, band_limit, seed):
    # raw mode scales the mean-normalized operator back by the mean it
    # divided by; that must reproduce R(rho^(d-1)) truncated to the band
    body = (s2_body(band_limit, seed, scale=0.2) if rep == "s2"
            else random_zonal_body(d, band_limit, seed, scale=0.2))
    out, rec = iterate_step(body, IterationOptions(mode="raw"))
    full = radon_spectral(body.profile.power(d - 1))
    kept = full.degrees <= band_limit
    want = full.coeffs[kept]
    assert np.max(np.abs(out.profile.coeffs - want)) <= 1e-15 * np.abs(want).max()
    assert rec.gamma == 1.0
    tail = float(np.sqrt((full.coeffs[~kept] ** 2).sum()))
    assert abs(rec.trunc_loss - tail) <= 1e-14 * tail


def test_nonpositive_step_stops_with_the_partial_report():
    # the bare recursion from 1 + Z_2 in d = 7 (radial range 0.13 to 6.2)
    # has a transform that dips below 0 within band 11
    rep = run_iteration(zonal_body(7, 11, {2: 1.0}), IterationOptions(mode="raw", max_steps=3))
    assert rep.stopped_reason == "nonpositive"
    assert len(rep.records) == 1
    assert rep.detail.startswith("radial function not strictly positive")
    assert rep.detail.endswith("at step 1")


def test_start_that_dips_between_nodes_raises():
    # positive at every storage node, negative on the refined set: a start
    # that fails raises, as the guards do
    with pytest.raises(PositivityError, match="on the refined set"):
        run_iteration(dipping_zonal_body(), IterationOptions())


def test_state_that_dips_between_nodes_stops_the_run(monkeypatch):
    # a later state that passes the storage-node check of the constructor
    # but dips below 0 between nodes stops the run as nonpositive
    import ibodylab.iteration as iteration

    dip = dipping_zonal_body()
    monkeypatch.setattr(iteration, "intersection_body", lambda body, method: StarBody(
        dip.profile, meta={"trunc_loss": 0.0, "mean_power": 1.0}))
    rep = run_iteration(zonal_body(3, 4, {2: 0.01}), IterationOptions(max_steps=3))
    assert rep.stopped_reason == "nonpositive"
    assert len(rep.records) == 1
    assert "on the refined set" in rep.detail and rep.detail.endswith("at step 1")


def test_divergence_guard_sees_nan(monkeypatch):
    import ibodylab.iteration as iteration

    real_step = iteration.iterate_step

    def nan_step(body, opts):
        cur, rec = real_step(body, opts)
        return cur, replace(rec, l2=math.nan)

    monkeypatch.setattr(iteration, "iterate_step", nan_step)
    rep = run_iteration(zonal_body(3, 8, {4: 0.01}), IterationOptions(max_steps=5))
    assert rep.stopped_reason == "diverged"
    assert len(rep.records) == 2
    assert math.isnan(rep.records[-1].l2)
    assert rep.detail.startswith("L2 deviation grew from")
    assert "to nan at step 1;" in rep.detail


def test_guard_failure_after_the_start_stops_with_the_partial_report():
    # the uncorrected run from 1 + 0.0961 Z_2 in d = 7 runs two steps; the
    # second state deviates from 1 by 1/2 or more, so step 3 is undefined
    rep = run_iteration(zonal_body(7, 6, {2: 0.0961}),
                        IterationOptions(mode="uncorrected", max_steps=4))
    assert rep.stopped_reason == "left_domain"
    assert len(rep.records) == 3
    assert max(1.0 - rep.records[-1].min_radial, rep.records[-1].max_radial - 1.0) >= 0.5
    assert rep.detail == ("the radial function deviates from 1 by 1/2 or more; "
                          "the step is only defined near the ball at step 3")


@pytest.mark.parametrize("pert,reason,message", [
    ({4: 0.2}, "left_domain", "deviates from 1 by 1/2 or more"),
    ({2: 0.23, 4: -0.02}, "correction_too_large", "correction norm"),
])
def test_each_guard_rejects_the_start_and_stops_a_later_state(pert, reason, message,
                                                              monkeypatch):
    import ibodylab.iteration as iteration

    # a start that fails a guard is rejected before any step runs
    with pytest.raises(ValueError, match=message):
        run_iteration(zonal_body(3, 8, pert), IterationOptions())
    # a later state that fails it stops the run with the states before it
    real_step = iteration.iterate_step

    def step_to_the_edge(body, opts):
        _, rec = real_step(body, opts)
        return zonal_body(3, 8, pert), rec

    monkeypatch.setattr(iteration, "iterate_step", step_to_the_edge)
    rep = run_iteration(zonal_body(3, 8, {4: 0.01}), IterationOptions(max_steps=5))
    assert rep.stopped_reason == reason
    assert len(rep.records) == 2
    assert message in rep.detail and rep.detail.endswith("at step 2")


def test_tracked_norms_stay_sane():
    opts = IterationOptions(max_steps=8, track_decay_alpha=4.0)
    rep = run_iteration(_mix_body(3), opts)
    for rec in rep.records:
        assert rec.u_alpha is not None and np.isfinite(rec.u_alpha)


@pytest.mark.parametrize("steps", [1, 3])
def test_s2_run_synthesizes_the_refined_grid_once_per_state(steps, monkeypatch):
    # a state's deviation rho - 1 is scanned once, for its record (sup norm
    # and radial range), and the next step's guard reads the range back from
    # the body: one refined synthesis per state, in `_refined_scan`'s reused
    # buffers
    body = s2_body(8, seed=41, scale=0.01)
    calls = []
    real = S2Function._refined_scan

    def counted(self):
        calls.append(self.band_limit)
        return real(self)

    monkeypatch.setattr(S2Function, "_refined_scan", counted)
    rep = run_iteration(body, IterationOptions(max_steps=steps))
    assert len(rep.records) == steps + 1
    assert len(calls) == 1 + steps


@pytest.mark.parametrize("steps", [1, 3])
def test_zonal_run_reads_the_refined_table_once_per_state(steps, monkeypatch):
    # the zonal counterpart: one product with the refined basis table per
    # state, shared by the record's sup norm, its radial range and the guard
    body = zonal_body(5, 12, {2: 0.05, 4: -0.02})
    calls = []
    real = ZonalProfile.refined_values

    def counted(self):
        calls.append(self.band_limit)
        return real(self)

    monkeypatch.setattr(ZonalProfile, "refined_values", counted)
    rep = run_iteration(body, IterationOptions(max_steps=steps))
    assert len(rep.records) == steps + 1
    assert len(calls) == 1 + steps


def test_s2_corrected_step_memory():
    # a step peaked at 6.0 MB when the linear map evaluated the body at all
    # 10 585 storage-grid points (14.1 MB with 16 384-point evaluation
    # chunks); with the map in its singular frame it peaks at 2.1 MB, the
    # tables a first step builds included
    body = s2_body(32, 1, 0.02)
    tracemalloc.start()
    try:
        _, rec = iterate_step(body, IterationOptions())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.q_norm > 0.0
    assert peak < 4e6


def test_s2_telemetry_scans_allocate_no_refined_grid_array():
    # after one warm call, the record's sup norm of rho - 1 and a fresh
    # body's radial range scan the 289 x 577 refined grid in reused buffers:
    # together they peak at 0.16 MB, below one refined-grid array (1.33 MB),
    # where synthesizing fresh arrays peaked at 2.8 MB
    body = s2_body(32, 1, 0.02)
    dev = _deviation(body.profile)
    sup_norm(dev)
    tracemalloc.start()
    try:
        sup_norm(dev)
        StarBody(body.profile).radial_range
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dev.refined_grid().weights.nbytes


def test_options_validation():
    with pytest.raises(ValueError):
        IterationOptions(max_steps=0)
    with pytest.raises(ValueError):
        IterationOptions(stop_tol=0.0)
    with pytest.raises(ValueError):
        IterationOptions(method="nope")
    with pytest.raises(ValueError, match="unknown mode"):
        IterationOptions(mode="Raw")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_options_reject_non_finite_decay_alpha(alpha):
    # a NaN exponent would record u_alpha == sup at every step
    with pytest.raises(ValueError):
        IterationOptions(track_decay_alpha=alpha)


# ---------------------------------------------------------------------------
# cap scaling

def test_cap_scaling_exponents_d3():
    res = cap_scaling_exponents(3)
    assert abs(res.exponent_sup - 2.0 / 3.0) <= 0.1
    assert abs(res.exponent_grad - 1.0 / 3.0) <= 0.1
    finer = cap_scaling_exponents(3, resolution=8192)
    assert abs(finer.exponent_sup - res.exponent_sup) <= 0.02
    assert abs(finer.exponent_grad - res.exponent_grad) <= 0.02


def test_cap_scaling_validation():
    with pytest.raises(ValueError):
        cap_scaling_exponents(2)
    with pytest.raises(ValueError):
        cap_scaling_exponents(3, widths=[0.3])
    with pytest.raises(ValueError):
        cap_scaling_exponents(3, widths=[0.3, 2.0])
    with pytest.raises(ValueError):
        cap_scaling_exponents(3, resolution=32)


@pytest.mark.parametrize("widths", [[0.1, 0.1], [0.2, 0.2, 0.2]])
def test_cap_scaling_needs_two_distinct_widths(widths):
    # equal abscissae leave the slope undetermined
    with pytest.raises(ValueError, match="distinct widths"):
        cap_scaling_exponents(3, widths=widths)


_MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-100, 1e100))
_SIGNED = st.tuples(_MAGNITUDE, st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from((3, 4, 7)), f_t=_SIGNED, f_tt=_SIGNED, azim=_SIGNED)
@example(d=3, f_t=0.0, f_tt=0.0, azim=0.0)
@example(d=4, f_t=0.0, f_tt=-2.0, azim=1.0)
@example(d=7, f_t=1e-100, f_tt=0.0, azim=-1e-100)
@example(d=3, f_t=-1e100, f_tt=1e100, azim=1e-100)
@example(d=4, f_t=1e100, f_tt=-1e-100, azim=0.0)
def test_cap_hessian_norm_is_the_largest_eigenvalue(d, f_t, f_tt, azim):
    # the closed form against eigvalsh of the whole d x d ambient Hessian:
    # the radial-polar block plus azim on each azimuthal direction
    m = np.zeros((d, d))
    m[0, 1] = m[1, 0] = -f_t
    m[1, 1] = f_tt
    m[range(2, d), range(2, d)] = azim
    want = np.abs(np.linalg.eigvalsh(m)).max(-1)
    got = _cap_hessian_norm(np.array([f_t]), np.array([f_tt]), np.array([azim]))[0]
    assert abs(got - want) <= 1e-14 * want
