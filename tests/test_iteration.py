"""Corrected power iteration: the step map, full runs, and the experiments."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibodylab import (
    DivergenceError,
    IterationOptions,
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
    run_iteration,
    sup_norm,
)
from helpers import (
    quadratic_form_profile,
    random_even_s2,
    random_even_zonal,
    s2_body,
    zonal_body,
)


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


# ---------------------------------------------------------------------------
# single steps

def test_step_fixes_ball():
    body = ball_body(3, 16)
    out, rec = iterate_step(body, IterationOptions())
    assert math.isnan(rec.ratio)
    assert rec.gamma == 1.0
    assert rec.q_norm == 0.0
    assert rec.sup <= 1e-12
    dev = out.profile.coeffs.copy()
    dev[0] -= 1.0
    assert np.max(np.abs(dev)) <= 1e-12


def test_step_contracts_degree_four_at_known_rate():
    eps = 1e-4
    body = zonal_body(3, 12, {4: eps})
    _, rec = iterate_step(body, IterationOptions())
    # dominant surviving mode contracts by (d-1)|v_4| = 3/4 per step
    assert rec.ratio == pytest.approx(0.75, abs=1e-3)


def test_step_degree_two_without_correction():
    eps = 1e-4
    body = zonal_body(3, 8, {2: eps})
    out, _ = iterate_step(body, IterationOptions(kill_h2=False))
    c2 = out.profile.coeffs[2]
    assert c2 / eps == pytest.approx(-1.0, abs=1e-2)


def test_step_degree_two_with_correction():
    eps = 1e-4
    body = zonal_body(3, 8, {2: eps})
    out, rec = iterate_step(body, IterationOptions(kill_h2=True))
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
        out, _ = iterate_step(body, IterationOptions(kill_h2=True))
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
    opts = IterationOptions(raw_power_mode=True, max_steps=4, kill_h2=False)
    rep = run_iteration(body, opts)
    for k, rec in enumerate(rep.records):
        lo = (1.0 - eps) ** ((3 - 1) ** k) - 1e-9
        hi = (1.0 + eps) ** ((3 - 1) ** k) + 1e-9
        assert lo <= rec.min_radial <= rec.max_radial <= hi


def test_raw_power_divergence_guard():
    body = zonal_body(3, 8, {2: 0.2})
    opts = IterationOptions(raw_power_mode=True, max_steps=12, kill_h2=False)
    with pytest.raises(DivergenceError) as ei:
        run_iteration(body, opts)
    rep = ei.value.report
    assert rep.stopped_reason == "diverged"
    assert len(rep.records) >= 2
    assert rep.records[-1].l2 > rep.records[-2].l2


def test_divergence_guard_sees_nan(monkeypatch):
    import ibodylab.iteration as iteration

    real_step = iteration.iterate_step

    def nan_step(body, opts):
        cur, rec = real_step(body, opts)
        return cur, replace(rec, l2=math.nan)

    monkeypatch.setattr(iteration, "iterate_step", nan_step)
    with pytest.raises(DivergenceError) as ei:
        run_iteration(zonal_body(3, 8, {4: 0.01}), IterationOptions(max_steps=5))
    rep = ei.value.report
    assert rep.stopped_reason == "diverged"
    assert len(rep.records) == 2
    assert math.isnan(rep.records[-1].l2)


def test_tracked_norms_stay_sane():
    opts = IterationOptions(max_steps=8, track_decay_alpha=4.0)
    rep = run_iteration(_mix_body(3), opts)
    for rec in rep.records:
        assert rec.u_alpha is not None and np.isfinite(rec.u_alpha)


@pytest.mark.parametrize("steps", [1, 3])
def test_s2_run_synthesizes_the_refined_grid_twice_per_state(steps, monkeypatch):
    # a state's radial range is measured once, for its record, and the next
    # step's guard reads it back from the body; the record's sup norm of
    # rho - 1 is the one other refined synthesis of each state
    body = s2_body(8, seed=41, scale=0.01)
    calls = []
    real = S2Function.refined_values

    def counted(self):
        calls.append(self.band_limit)
        return real(self)

    monkeypatch.setattr(S2Function, "refined_values", counted)
    rep = run_iteration(body, IterationOptions(max_steps=steps))
    assert len(rep.records) == steps + 1
    assert len(calls) == 2 + 2 * steps


def test_options_validation():
    with pytest.raises(ValueError):
        IterationOptions(max_steps=0)
    with pytest.raises(ValueError):
        IterationOptions(stop_tol=0.0)
    with pytest.raises(ValueError):
        IterationOptions(method="nope")


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
