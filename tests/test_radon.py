"""Spherical Radon transform: eigenvalues, both quadrature routes, smoothing."""

import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibodylab import (
    S2Function,
    ZonalProfile,
    default_rule,
    l2_norm,
    make_rng,
    radon_geometric_s2,
    radon_geometric_zonal,
    radon_multiplier,
    radon_spectral,
    sh_degrees,
    sh_index,
    smoothing_gain_experiment,
)
from helpers import random_even_s2, random_even_zonal

ORACLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# the eigenvalue sequence itself

def _value(d: int, k: int) -> float:
    """v(d, k), the magnitude of the multiplier at even degree k."""
    return float(abs(radon_multiplier(d, k)[k]))


def test_coefficient_base_cases():
    for d in range(3, 51):
        assert _value(d, 0) == 1.0
        # (d-1) * value at degree 2 = 1, exactly
        assert abs((d - 1) * _value(d, 2) - 1.0) <= 1e-15


def test_coefficient_degree_four():
    assert _value(3, 4) == pytest.approx(3.0 / 8.0, abs=1e-16)
    for d in range(3, 11):
        got = (d - 1) * _value(d, 4)
        assert got == pytest.approx(3.0 / (d + 1), abs=1e-15)


def test_coefficient_ratio_recurrence():
    for d in (3, 5, 8):
        for k in range(2, 30, 2):
            ratio = _value(d, k) / _value(d, k - 2)
            assert ratio == pytest.approx((k - 1) / (d + k - 3), rel=1e-14)


def test_coefficient_high_degree_stays_finite():
    v = _value(3, 100)
    assert 0.0 < v < 1.0
    assert np.isfinite(v)


def test_multiplier_signs_and_decay():
    for d in (3, 4, 7):
        mu = radon_multiplier(d, 20)
        assert mu[0] == 1.0
        assert np.sum(np.abs(mu[1::2])) == 0.0
        for k in range(2, 21, 2):
            assert np.sign(mu[k]) == (-1.0) ** (k // 2)
        mags = np.abs(mu[0::2])
        assert np.all(np.diff(mags) < 0)


# ---------------------------------------------------------------------------
# spectral route

def test_spectral_fixes_constants():
    f = ZonalProfile.from_coeffs(5, np.array([1.0]))
    assert np.array_equal(radon_spectral(f).coeffs, f.coeffs)


def test_spectral_degree_two_flip():
    for d in (3, 4, 6):
        c = np.zeros(3)
        c[2] = 1.0
        f = ZonalProfile.from_coeffs(d, c)
        g = radon_spectral(f)
        assert g.coeffs[2] == pytest.approx(-1.0 / (d - 1), abs=1e-16)


def test_spectral_kills_odd_harmonics():
    c = np.zeros(16)
    c[sh_index(3, 1)] = 1.0
    f = S2Function.from_coeffs(c)
    g = radon_spectral(f)
    assert np.max(np.abs(g.coeffs)) == 0.0


# ---------------------------------------------------------------------------
# geometric route, checked against the spectral eigenvalues

def test_geometric_zonal_fixes_constants():
    f = ZonalProfile.from_coeffs(4, np.array([1.0, 0.0, 0.0]))
    g = radon_geometric_zonal(f)
    assert np.max(np.abs(g.values - 1.0)) <= 1e-13


def test_geometric_zonal_quadratic_closed_form():
    # t^2 maps to (1 - t^2)/(d - 1): the average of the square of a height
    # coordinate over the orthogonal subsphere
    for d in (3, 5):
        rule = default_rule(d, 8)
        f = ZonalProfile.from_values(d, 8, rule.nodes**2, rule)
        g = radon_geometric_zonal(f)
        want = (1.0 - rule.nodes**2) / (d - 1)
        assert np.max(np.abs(g.values - want)) <= 1e-12


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_geometric_zonal_reproduces_eigenvalues(d):
    t0 = time.time()
    mu = radon_multiplier(d, 20)
    worst = 0.0
    for k in range(0, 21, 2):
        c = np.zeros(21)
        c[k] = 1.0
        f = ZonalProfile.from_coeffs(d, c)
        g = radon_geometric_zonal(f)
        worst = max(worst, abs(g.coeffs[k] - mu[k]))
        off = np.abs(g.coeffs).sum() - abs(g.coeffs[k])
        assert off <= 1e-10
    assert worst <= ORACLE_TOL
    assert time.time() - t0 < 10.0


def test_geometric_s2_fixes_constants():
    f = S2Function.from_coeffs(np.array([1.0]))
    g = radon_geometric_s2(f)
    assert np.max(np.abs(g.values - 1.0)) <= 1e-13


def test_geometric_s2_degree_two_eigenvalue():
    for m in range(-2, 3):
        c = np.zeros(9)
        c[sh_index(2, m)] = 1.0
        f = S2Function.from_coeffs(c)
        g = radon_geometric_s2(f)
        assert np.max(np.abs(g.coeffs + 0.5 * c)) <= 1e-9


def test_geometric_s2_rotation_equivariance():
    # R commutes with rotations; compare transform-then-rotate against
    # rotate-then-transform on a random band 8 function
    from scipy.spatial.transform import Rotation

    rot = Rotation.from_euler("zy", [0.7, 0.4]).as_matrix()
    f = random_even_s2(8, seed=13)
    g = radon_geometric_s2(f)
    pts = f.grid.points().reshape(-1, 3)
    f_rot = S2Function.from_values(
        8, f.eval_at_points(pts @ rot.T).reshape(f.values.shape), f.grid
    )
    g_rot = radon_geometric_s2(f_rot)
    want = g.eval_at_points(pts @ rot.T).reshape(g.values.shape)
    assert np.max(np.abs(g_rot.values - want)) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_route_agreement_zonal(seed):
    f = random_even_zonal(3, 24, seed=seed)
    a = radon_spectral(f).coeffs
    b = radon_geometric_zonal(f).coeffs
    assert np.max(np.abs(a - b)) <= ORACLE_TOL


@pytest.mark.parametrize("seed", [0, 1])
def test_route_agreement_s2(seed):
    f = random_even_s2(16, seed=seed)
    a = radon_spectral(f).coeffs
    b = radon_geometric_s2(f).coeffs
    assert np.max(np.abs(a - b)) <= ORACLE_TOL


def _random_full_s2(band_limit: int, seed: int) -> S2Function:
    """Gaussian coefficients at every degree and order, odd ones included,
    damped like the `radon-oracle` inputs."""
    degs = sh_degrees(band_limit)
    coeffs = make_rng(seed).standard_normal(degs.size) * (1.0 + degs) ** -1.5
    return S2Function.from_coeffs(coeffs)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_route_agreement_s2_property(band_limit, seed):
    # every order m and odd degrees; the grid directions with |x_1| > 0.9
    # are where tangent_frame switches axes
    f = _random_full_s2(band_limit, seed)
    gap = np.abs(radon_geometric_s2(f).coeffs - radon_spectral(f).coeffs).max()
    assert gap <= ORACLE_TOL


def test_geometric_routes_never_read_the_multiplier_table(monkeypatch):
    s2 = _random_full_s2(12, seed=7)
    zonal = random_even_zonal(5, 24, seed=7)
    want = [radon_spectral(f).coeffs for f in (s2, zonal)]

    def refuse(*args, **kwargs):
        raise AssertionError("a geometric route read radon_multiplier")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ibodylab" and hasattr(module, "radon_multiplier"):
            monkeypatch.setattr(module, "radon_multiplier", refuse)
    got = [radon_geometric_s2(s2).coeffs, radon_geometric_zonal(zonal).coeffs]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= ORACLE_TOL


def test_self_adjointness():
    # <Rf, g> = <f, Rg>, checked through the geometric route so it does not
    # follow trivially from a symmetric multiplier
    f = random_even_zonal(3, 16, seed=3)
    g = random_even_zonal(3, 16, seed=4)
    lhs = float(radon_geometric_zonal(f).coeffs @ g.coeffs)
    rhs = float(f.coeffs @ radon_geometric_zonal(g).coeffs)
    assert abs(lhs - rhs) <= 1e-10
    fs = random_even_s2(12, seed=3)
    gs = random_even_s2(12, seed=4)
    lhs = float(radon_geometric_s2(fs).coeffs @ gs.coeffs)
    rhs = float(fs.coeffs @ radon_geometric_s2(gs).coeffs)
    assert abs(lhs - rhs) <= 1e-10


def test_l2_contraction():
    for seed in range(3):
        f = random_even_zonal(4, 20, seed=seed)
        assert l2_norm(radon_spectral(f)) <= l2_norm(f) + 1e-15


# ---------------------------------------------------------------------------
# smoothing: tail energy ratios follow a power law in the cut degree

@pytest.mark.parametrize("d,want", [(3, -1.0), (4, -2.0)])
def test_smoothing_energy_slope_small_window(d, want):
    res = smoothing_gain_experiment(d, decay=2.0, band_limit=1024,
                                    tail_indices=[8, 16, 32, 64])
    assert abs(res.energy_slope - want) <= 0.3
    assert abs(res.l2_slope - want / 2.0) <= 0.3
    assert res.l2_slope == pytest.approx(res.energy_slope / 2.0, abs=1e-12)


def test_smoothing_energy_slope_d5_default_window():
    # d = 5 needs larger cut degrees before the power law sets in; the
    # experiment defaults sit in that regime
    res = smoothing_gain_experiment(5)
    assert abs(res.energy_slope + 3.0) <= 0.3
    assert abs(res.l2_slope + 1.5) <= 0.3


def test_smoothing_ratios_decrease():
    res = smoothing_gain_experiment(3, decay=2.0, band_limit=1024,
                                    tail_indices=[8, 16, 32, 64])
    r = np.asarray(res.energy_ratios)
    assert np.all(r > 0)
    assert np.all(np.diff(r) < 0)


def test_smoothing_rejects_bad_arguments():
    with pytest.raises(ValueError):
        smoothing_gain_experiment(2)
    with pytest.raises(ValueError):
        smoothing_gain_experiment(3, decay=0.4)
    with pytest.raises(ValueError):
        smoothing_gain_experiment(3, band_limit=64, tail_indices=[32, 64])
