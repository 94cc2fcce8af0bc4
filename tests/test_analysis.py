"""Fourier multipliers and the norm estimators."""

import numpy as np
import pytest

from ibodylab import (
    ZonalProfile,
    apply_multiplier,
    approx_decay_norm,
    cutoff_profile,
    l2_norm,
    smooth_cutoff,
    sup_norm,
    zonal_basis_matrix,
)
from helpers import random_even_s2, random_even_zonal


# ---------------------------------------------------------------------------
# norms

def test_norms_on_constant():
    f = ZonalProfile.from_coeffs(3, np.array([2.0]))
    assert f.coeffs[0] == pytest.approx(2.0, abs=1e-15)
    assert l2_norm(f) == pytest.approx(2.0, abs=1e-15)
    assert sup_norm(f) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("d,k", [(3, 2), (3, 12), (4, 6), (5, 8)])
def test_basis_modes_have_unit_l2_and_zero_mean(d, k):
    c = np.zeros(k + 1)
    c[k] = 1.0
    f = ZonalProfile.from_coeffs(d, c)
    assert l2_norm(f) == pytest.approx(1.0, abs=1e-11)
    assert abs(f.coeffs[0]) <= 1e-14


def test_degree_energies_partition_norm():
    f = random_even_zonal(3, 20, seed=8)
    e = f.energies()
    assert e.shape == (21,)
    assert np.all(e >= 0)
    assert float(e.sum()) == pytest.approx(l2_norm(f) ** 2, abs=1e-12)
    g = random_even_s2(10, seed=8)
    eg = g.energies()
    assert float(eg.sum()) == pytest.approx(l2_norm(g) ** 2, abs=1e-12)


def test_sup_norm_finds_interior_maximum():
    # -Z2 peaks between the gauss nodes' reach at t = 0 for d = 3
    c = np.zeros(3)
    c[0], c[2] = 0.0, -1.0
    f = ZonalProfile.from_coeffs(3, c)
    want = abs(zonal_basis_matrix(3, 2, 1.0)[2, 0])  # max magnitude sits at the poles
    assert sup_norm(f) == pytest.approx(float(want), rel=1e-10)


# ---------------------------------------------------------------------------
# multipliers

def test_multiplier_identity_is_bitwise():
    f = random_even_zonal(3, 16, seed=1)
    g = apply_multiplier(f, lambda k: np.ones(k.shape))
    assert np.array_equal(g.coeffs, f.coeffs)


def test_multiplier_mean_projector():
    f = random_even_zonal(4, 12, seed=2)
    g = apply_multiplier(f, lambda k: np.where(k == 0, 1.0, 0.0))
    assert g.coeffs[0] == f.coeffs[0]
    assert np.sum(np.abs(g.coeffs[1:])) == 0.0


@pytest.mark.parametrize("n", [1, 4, 256])
def test_smooth_cutoff_one_call_is_bitwise_per_degree(n):
    f = random_even_zonal(3, 300, seed=n)
    m, calls = smooth_cutoff(n), []

    def counted(k):
        calls.append(k)
        return m(k)

    g = apply_multiplier(f, counted)
    assert len(calls) == 1
    per_degree = np.array([float(m(k)) for k in range(301)])
    assert np.array_equal(g.coeffs, f.coeffs * per_degree)


def test_multiplier_rejects_wrong_shape():
    # m is called once on the degree array and must answer per degree
    f = random_even_zonal(3, 12, seed=4)
    for wrong in (lambda k: 1.0, lambda k: np.ones(k.size + 1)):
        with pytest.raises(ValueError):
            apply_multiplier(f, wrong)


def test_multiplier_composition_is_pointwise_product():
    f = random_even_s2(8, seed=4)
    m1 = lambda k: 1.0 / (1.0 + k)
    m2 = lambda k: np.cos(0.3 * k)
    g = apply_multiplier(apply_multiplier(f, m1), m2)
    h = apply_multiplier(f, lambda k: m1(k) * m2(k))
    assert np.max(np.abs(g.coeffs - h.coeffs)) <= 1e-15


def test_cutoff_profile_shape():
    assert cutoff_profile(0.0) == 1.0
    assert cutoff_profile(0.5) == 1.0
    assert cutoff_profile(1.0) == 1.0
    assert cutoff_profile(1.5) == 0.5  # symmetric midpoint of the ramp
    assert cutoff_profile(2.0) == 0.0
    assert cutoff_profile(3.0) == 0.0
    x = np.linspace(1.0, 2.0, 201)
    vals = np.array([cutoff_profile(v) for v in x])
    assert np.all(np.diff(vals) <= 0)
    assert np.all((vals >= 0) & (vals <= 1))
    # smooth start of the ramp: the profile leaves 1 with all derivatives 0
    assert abs(cutoff_profile(1.05) - 1.0) <= 1e-8


def test_smooth_cutoff_fixes_low_degrees_exactly():
    f = random_even_zonal(3, 24, seed=5)
    g = apply_multiplier(f, smooth_cutoff(24))
    assert np.array_equal(g.coeffs, f.coeffs)
    h = apply_multiplier(f, smooth_cutoff(8))
    assert np.array_equal(h.coeffs[: 9], f.coeffs[: 9])
    assert np.sum(np.abs(h.coeffs[17:])) == 0.0  # degrees > 2n are gone


def test_smooth_cutoff_is_l2_contraction():
    for seed in range(4):
        f = random_even_s2(16, seed=seed)
        g = apply_multiplier(f, smooth_cutoff(6))
        assert l2_norm(g) <= l2_norm(f) + 1e-12


def test_smooth_cutoff_rejects_bad_n():
    with pytest.raises(ValueError):
        smooth_cutoff(0)
    with pytest.raises(ValueError):
        smooth_cutoff(-3)


def test_cutoff_corpus_sup_bound():
    # 50 random band 300 profiles, the cutoff family applied at n = 4..256:
    # sup norms may grow but stay within a uniform constant, the growth is
    # not monotone in n, and degrees <= n pass through untouched
    n_list = [4, 8, 16, 32, 64, 128, 256]
    band = 300
    ratios = np.empty((50, len(n_list)))
    fix_err = 0.0
    for i in range(50):
        f = random_even_zonal(3, band, seed=100 + i, decay=1.5)
        base = sup_norm(f)
        for j, n in enumerate(n_list):
            g = apply_multiplier(f, smooth_cutoff(n))
            ratios[i, j] = sup_norm(g) / base
            fix_err = max(fix_err, float(np.max(np.abs(g.coeffs[: n + 1] - f.coeffs[: n + 1]))))
    assert fix_err == 0.0
    assert ratios.max() <= 10.0
    med = np.median(ratios, axis=0)
    assert med[-1] <= 1.5 * med[0]
    col_max = ratios.max(axis=0)
    assert np.any(np.diff(col_max) < 0)


# ---------------------------------------------------------------------------
# decay norms and the interpolation bound

def test_decay_norm_of_constant():
    f = ZonalProfile.from_coeffs(3, np.array([1.0]))
    for alpha in (0.0, 1.0, 2.5):
        assert approx_decay_norm(f, alpha) == pytest.approx(1.0, abs=1e-12)


def test_decay_norm_of_single_high_mode():
    c = np.zeros(9)
    c[8] = 1.0
    f = ZonalProfile.from_coeffs(3, c)
    # the l2 tail at any cut n <= 7 is the unit coefficient, and the tail is
    # empty above 8, so the weighted-tail part peaks at n = 7 with value
    # 7^alpha; the norm is that against the plain sup, whichever is larger
    s = sup_norm(f)  # sqrt(17) at the poles
    assert approx_decay_norm(f, 2.0) == pytest.approx(49.0, rel=1e-9)
    assert approx_decay_norm(f, 0.1) == pytest.approx(s, rel=1e-9)
    assert 7.0**0.1 < s  # the sup branch is the active one at small alpha


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_decay_norm_rejects_non_finite_alpha(alpha):
    # max(sup, nan) would keep sup and hide the bad exponent
    with pytest.raises(ValueError):
        approx_decay_norm(random_even_zonal(3, 8, seed=5), alpha)


def test_decay_norm_grows_with_alpha_through_overflow():
    # 15^300 overflows; the tail past the band limit is 0, and inf * 0 = nan
    # must not let the plain sup norm win
    f = random_even_zonal(3, 16, seed=1)
    norms = [approx_decay_norm(f, a) for a in (0.5, 1, 2, 4, 50, 200, 300, 1e300)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert norms[6] == np.inf


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0])
def test_interpolation_inequality(sigma):
    # || . ||_alpha <= C(sigma) sup + sigma || . ||_beta with the explicit
    # constant C = sigma^(-alpha/(beta-alpha)) + 1
    alpha, beta = 2.0, 4.0
    C = sigma ** (-alpha / (beta - alpha)) + 1.0
    for seed in range(6):
        f = random_even_zonal(3, 48, seed=40 + seed, decay=2.2)
        lhs = approx_decay_norm(f, alpha)
        rhs = C * sup_norm(f) + sigma * approx_decay_norm(f, beta)
        assert lhs <= rhs + 1e-12
