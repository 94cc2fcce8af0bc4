"""Orthonormal zonal basis and the profile transform built on it."""

import numpy as np
import pytest

from ibodylab import (
    ZonalProfile,
    default_rule,
    gauss_jacobi_rule,
    integrate,
    sphere_exponent,
    zonal_basis_eval,
    zonal_basis_matrix,
)
from helpers import random_even_zonal


def test_degree_zero_is_constant_one():
    t = np.linspace(-1, 1, 17)
    for d in (3, 4, 7):
        assert np.array_equal(zonal_basis_eval(d, 0, t), np.ones_like(t))


def test_degree_two_closed_form_d3():
    # normalized so the basis is orthonormal against the uniform sphere
    # measure and positive at t = 1
    t = np.linspace(-1, 1, 101)
    want = 0.5 * np.sqrt(5.0) * (3 * t**2 - 1)
    got = zonal_basis_eval(3, 2, t)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_value_at_north_pole_d3():
    # for d = 3 the basis value at t = 1 is sqrt(2k + 1)
    assert zonal_basis_eval(3, 2, 1.0) == pytest.approx(np.sqrt(5.0), abs=1e-13)
    assert zonal_basis_eval(3, 8, 1.0) == pytest.approx(np.sqrt(17.0), abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_orthonormality(d):
    kmax = 24
    rule = gauss_jacobi_rule(d, sphere_exponent(d), 2 * kmax + 8)
    basis = zonal_basis_matrix(d, kmax, rule.nodes)
    gram = (basis * rule.weights) @ basis.T
    assert np.max(np.abs(gram - np.eye(kmax + 1))) <= 1e-11


def test_basis_matrix_matches_single_eval():
    rule = default_rule(4, 10)
    mat = zonal_basis_matrix(4, 10, rule.nodes)
    for k in (0, 3, 10):
        assert np.array_equal(mat[k], np.atleast_1d(zonal_basis_eval(4, k, rule.nodes)))


def test_constant_profile_transform():
    prof = ZonalProfile.from_values(3, 8, np.ones(default_rule(3, 8).order))
    want = np.zeros(9)
    want[0] = 1.0
    assert np.max(np.abs(prof.coeffs - want)) <= 1e-14


def test_pure_mode_round_trip():
    for d, k in [(3, 4), (5, 6)]:
        rule = default_rule(d, 12)
        vals = np.atleast_1d(zonal_basis_eval(d, k, rule.nodes))
        prof = ZonalProfile.from_values(d, 12, vals, rule)
        want = np.zeros(13)
        want[k] = 1.0
        assert np.max(np.abs(prof.coeffs - want)) <= 1e-12


@pytest.mark.parametrize("d", [3, 4, 7])
def test_random_round_trip(d):
    f = random_even_zonal(d, 24, seed=11)
    g = ZonalProfile.from_values(d, 24, f.values, f.rule)
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-12


def test_parseval(d=5):
    f = random_even_zonal(d, 32, seed=3)
    sq = integrate(f.values**2, f.rule)
    assert sq == pytest.approx(float(f.coeffs @ f.coeffs), abs=1e-10)


def test_eval_at_matches_node_values():
    f = random_even_zonal(3, 16, seed=7)
    assert np.max(np.abs(f.eval_at(f.rule.nodes) - f.values)) <= 1e-12


def test_derivatives_at_against_finite_differences():
    f = random_even_zonal(3, 12, seed=5)
    t = np.linspace(-0.9, 0.9, 25)
    vals, d1, d2 = f.derivatives_at(t)
    h = 1e-5
    fd1 = (f.eval_at(t + h) - f.eval_at(t - h)) / (2 * h)
    fd2 = (f.eval_at(t + h) - 2 * vals + f.eval_at(t - h)) / h**2
    assert np.max(np.abs(d1 - fd1)) <= 1e-6 * (1 + np.max(np.abs(d1)))
    assert np.max(np.abs(d2 - fd2)) <= 1e-4 * (1 + np.max(np.abs(d2)))


def test_with_coeffs_and_energies():
    f = random_even_zonal(4, 10, seed=2)
    e = f.energies()
    assert e.shape == (11,)
    assert np.all(e >= 0)
    assert float(e.sum()) == pytest.approx(float(f.coeffs @ f.coeffs), abs=1e-15)
    g = f.with_coeffs(2.0 * f.coeffs)
    assert np.array_equal(g.coeffs, 2.0 * f.coeffs)
    assert g.dim == f.dim and g.band_limit == f.band_limit


def test_from_values_rejects_coarse_rule():
    rule = gauss_jacobi_rule(3, 0.0, 4)
    with pytest.raises(ValueError):
        ZonalProfile.from_values(3, 16, np.ones(4), rule)
