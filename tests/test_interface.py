"""The interface that ZonalProfile and S2Function share."""

import numpy as np
import pytest

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


def _point_sup(f: S2Function) -> float:
    """max |f| over the refined grid and the poles, point by point.

    sup_norm also polishes the best node along its colatitude column, but
    that polish clips onto the neighbouring grid node, so the scan is the
    whole of its result."""
    pts = f.refined_set()
    assert pts.shape == (f.refined_grid().weights.size + 2, 3)
    return float(np.abs(eval_s2_at_points(f.coeffs, pts)).max())


@pytest.mark.parametrize("band_limit", [8, 16, 32])
def test_s2_sup_norm_matches_point_evaluation(band_limit):
    f = random_even_s2(band_limit, seed=36)
    want = _point_sup(f)
    assert abs(sup_norm(f) - want) <= 1e-12 * want
