"""Gauss-Jacobi rules on [-1, 1] and the product grid on S^2."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

from ibodylab import (
    JacobiRule,
    gauss_jacobi_rule,
    s2_grid,
    sphere_exponent,
    zonal_basis_matrix,
)
from ibodylab.quadrature import _rule_cached, recurrence_offdiag
from helpers import even_moment


def test_sphere_exponent_value():
    for d in range(3, 12):
        assert sphere_exponent(d) == (d - 3) / 2.0


def test_one_point_rule_is_midpoint():
    r = gauss_jacobi_rule(3, 0.0, 1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights.tolist() == [1.0]


@pytest.mark.parametrize("d", [3, 4, 5, 7, 12])
@pytest.mark.parametrize("n", [1, 2, 7, 40, 2080])
def test_weights_sum_to_one(d, n):
    r = gauss_jacobi_rule(d, sphere_exponent(d), n)
    assert abs(r.weights.sum() - 1.0) <= 1e-14
    assert (r.weights > 0).all()


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_second_moment_is_one_over_d(d):
    # the height coordinate of a uniform point on S^{d-1} has E t^2 = 1/d
    r = gauss_jacobi_rule(d, sphere_exponent(d), 8)
    assert float(r.weights @ r.nodes**2) == pytest.approx(1.0 / d, abs=1e-15)


def test_nodes_sorted_and_symmetric():
    for d, n in [(3, 9), (5, 16), (8, 11), (3, 2080), (10, 2080)]:
        r = gauss_jacobi_rule(d, sphere_exponent(d), n)
        assert (np.diff(r.nodes) > 0).all()
        assert np.array_equal(r.nodes, -r.nodes[::-1])
        assert np.array_equal(r.weights, r.weights[::-1])


@pytest.mark.parametrize("n", [64, 520])
def test_legendre_rule_matches_numpy_leggauss(n):
    r = gauss_jacobi_rule(3, 0.0, n)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(r.nodes, nodes, rtol=0, atol=1e-15)
    # leggauss's own end weights are off by up to 6e-10 relative at n = 520
    np.testing.assert_allclose(r.weights, weights / 2.0, rtol=1e-8, atol=0)


@pytest.mark.parametrize("d", [3, 4, 7, 12, 30])
@pytest.mark.parametrize("sub", [False, True])
@pytest.mark.parametrize("n", [40, 73, 520, 2432])
def test_nodes_match_scipy_roots_jacobi(d, sub, n):
    exponent = (d - 4) / 2.0 if sub else sphere_exponent(d)
    r = gauss_jacobi_rule(d, exponent, n)
    nodes, _ = roots_jacobi(n, exponent, exponent)
    np.testing.assert_allclose(r.nodes, nodes, rtol=0, atol=1e-15)


CLOSED_FORM_ORDERS = [1, 2, 3, 8, 73, 520, 2432]


def _closed_form_weight_rtol(n: int) -> float:
    # an ulp of an end node is a relative n^2 eps change of 1 - x^2, which
    # the end weights follow; measured at most 2.0e-17 n^2 over these orders
    return 4e-17 * n**2 + 2e-15


@pytest.mark.parametrize("n", CLOSED_FORM_ORDERS)
def test_chebyshev_first_kind_rule_in_closed_form(n):
    # lambda = -1/2 (the d = 3 subsphere): nodes cos((k - 1/2) pi / n),
    # every weight 1/n
    r = gauss_jacobi_rule(3, -0.5, n)
    k = np.arange(1, n + 1)
    nodes = np.cos((k - 0.5) * np.pi / n)[::-1]
    np.testing.assert_allclose(r.nodes, nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(r.weights, 1.0 / n, rtol=_closed_form_weight_rtol(n), atol=0)


@pytest.mark.parametrize("n", CLOSED_FORM_ORDERS)
def test_chebyshev_second_kind_rule_in_closed_form(n):
    # lambda = +1/2 (the d = 4 sphere): nodes cos(k pi / (n + 1)), weights
    # proportional to sin^2(k pi / (n + 1))
    r = gauss_jacobi_rule(4, 0.5, n)
    theta = np.arange(n, 0, -1) * np.pi / (n + 1)
    weights = np.sin(theta) ** 2
    np.testing.assert_allclose(r.nodes, np.cos(theta), rtol=0, atol=1e-15)
    np.testing.assert_allclose(r.weights, weights / weights.sum(),
                               rtol=_closed_form_weight_rtol(n), atol=0)


def _newton_correction(exponent: float, x: np.ndarray) -> np.ndarray:
    # p_n / p_n' from the recurrence and its derivative, independently of
    # the derivative identity the builder uses
    c = recurrence_offdiag(exponent, x.size + 1)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    c_prev = 0.0
    for ck in c:
        p_prev, p = p, (x * p - c_prev * p_prev) / ck
        dp_prev, dp = dp, (p_prev + x * dp - c_prev * dp_prev) / ck
        c_prev = ck
    return p / dp


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(d=st.integers(3, 30), sub=st.booleans(), n=st.integers(1, 2500))
@example(d=3, sub=True, n=2500)
@example(d=30, sub=False, n=2499)
def test_rule_property(d, sub, n):
    lam = (d - 4) / 2.0 if sub else sphere_exponent(d)
    r = gauss_jacobi_rule(d, lam, n)
    assert (np.diff(r.nodes) > 0).all()
    assert np.array_equal(r.nodes, -r.nodes[::-1])
    assert np.array_equal(r.weights, r.weights[::-1])
    assert (r.weights > 0).all()
    assert abs(r.weights.sum() - 1.0) <= 1e-15
    # each node is a floating-point fixed point of Newton's method;
    # measured at most 9.6e-17, under one ulp of 1
    assert np.abs(_newton_correction(lam, r.nodes)).max() <= 2.2e-16
    # the end weights carry the node rounding (see _closed_form_weight_rtol);
    # the moment error was measured at most 6.2e-17 n, here and at the parent
    for p in range(0, min(2 * n - 1, 12) + 1, 2):
        got = float(r.weights @ r.nodes**p)
        assert got == pytest.approx(even_moment(lam, p), abs=2e-16 * n)


def test_rule_build_memory():
    # the builder keeps O(n) arrays: no (n/2) x (n/2) matrix, as an
    # eigensolver would need (11.4 MiB at this order)
    tracemalloc.start()
    try:
        _rule_cached.__wrapped__(3, 0.0, 2432)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("d", [3, 7, 10])
def test_zonal_basis_is_orthonormal_on_the_rule(d):
    # Gauss rules of order n integrate Z_j Z_k exactly for j, k < n
    n = 2080
    r = gauss_jacobi_rule(d, sphere_exponent(d), n)
    z = zonal_basis_matrix(d, n - 1, r.nodes)
    z *= np.sqrt(r.weights)
    gram = z @ z.T
    gram[np.diag_indices(n)] -= 1.0
    assert np.abs(gram).max() <= 1e-12


def _quad_moment(lam: float, p: int) -> float:
    # independent oracle: normalized moment of (1 - t^2)^lam via adaptive
    # quadrature, with the algebraic endpoint weight handled by quadpack
    if lam == 0.0:
        num = quad(lambda t: t**p, -1, 1)[0]
        den = 2.0
    else:
        num = quad(lambda t: t**p * (1 - t * t) ** lam, -1, 1)[0]
        den = quad(lambda t: (1 - t * t) ** lam, -1, 1)[0]
    return num / den


@pytest.mark.parametrize("lam,p", [(0.0, 2), (0.0, 6), (1.0, 4), (0.5, 8), (2.5, 10)])
def test_even_moment_against_adaptive_quadrature(lam, p):
    # the adaptive estimate itself is only good to ~1e-12 relative
    assert even_moment(lam, p) == pytest.approx(_quad_moment(lam, p), rel=1e-9)


def test_even_moment_odd_power_is_zero():
    assert even_moment(1.0, 3) == 0.0
    assert even_moment(0.0, 11) == 0.0


def test_arcsine_weight_second_moment():
    # lambda = -1/2 is the d = 3 subsphere weight; the arcsine law has
    # second moment exactly 1/2
    assert even_moment(-0.5, 2) == pytest.approx(0.5, abs=1e-15)
    r = gauss_jacobi_rule(3, -0.5, 6)
    assert float(r.weights @ r.nodes**2) == pytest.approx(0.5, abs=1e-14)


def test_d5_lambda1_sixteen_point_rule_quartic():
    # integral of t^4 (1-t^2) / integral of (1-t^2) = 3/35
    r = gauss_jacobi_rule(5, 1.0, 16)
    got = float(r.weights @ r.nodes**4)
    assert got == pytest.approx(3.0 / 35.0, abs=1e-12)
    assert got == pytest.approx(_quad_moment(1.0, 4), abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_gauss_exactness_up_to_degree_2n_minus_1(d):
    lam = sphere_exponent(d)
    n = 7
    r = gauss_jacobi_rule(d, lam, n)
    for p in range(0, 2 * n):
        got = float(r.weights @ r.nodes**p)
        assert got == pytest.approx(even_moment(lam, p), abs=5e-15)


def test_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(2, 0.0, 4)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(3, -1.0, 4)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(3, 0.25, 4)  # neither (d-3)/2 nor (d-4)/2
    with pytest.raises(ValueError):
        gauss_jacobi_rule(3, 0.0, 0)


def test_rules_are_cached_and_frozen():
    a = gauss_jacobi_rule(4, 0.5, 12)
    b = gauss_jacobi_rule(4, 0.5, 12)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.5


class TestS2Grid:
    def test_shapes_and_exact_degree(self):
        g = s2_grid(6)
        assert g.n_theta == 7
        assert g.n_phi == 13
        assert g.exact_degree == 12
        assert g.weights.shape == (7, 13)
        p = g.points()
        assert p.shape == (7, 13, 3)
        assert np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-15)

    def test_constant_integrates_to_one(self):
        g = s2_grid(10)
        assert abs(g.weights.sum() - 1.0) <= 1e-14

    def test_height_squared(self):
        g = s2_grid(8)
        x3 = g.points()[..., 2]
        assert float((x3**2 * g.weights).sum()) == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_legendre_orthogonality(self):
        # P2(x3) and P4(x3) are orthogonal over the sphere; written out
        # explicitly so the check does not reuse library basis code
        g = s2_grid(12)
        t = g.points()[..., 2]
        p2 = 0.5 * (3 * t**2 - 1)
        p4 = 0.125 * (35 * t**4 - 30 * t**2 + 3)
        assert abs(float((p2 * p4 * g.weights).sum())) <= 1e-12

    def test_smooth_function_against_gauss_legendre(self):
        # exp(x3) is azimuthally symmetric, so the sphere average reduces to
        # a 1d integral handled by numpy's own Gauss-Legendre nodes
        g = s2_grid(20)
        x3 = g.points()[..., 2]
        got = float((np.exp(x3) * g.weights).sum())
        nodes, weights = np.polynomial.legendre.leggauss(40)
        want = float(weights @ np.exp(nodes)) / 2.0
        assert got == pytest.approx(want, abs=1e-14)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            s2_grid(-1)

    def test_grid_cached(self):
        assert s2_grid(5) is s2_grid(5)


def test_rule_order_property():
    r = gauss_jacobi_rule(3, 0.0, 13)
    assert isinstance(r, JacobiRule)
    assert r.order == 13
