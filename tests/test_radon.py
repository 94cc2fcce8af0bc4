"""Spherical Radon transform: eigenvalues, both quadrature routes, smoothing."""

import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ibodylab import (
    S2Function,
    ZonalProfile,
    default_rule,
    default_s2_grid,
    gauss_jacobi_rule,
    intersection_body,
    l2_norm,
    radon_geometric_s2,
    radon_geometric_zonal,
    radon_multiplier,
    radon_spectral,
    s2_grid,
    sh_index,
    smoothing_gain_experiment,
    sphere_exponent,
    subsphere_rule,
)
from ibodylab import radon, sphharm
from ibodylab.radon import _s2_operator, _zonal_operator
from ibodylab.sphharm import _recurrence
from helpers import (
    pointwise_radon_s2,
    random_even_s2,
    random_even_zonal,
    random_s2,
    random_zonal,
    unfolded_radon_zonal,
    zonal_body,
)

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


def _loop_multiplier(d: int, kmax: int) -> np.ndarray:
    """The multiplier table degree by degree: the reference for the
    cumulative product in `radon_multiplier`."""
    out = np.zeros(kmax + 1)
    out[0] = 1.0
    v = 1.0
    for k in range(2, kmax + 1, 2):
        v *= (k - 1.0) / (d + k - 3.0)
        out[k] = (-1.0) ** (k // 2) * v
    return out


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 10, 20])
def test_multiplier_matches_degree_loop_bit_for_bit(d):
    # the same products in the same order, so equal to the last bit
    for kmax in (0, 1, 2, 3, 40, 257, 1536, 4096):
        assert np.array_equal(radon_multiplier(d, kmax), _loop_multiplier(d, kmax))


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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_route_agreement_s2_property(band_limit, seed):
    # every order m and odd degrees, on the closed-form circles
    # (-x sin tau, cos tau, sqrt(1 - x^2) sin tau) of the directions at
    # longitude 0 and height x
    f = random_s2(band_limit, seed)
    gap = np.abs(radon_geometric_s2(f).coeffs - radon_spectral(f).coeffs).max()
    assert gap <= ORACLE_TOL


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([3, 4, 5, 7, 10]), band_limit=st.integers(1, 80),
       on_work_rule=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(d=4, band_limit=15, on_work_rule=True, seed=0)
def test_folded_zonal_route_matches_unfolded_property(d, band_limit, on_work_rule, seed):
    # the route folds both rules at t -> -t; the unfolded sum over every
    # node is its reference.  Odd degrees must cancel in the fold, and a
    # power step's work rule (order (d-1)K + 8, odd when (d-1)K is odd, 53
    # at d = 4, K = 15) puts a centre node 0 on the storage side, as an odd
    # K + 8 puts one on the subsphere side
    rule = gauss_jacobi_rule(d, sphere_exponent(d), (d - 1) * band_limit + 8) \
        if on_work_rule else None
    f = random_zonal(d, band_limit, seed, rule)
    got = radon_geometric_zonal(f).coeffs
    want = unfolded_radon_zonal(f).coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(f.coeffs).max()
    assert np.abs(got - radon_spectral(f).coeffs).max() <= ORACLE_TOL


def test_geometric_zonal_memory():
    # a warm call is one product with the cached operator; one 16 384-point
    # chunk of the K = 256 basis table is 34 MB
    f = random_even_zonal(3, 256, seed=5)
    radon_geometric_zonal(f)  # build the rules first
    tracemalloc.start()
    try:
        radon_geometric_zonal(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("d", [3, 5, 7])
def test_geometric_zonal_odd_degrees_vanish_on_work_rules(d):
    # the route's output is exactly even in t, and the folded analysis of a
    # work rule reads f(h) - f(-h) = 0, so the odd coefficients are exactly
    # 0; the full-table analysis left 2.1e-17 to 2.1e-14 here
    pe = random_even_zonal(d, 24, seed=d).power(d - 1)
    assert pe.rule.order != 2 * pe.band_limit + 8
    assert np.all(radon_geometric_zonal(pe).coeffs[1::2] == 0.0)


def test_geometric_intersection_body_memory_d7():
    # a warm geometric step at d = 7, K = 256 analyses the band-1536 output
    # of the power step on its order-1544 work rule by the folded, streamed
    # analysis: 1.3 MB (tracemalloc), where the whole basis table of that
    # rule took 19.1 MB
    body = zonal_body(7, 256, {2: 0.05, 4: -0.02, 6: 0.01})
    intersection_body(body, "geometric")  # build the rules and the operator
    tracemalloc.start()
    try:
        intersection_body(body, "geometric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_geometric_zonal_cold_build_memory():
    # the operator build runs the even rows one at a time at the 34 320
    # folded heights, holding no table over them
    f = random_even_zonal(3, 256, seed=5)
    subsphere_rule(3, 256 + 8)  # build the rules first
    _zonal_operator.cache_clear()
    tracemalloc.start()
    try:
        radon_geometric_zonal(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _zonal_operator.cache_info().misses == 1
    assert peak < 8e6


def test_s2_operator_build_holds_one_legendre_block():
    # the build drops each Legendre block at the circle points before the
    # next is made: at L = 64 it peaks at the operator it keeps plus 1.15x
    # the largest block (4.9 MB), where holding two blocks reached 3.1x
    L = 64
    grid = default_s2_grid(L)
    _recurrence(L)  # its cached factors are not part of the bound
    rows = grid.n_theta - grid.n_theta // 2
    largest = (L + 1) * rows * (2 * L + 9) * 8
    tracemalloc.start()
    try:
        ops = _s2_operator.__wrapped__(L, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(op.nbytes for op in ops)
    assert peak < kept + 1.2 * largest


def test_s2_operator_never_reads_the_folded_table(monkeypatch):
    # the geometric operator builds its own per-order blocks from
    # _legendre_orders, so the dual-route oracle shares no Legendre table
    # with the transforms it checks
    def refuse(*args, **kwargs):
        raise AssertionError("the geometric operator read the folded Legendre table")

    for name in ("_fold_legendre", "_fold_analysis", "_fold_synthesis", "_grid_tables"):
        monkeypatch.setattr(sphharm, name, refuse)
    monkeypatch.setattr(radon, "_grid_tables", refuse)
    ops = _s2_operator.__wrapped__(12, default_s2_grid(12))
    assert len(ops) == 13


@pytest.mark.parametrize("band_limit", [8, 24, 40])
@pytest.mark.parametrize("grid_of", ["default", "power step", "even n_theta"])
def test_s2_operator_matches_pointwise_route(band_limit, grid_of):
    # the cached, folded operator against the route summed call by call.
    # The default grid of band L and the power step's (band 2L on it) have
    # an odd n_theta, hence a centre row x = 0 that is not mirrored; a grid
    # of odd level has none
    if grid_of == "power step":
        grid, band = default_s2_grid(band_limit), 2 * band_limit
    else:
        grid = default_s2_grid(band_limit) if grid_of == "default" \
            else s2_grid(2 * band_limit + 9)
        band = band_limit
    assert grid.n_theta % 2 == (grid_of != "even n_theta")
    f = S2Function.from_coeffs(random_s2(band, seed=band_limit).coeffs, grid)
    got = radon_geometric_s2(f).coeffs
    want = pointwise_radon_s2(f).coeffs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(f.coeffs).max()


def test_geometric_operators_are_keyed_by_rule_and_grid():
    # the same coefficients on two rules (two grids) of the same band limit
    # need two operators: the storage rule and a work rule, the default
    # grid and the one of the power step that doubles the band
    f = random_zonal(4, 15, seed=2)
    work = gauss_jacobi_rule(4, sphere_exponent(4), 3 * 15 + 8)
    for g in (f, ZonalProfile.from_coeffs(4, f.coeffs, work), f):
        got = radon_geometric_zonal(g).coeffs
        want = unfolded_radon_zonal(g).coeffs
        assert np.abs(got - want).max() <= 1e-13 * np.abs(f.coeffs).max()
    h = random_s2(10, seed=2)
    for g in (h, S2Function.from_coeffs(h.coeffs, default_s2_grid(5)), h):
        got = radon_geometric_s2(g).coeffs
        want = pointwise_radon_s2(g).coeffs
        assert np.abs(got - want).max() <= 1e-13 * np.abs(h.coeffs).max()


def test_geometric_operators_are_read_only():
    zonal = random_zonal(5, 20, seed=1)
    radon_geometric_zonal(zonal)
    op = _zonal_operator(zonal.rule, zonal.band_limit)
    assert not op.flags.writeable
    with pytest.raises(ValueError):
        op[0, 0] = 1.0
    s2 = random_s2(6, seed=1)
    radon_geometric_s2(s2)
    ops = _s2_operator(s2.band_limit, s2.grid)
    assert isinstance(ops, tuple) and len(ops) == s2.band_limit + 1
    assert not any(block.flags.writeable for block in ops)
    with pytest.raises(ValueError):
        ops[1][0, 0] = 1.0


def test_geometric_operator_caches_stay_bounded():
    for cache, calls in ((_zonal_operator, [random_zonal(3, k, seed=k) for k in range(1, 14)]),
                         (_s2_operator, [random_s2(k, seed=k) for k in range(1, 8)])):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and len(calls) > maxsize
        route = radon_geometric_s2 if cache is _s2_operator else radon_geometric_zonal
        for f in calls:
            route(f)
        assert cache.cache_info().currsize == maxsize


def test_geometric_routes_never_read_the_multiplier_table(monkeypatch):
    s2 = random_s2(12, seed=7)
    zonal = random_even_zonal(5, 24, seed=7)
    want = [radon_spectral(f).coeffs for f in (s2, zonal)]

    def refuse(*args, **kwargs):
        raise AssertionError("a geometric route read radon_multiplier")

    # cold caches, so the operators are built under the refusal
    _zonal_operator.cache_clear()
    _s2_operator.cache_clear()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ibodylab" and hasattr(module, "radon_multiplier"):
            monkeypatch.setattr(module, "radon_multiplier", refuse)
    got = [radon_geometric_s2(s2).coeffs, radon_geometric_zonal(zonal).coeffs]
    assert _s2_operator.cache_info().misses == _zonal_operator.cache_info().misses == 1
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
