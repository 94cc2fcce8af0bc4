"""Real spherical harmonics on S^2: layout, transform, evaluation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ibodylab import (
    S2Function,
    analyze_s2,
    default_s2_grid,
    eval_s2_at_points,
    make_rng,
    s2_grid,
    sh_degrees,
    sh_index,
    sup_norm,
    synthesize_s2,
)
from ibodylab.sphharm import (_dfs_coeffs, _dfs_heights, _eval_at_point, _fold_legendre,
                               _fold_slots, _grid_tables, _legendre_orders, _recurrence,
                               _rotate, _swap_blocks)
from helpers import (order_sum_eval, random_even_s2, random_points_on_sphere, random_s2,
                     unfolded_analyze_s2, unfolded_dfs_coeffs, unfolded_synthesize_s2)


def test_index_layout():
    assert sh_index(0, 0) == 0
    # degree l block starts at l^2 and holds orders m = -l..l
    for l in range(0, 9):
        for m in range(-l, l + 1):
            assert sh_index(l, m) == l * l + (m + l)


def test_degrees_vector():
    degs = sh_degrees(5)
    assert degs.shape == (36,)
    for l in range(6):
        assert np.count_nonzero(degs == l) == 2 * l + 1
    assert degs[sh_index(4, -2)] == 4


def test_default_grid_resolves_squares():
    # products of two band L functions live at degree 2L; the default grid
    # must integrate them exactly since the power iteration relies on it
    for L in (4, 16, 48):
        assert default_s2_grid(L).exact_degree >= 4 * L


def test_orthonormal_on_grid():
    L = 6
    g = s2_grid(2 * L)
    n = (L + 1) ** 2
    vecs = np.empty((n, g.n_theta, g.n_phi))
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        vecs[i] = synthesize_s2(c, g)
    flat = vecs.reshape(n, -1)
    gram = (flat * g.weights.ravel()) @ flat.T
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(0, 48), seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(band_limit, seed):
    # analysis inverts synthesis at band L on the default grid and on the
    # smallest grid exact for band L products (level L, exact to degree 2L).
    # Rounding grows with L: the worst of these draws, over max |c|, reads
    # 7.9e-15 at L = 19, 0.40 of the bound
    c = make_rng(seed).standard_normal((band_limit + 1) ** 2)
    for grid in (default_s2_grid(band_limit), s2_grid(band_limit)):
        assert grid.exact_degree >= 2 * band_limit
        back = analyze_s2(band_limit, synthesize_s2(c, grid), grid)
        assert np.max(np.abs(back - c)) <= 1e-15 * (band_limit + 1) * max(1.0, np.abs(c).max())


@pytest.mark.parametrize("L", [16, 64])
def test_round_trip(L):
    f = random_even_s2(L, seed=L)
    c = analyze_s2(L, f.values, f.grid)
    assert np.max(np.abs(c - f.coeffs)) <= 1e-12


def test_parseval_unit_norm():
    f = random_even_s2(32, seed=9)
    c = f.coeffs / np.linalg.norm(f.coeffs)
    f = S2Function.from_coeffs(c)
    sq = float((f.values**2 * f.grid.weights).sum())
    assert abs(sq - 1.0) <= 1e-10


def test_energies_layout():
    c = np.zeros(49)
    c[sh_index(4, 3)] = 2.0
    f = S2Function.from_coeffs(c)
    e = f.energies()
    assert e.shape == (7,)
    assert e[4] == pytest.approx(4.0, abs=1e-15)
    assert np.sum(np.abs(np.delete(e, 4))) <= 1e-20


def test_eval_at_points_matches_grid():
    f = random_even_s2(12, seed=4)
    pts = f.grid.points().reshape(-1, 3)
    got = eval_s2_at_points(f.coeffs, pts).reshape(f.values.shape)
    assert np.max(np.abs(got - f.values)) <= 1e-12


def test_eval_at_points_matches_closed_forms():
    # real harmonics with m > 0 in Cartesian form, unit-mass normalization;
    # the last points lie 1e-9 from a pole, where the height alone rounds
    # to +-1 and only hypot(x, y) still places the point
    near_poles = np.array([[1e-9, 0.0, 1.0], [0.0, -1e-9, -1.0], [-6e-10, 8e-10, 1.0]])
    pts = np.concatenate((random_points_on_sphere(500, 3, seed=3), near_poles))
    x, y = pts[:, 0], pts[:, 1]
    cases = {
        (1, 1): np.sqrt(3.0) * x,
        (1, -1): np.sqrt(3.0) * y,
        (2, 2): 0.5 * np.sqrt(15.0) * (x * x - y * y),
        (2, -2): np.sqrt(15.0) * x * y,
    }
    for (l, m), want in cases.items():
        c = np.zeros(9)
        c[sh_index(l, m)] = 1.0
        assert np.max(np.abs(eval_s2_at_points(c, pts) - want)) <= 1e-13, (l, m)


def _special_points() -> np.ndarray:
    """Both poles, the equator, the phi = pi seam (y = +-0, x < 0), and the
    points nearest the poles whose heights still resolve them: z = +-(1 -
    k 2^-53) with hypot(x, y) = sqrt((1 - z)(1 + z)), about 1.5e-8 sqrt(k)."""
    z = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.6, -0.8,
                  1 - 2.0**-53, -(1 - 2.0**-53), 1 - 3 * 2.0**-53, -(1 - 5 * 2.0**-53)])
    phi = np.array([0.0, 0.0, 0.0, 1.0, np.pi, -2.0, np.pi, np.pi, 0.3, np.pi, -1.0, 2.5])
    r = np.sqrt((1.0 - z) * (1.0 + z))
    pts = np.stack((r * np.cos(phi), r * np.sin(phi), z), axis=1)
    pts[phi == np.pi, 1] = [0.0, -0.0, 0.0, 0.0]
    return pts


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
def test_eval_at_points_matches_order_sums_property(band_limit, seed):
    # the double-Fourier-sphere evaluator against the per-order Legendre
    # sums; every degree and order, random and special points
    rng = make_rng(seed)
    coeffs = rng.standard_normal((band_limit + 1) ** 2)
    pts = np.concatenate((random_points_on_sphere(300, 3, seed=seed), _special_points()))
    gap = np.abs(eval_s2_at_points(coeffs, pts) - order_sum_eval(coeffs, pts)).max()
    assert gap <= 1e-13 * np.abs(coeffs).sum()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(4, 48), seed=st.integers(0, 2**32 - 1))
def test_point_evaluator_matches_order_sums_property(band_limit, seed):
    # the one-point evaluator of the sup-norm polish, (height, longitude)
    # in Python floats, against the per-order Legendre sums
    f = random_s2(band_limit, seed=seed)
    pts = np.concatenate((random_points_on_sphere(20, 3, seed=seed), _special_points()))
    got = [_eval_at_point(f.coeffs, float(z), float(np.arctan2(y, x))) for x, y, z in pts]
    assert np.abs(np.array(got) - order_sum_eval(f.coeffs, pts)).max() <= 1e-13


def test_point_evaluator_builds_no_table(monkeypatch):
    # the S^2 sup-norm polish evaluates its one point without the double
    # Fourier table of eval_s2_at_points
    import ibodylab.sphharm as sphharm

    def fail(*args):
        raise AssertionError("the polish rebuilt the double Fourier table")

    f = random_even_s2(16, seed=8)
    lo, hi, _ = f._refined_scan()
    points = []
    real = sphharm._eval_at_point

    def counted(coeffs, z, phi):
        points.append(z)
        return real(coeffs, z, phi)

    monkeypatch.setattr(sphharm, "_dfs_coeffs", fail)
    monkeypatch.setattr(sphharm, "eval_s2_at_points", fail)
    monkeypatch.setattr(sphharm, "_eval_at_point", counted)
    assert sup_norm(f) > max(hi, -lo)
    assert len(points) == 1


def test_legendre_orders_hold_one_block_at_a_time():
    # the generator lets go of block m before it builds block m + 1, so a
    # consumer that drops its own holds one block: 1.11x the largest block
    # at L = 64 (2.02x when both were alive)
    x = np.linspace(-0.99, 0.99, 2000)
    _recurrence(64)  # its cached factors are not part of the bound
    largest = 0
    tracemalloc.start()
    try:
        for q in _legendre_orders(64, x):
            largest = max(largest, q.nbytes)
            del q
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert largest == 65 * x.nbytes
    assert peak < 1.2 * largest


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(0, 48), extra=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
@example(band_limit=0, extra=0, seed=0)  # the level-0 grid: one centre row
def test_folded_transforms_match_unfolded_property(band_limit, extra, seed):
    # the folded, batched Legendre stage against the per-order products on
    # whole grid columns, on grids of odd and even n_theta: analysis of
    # samples that are not band-limited, synthesis, and the double Fourier
    # series of _dfs_coeffs
    L, grid = band_limit, s2_grid(band_limit + extra)
    rng = make_rng(seed)
    values = rng.standard_normal(grid.weights.shape)
    want = unfolded_analyze_s2(L, values, grid)
    assert np.max(np.abs(analyze_s2(L, values, grid) - want)) <= 1e-13 * np.max(np.abs(want))
    coeffs = rng.standard_normal((L + 1) ** 2)
    want = unfolded_synthesize_s2(coeffs, grid)
    assert np.max(np.abs(synthesize_s2(coeffs, grid) - want)) <= 1e-13 * np.max(np.abs(want))
    for got, want in zip(_dfs_coeffs(coeffs, L), unfolded_dfs_coeffs(coeffs)):
        if want.size:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_grid_and_dfs_heights_are_exact_mirrors():
    # the fold reads the rows at -x off the rows at x, so the heights must
    # be antisymmetric to the bit; cos(pi k / (L + 1)) alone is not (it
    # misses at 300 of L = 0..300), so _dfs_heights mirrors one half
    for level in range(301):
        x = s2_grid(level).x
        assert np.array_equal(x, -x[::-1])
    for L in range(301):
        x = _dfs_heights(L)
        assert np.array_equal(x, -x[::-1])
        assert np.max(np.abs(x - np.cos(np.pi * np.arange(L + 2) / (L + 1)))) <= 6e-16


def test_folded_table_build_holds_one_legendre_block():
    # the build copies each order block into the kept stacks and lets it go
    # before the next: the peak is the kept table plus one block
    x = np.linspace(0.0, 0.99, 2000)
    _recurrence(64), _fold_slots(64)  # cached factors and slots are not part of the bound
    tracemalloc.start()
    try:
        table = _fold_legendre(64, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(tab.nbytes for pair in table for tab in pair)
    assert peak < kept + 1.2 * 65 * x.nbytes


def test_folded_table_bytes():
    # rows x >= 0 only, split by the parity of l - m, padded per stack of 8
    # orders: 0.56 of the (L+1)(L+2)/2 rows at every height, band 64 on the
    # storage grid of band 32 (73 rows)
    L, grid = 64, default_s2_grid(32)
    table = _grid_tables(L, grid)[0]
    held = sum(tab.nbytes for pair in table for tab in pair)
    assert held <= 0.6 * (L + 1) * (L + 2) // 2 * grid.n_theta * 8


def test_eval_at_points_memory_is_linear_in_band():
    # an (L+1)^2 x N Legendre table alone would be 1681 * 20000 * 8 = 269 MB
    f = random_even_s2(40, seed=5)
    pts = random_points_on_sphere(20000, 3, seed=6)
    tracemalloc.start()
    try:
        eval_s2_at_points(f.coeffs, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_even_function_is_antipodally_symmetric():
    f = random_even_s2(10, seed=21)
    pts = random_points_on_sphere(200, 3, seed=1)
    assert np.max(np.abs(f.eval_at_points(pts) - f.eval_at_points(-pts))) <= 1e-12


def test_analyze_rejects_coarse_grid():
    g = s2_grid(8)
    with pytest.raises(ValueError):
        analyze_s2(16, np.ones((g.n_theta, g.n_phi)), g)


def test_from_values_round_trip():
    f = random_even_s2(8, seed=2)
    g = S2Function.from_values(8, f.values, f.grid)
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-13


def _turn(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma)."""
    def rz(a):
        return np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(beta), 0.0, np.sin(beta)], [0.0, 1.0, 0.0],
                   [-np.sin(beta), 0.0, np.cos(beta)]])
    return rz(alpha) @ ry @ rz(gamma)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(-np.pi, np.pi), gamma=st.floats(-np.pi, np.pi),
       beta=st.one_of(st.floats(0.0, 1e-6), st.floats(np.pi - 1e-6, np.pi),
                      st.floats(0.0, np.pi)))
def test_rotation_matches_evaluation_at_rotated_points(band_limit, seed, alpha, beta, gamma):
    # the O(L^3) coefficient rotation against f evaluated at the rotated
    # nodes of a grid exact for band L and analyzed there; Euler angles
    # near beta = 0 and pi are where the rotation's own Euler angles are
    # ill-conditioned.  The worst of these draws reads 2.6e-15
    f = random_s2(band_limit, seed)
    r = _turn(alpha, beta, gamma)
    grid = s2_grid(band_limit + 1)
    want = analyze_s2(band_limit, eval_s2_at_points(f.coeffs, grid.points() @ r.T), grid)
    assert np.max(np.abs(_rotate(f.coeffs, r) - want)) <= 1e-14


def test_swap_blocks_are_symmetric_involutions():
    # J is a half-turn, so f -> f(Jx) is its own inverse and orthogonal:
    # every block is symmetric with square I, to 1.1e-15 at L = 64
    slots, bins = _swap_blocks(64)
    assert [lo for lo, _ in bins] == list(range(0, 65, 8))
    for lo, swap in bins:
        n, size = swap.shape[1], swap.shape[-1]
        assert np.array_equal(swap, np.swapaxes(swap, -1, -2))
        eye = np.eye(size) * (slots[:, lo:lo + n, :size] < 65**2)[..., None]  # I on the slots
        assert np.max(np.abs(swap @ swap - eye)) <= 4e-15


@pytest.mark.parametrize("band_limit", [4, 12, 32])
def test_refined_scan_reads_refined_values_bit_for_bit(band_limit):
    # the scan synthesizes into reused buffers and reads extremes by argmin
    # and argmax; it must agree exactly with refined_values, and its polish
    # line with np.argmax(np.abs(.)) on its grid part, including the ties of
    # constants; the line's evaluator meets the column at its nodes
    fs = [random_s2(band_limit, seed=s) for s in range(3)]
    for c0 in (1.0, -2.0, 0.0):
        c = np.zeros((band_limit + 1) ** 2)
        c[0] = c0
        fs.append(S2Function.from_coeffs(c))
    for f in fs:
        vals = f.refined_values()
        fine = f.refined_grid()
        grid_vals = vals[:fine.weights.size].reshape(fine.weights.shape)
        lo, hi, [(theta, column, best, along)] = f._refined_scan()
        assert (lo, hi) == (float(vals.min()), float(vals.max()))
        i, j = np.unravel_index(np.argmax(np.abs(grid_vals)), grid_vals.shape)
        sgn = np.sign(grid_vals[i, j]) or 1.0
        assert np.array_equal(column, sgn * grid_vals[:, j]) and np.argmax(column) == best == i
        assert np.array_equal(theta, np.arccos(fine.x))
        scale = max(1.0, np.abs(grid_vals).max())
        for k in (0, i, fine.n_theta - 1):
            assert abs(along(theta[k]) - column[k]) <= 1e-13 * scale


def test_refined_values_is_a_fresh_array():
    # the scan's buffers are private: refined_values hands out a new array,
    # and writing into it changes neither the next call nor the next scan
    f = random_s2(16, seed=7)
    first = f.refined_values()
    kept = first.copy()
    scan = f._refined_scan()
    first[:] = np.nan
    assert np.array_equal(f.refined_values(), kept)
    again = f._refined_scan()
    column = again[2][0][1]
    assert again[:2] == scan[:2] and np.array_equal(column, scan[2][0][1])
    scan[2][0][1][:] = np.nan
    assert np.array_equal(f._refined_scan()[2][0][1], column)

