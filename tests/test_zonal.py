"""Orthonormal zonal basis and the profile transform built on it."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibodylab import (
    ZonalProfile,
    default_rule,
    gauss_jacobi_rule,
    make_rng,
    sphere_exponent,
    zonal_basis_matrix,
)
from ibodylab import zonal
from ibodylab.zonal import _even_rows, _refined_table, _series, _storage_table
from helpers import random_even_zonal, random_zonal


def test_degree_zero_is_constant_one():
    t = np.linspace(-1, 1, 17)
    for d in (3, 4, 7):
        assert np.array_equal(zonal_basis_matrix(d, 0, t)[0], np.ones_like(t))


def test_degree_two_closed_form_d3():
    # normalized so the basis is orthonormal against the uniform sphere
    # measure and positive at t = 1
    t = np.linspace(-1, 1, 101)
    want = 0.5 * np.sqrt(5.0) * (3 * t**2 - 1)
    got = zonal_basis_matrix(3, 2, t)[2]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_value_at_north_pole_d3():
    # for d = 3 the basis value at t = 1 is sqrt(2k + 1)
    assert zonal_basis_matrix(3, 2, 1.0)[2, 0] == pytest.approx(np.sqrt(5.0), abs=1e-13)
    assert zonal_basis_matrix(3, 8, 1.0)[8, 0] == pytest.approx(np.sqrt(17.0), abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_orthonormality(d):
    kmax = 24
    rule = gauss_jacobi_rule(d, sphere_exponent(d), 2 * kmax + 8)
    basis = zonal_basis_matrix(d, kmax, rule.nodes)
    gram = (basis * rule.weights) @ basis.T
    assert np.max(np.abs(gram - np.eye(kmax + 1))) <= 1e-11


def test_constant_profile_transform():
    prof = ZonalProfile.from_values(3, 8, np.ones(default_rule(3, 8).order))
    want = np.zeros(9)
    want[0] = 1.0
    assert np.max(np.abs(prof.coeffs - want)) <= 1e-14


def test_pure_mode_round_trip():
    for d, k in [(3, 4), (5, 6)]:
        rule = default_rule(d, 12)
        vals = zonal_basis_matrix(d, k, rule.nodes)[k]
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
    sq = float(f.values**2 @ f.rule.weights)
    assert sq == pytest.approx(float(f.coeffs @ f.coeffs), abs=1e-10)


def test_eval_at_matches_node_values():
    f = random_even_zonal(3, 16, seed=7)
    assert np.max(np.abs(f.eval_at(f.rule.nodes) - f.values)) <= 1e-12


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


# ---------------------------------------------------------------------------
# cached tables, the streamed power step and the scalar path

def test_cached_tables_reject_writes():
    f = random_even_zonal(4, 12, seed=8)
    for arr in (_storage_table(f.rule, f.band_limit), _refined_table(f.rule, f.band_limit)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_work_rule_tables_are_not_kept():
    # a power step's work rule is transient: analysis, synthesis and the
    # refined set on it leave both caches untouched
    g = random_even_zonal(5, 20, seed=9).power(4)
    before = (_storage_table.cache_info(), _refined_table.cache_info())
    h = ZonalProfile.from_values(5, g.band_limit, g.values, g.rule)
    h.with_coeffs(h.coeffs).refined_values()
    assert (_storage_table.cache_info(), _refined_table.cache_info()) == before
    assert np.abs(h.refined_values() - h.eval_at(h.refined_set())).max() <= 1e-13


@pytest.mark.parametrize("d", [3, 5, 7])
def test_cached_tables_match_uncached_basis(d):
    f = random_even_zonal(d, 40, seed=d)
    direct = zonal_basis_matrix(d, 40, f.rule.nodes).T @ f.coeffs
    assert np.abs(f.values - direct).max() <= 1e-14 * np.abs(direct).max()
    want = f.eval_at(f.refined_set())
    assert f.refined_set()[0] == -1.0 and f.refined_set()[-1] == 1.0
    assert np.abs(f.refined_values() - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_streamed_power_matches_full_analysis(d):
    # power(p) folds the mirror nodes of its work rule and streams the
    # band-pK analysis; f^p on every node and the full table give the same,
    # for odd degrees too and for the odd work-rule orders pK + 8 of d = 4
    # and 6 at k = 15 (53 and 83), whose centre node 0 counts once
    p = d - 1
    for f in (random_even_zonal(d, 24, seed=20 + d), random_zonal(d, 15, seed=30 + d)):
        k = p * f.band_limit
        got = f.power(p)
        work = gauss_jacobi_rule(d, sphere_exponent(d), k + 8)
        want = ZonalProfile.from_values(d, k, f.eval_at(work.nodes) ** p, work)
        assert got.rule is work and got.band_limit == k
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-14 * np.abs(want.coeffs).max()
        assert np.abs(got.values - want.values).max() <= 1e-14 * np.abs(want.values).max()


def test_streamed_power_memory():
    # the whole band-1536 table on the order-1544 work rule would be 19 MB
    f = random_even_zonal(7, 256, seed=3)
    gauss_jacobi_rule(7, sphere_exponent(7), 6 * 256 + 8)  # build the rule first
    tracemalloc.start()
    try:
        f.power(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.fixture
def head_budget(monkeypatch):
    """Set the byte budget of power's head table, with an empty head slot."""
    def set_budget(nbytes):
        monkeypatch.setattr(zonal, "_HEAD_BYTES", nbytes)
        monkeypatch.setattr(zonal, "_head_slot",
                            {"key": None, "head": None, "memory": np.empty(0)})
    return set_budget


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_power_is_bitwise_equal_with_and_without_head(d, head_budget):
    # budget 0 is the streamed path alone; one block of the work rule's
    # nonnegative nodes makes the stream resume from the head's last two rows;
    # a large budget caches every full block.  The head ends on a block
    # boundary, so every analysis row product is the same BLAS call.  K = 15
    # gives the odd work-rule orders 53 and 83 of d = 4 and 6; K = 40 and 100
    # put degree K inside and outside a one-block head
    p = d - 1
    profiles = (random_even_zonal(d, 40, seed=d), random_even_zonal(d, 100, seed=d),
                random_zonal(d, 15, seed=30 + d), random_zonal(d, 0, seed=d),
                random_zonal(d, 1, seed=d))
    for f in profiles:
        n_h = (p * f.band_limit + 9) // 2  # nodes h >= 0 of the work rule
        got = []
        for budget in (0, zonal._POWER_BLOCK * 8 * n_h, 10**12):
            head_budget(budget)
            got.append(f.power(p).coeffs)
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


def test_power_head_is_read_only(head_budget):
    head_budget(zonal._HEAD_BYTES)
    random_even_zonal(5, 40, seed=1).power(4)
    head = zonal._head_slot["head"]
    assert len(head) == 128  # the two full blocks of the 161 rows
    with pytest.raises(ValueError):
        head[0, 0] = 0.0


def test_power_keeps_one_head_in_reused_memory(head_budget):
    # the slot holds the last head only, and every head is written into one
    # memory, grown only when a head needs more: from d = 4 to 5 it grows
    # (the smaller memory is dropped first), then d = 3 and d = 7 (a head
    # near the budget, as d = 5's) reuse it
    head_budget(zonal._HEAD_BYTES)
    fs = [random_even_zonal(d, 256, seed=d) for d in (4, 5, 3, 7)]
    for f in fs:  # build the rules first
        gauss_jacobi_rule(f.dim, sphere_exponent(f.dim), (f.dim - 1) * 256 + 8)
    tracemalloc.start()
    try:
        for f in fs:
            f.power(f.dim - 1)
            assert zonal._head_slot["key"] == (f.dim, (f.dim - 1) * 256)
            if f.dim == 5:
                grown = zonal._head_slot["memory"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zonal._head_slot["memory"] is grown
    assert peak < zonal._HEAD_BYTES + 2e6


def test_failed_head_build_leaves_no_stale_head(head_budget, monkeypatch):
    # a new head overwrites the old one's memory, so the slot forgets the old
    # head before the first row is written
    head_budget(zonal._HEAD_BYTES)
    f5, f3 = random_even_zonal(5, 40, seed=1), random_even_zonal(3, 40, seed=2)
    want = f5.power(4).coeffs
    rows = zonal._basis_rows

    def broken(d, kmax, t, head=()):
        yield from islice(rows(d, kmax, t, head), 10)
        raise MemoryError

    monkeypatch.setattr(zonal, "_basis_rows", broken)
    with pytest.raises(MemoryError):
        f3.power(2)
    monkeypatch.setattr(zonal, "_basis_rows", rows)
    assert np.array_equal(f5.power(4).coeffs, want)


def test_eval_at_memory_is_bounded_at_high_band():
    # a 16 384-point chunk of the band-768 table alone would be 101 MB;
    # chunks shrink above band 256 so the table stays at its band-256 size
    f = random_even_zonal(3, 768, seed=4)
    t = make_rng(4).uniform(-1.0, 1.0, 20000)
    tracemalloc.start()
    try:
        f.eval_at(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("d", [3, 4, 5, 7, 10])
def test_even_series_matches_masked_table_path(d):
    # the even rows of the recurrence in u = t^2, summed against the even
    # coefficients, against the basis table on the even-masked coefficients;
    # u is rounded, so the bound is relative to the largest value (measured
    # <= 2.0e-13 over 40 seeds of these inputs, <= 4.4e-13 with undamped
    # Gaussian coefficients)
    for band_limit in (0, 1, 8, 64, 256):
        coeffs = random_zonal(d, band_limit, seed=d + band_limit).coeffs
        t = np.concatenate((make_rng(d).uniform(-1.0, 1.0, 500), [-1.0, 0.0, 1.0]))
        want = _series(d, np.where(np.arange(band_limit + 1) % 2, 0.0, coeffs), t)
        rows = list(_even_rows(d, band_limit, t))
        assert len(rows) == band_limit // 2 + 1
        got = sum(c * row for c, row in zip(coeffs[0::2], rows))
        assert got.shape == t.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("d", [3, 4, 7])
def test_scalar_eval_matches_array_path(d):
    f = random_even_zonal(d, 60, seed=30 + d)
    ts = np.concatenate((make_rng(d).uniform(-1.0, 1.0, 20), [-1.0, 1.0]))
    scale = np.abs(f.refined_values()).max()
    arr = f.eval_at(ts)
    for t, want in zip(ts, arr):
        got = f.eval_at(t)
        assert type(got) is float
        assert abs(got - want) <= 1e-14 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(3, 7), band_limit=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
def test_zonal_round_trip_property(d, band_limit, seed):
    # ZonalProfile.from_values of the rule samples returns the coefficients.
    # The worst of these draws, over max |c|, reads 1.0e-14 at d = 4 and
    # K = 42, 0.24 of the bound
    c = make_rng(seed).standard_normal(band_limit + 1)
    f = ZonalProfile.from_coeffs(d, c)
    back = ZonalProfile.from_values(d, band_limit, f.values, f.rule).coeffs
    assert np.max(np.abs(back - c)) <= 1e-15 * (band_limit + 1) * max(1.0, np.abs(c).max())
