"""Star bodies, linear images, sections, and the intersection-body operator."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ibodylab import (
    PositivityError,
    S2Function,
    StarBody,
    ZonalProfile,
    apply_linear_map,
    ball_body,
    ellipsoid_body,
    ellipsoid_intersection_closed_form,
    intersection_body,
    make_rng,
    radon_spectral,
    s2_grid,
    sh_degrees,
    zonal_basis_matrix,
)
from ibodylab.bodies import _deviation
from helpers import (
    ball_volume,
    dipping_zonal_body,
    direct_linear_image,
    random_even_s2,
    random_points_on_sphere,
    random_zonal_body,
    s2_body,
    section_volume,
    zonal_body,
)


# ---------------------------------------------------------------------------
# construction and evaluation

def test_ball_radial_is_one():
    # zonal bodies evaluate at heights, s2 bodies at unit points
    t = np.linspace(-1.0, 1.0, 41)
    for d in (3, 4, 7):
        b = ball_body(d, 8)
        assert np.max(np.abs(b.profile.eval_at(t) - 1.0)) <= 1e-14
    bs = ball_body(3, 8, representation="s2")
    pts = random_points_on_sphere(50, 3, seed=1)
    assert np.max(np.abs(bs.profile.eval_at_points(pts) - 1.0)) <= 1e-13


def test_radial_eval_matches_coefficient_synthesis():
    body = zonal_body(3, 8, {2: 0.05, 4: -0.02})
    t = np.linspace(-1.0, 1.0, 100)
    want = zonal_basis_matrix(3, 8, t).T @ body.profile.coeffs
    assert np.max(np.abs(body.profile.eval_at(t) - want)) <= 1e-13


def test_radial_is_even():
    body = s2_body(10, seed=3, scale=0.1)
    pts = random_points_on_sphere(100, 3, seed=6)
    f = body.profile
    assert np.max(np.abs(f.eval_at_points(pts) - f.eval_at_points(-pts))) <= 1e-12


@pytest.mark.parametrize("rep", ["zonal", "s2"])
def test_radial_range_is_measured_once_on_the_refined_set(rep):
    body = s2_body(10, seed=3, scale=0.1) if rep == "s2" else zonal_body(
        5, 12, {2: 0.05, 4: -0.02})
    # the range is 1 + the extremes of the deviation's one scan, not a
    # second scan of rho
    lo, hi = body.radial_range
    assert body.radial_range is body.radial_range
    vals = 1.0 + _deviation(body.profile).refined_values()
    assert (lo, hi) == (float(vals.min()), float(vals.max()))
    assert lo < 1.0 < hi


def test_refined_positivity_catches_a_dip_between_nodes():
    # the constructor checks the storage nodes only; the body's one refined
    # scan sees the dip between two of them
    body = dipping_zonal_body()
    assert body.profile.values.min() > 0.0
    assert body.profile.refined_values().min() < 0.0
    with pytest.raises(PositivityError, match="not strictly positive on the refined set"):
        body.radial_range


def test_rejects_nonpositive_radial():
    c = np.zeros(3)
    c[0], c[2] = 1.0, 1.0  # dips negative near the equator
    with pytest.raises(PositivityError):
        StarBody(ZonalProfile.from_coeffs(3, c))


def test_rejects_nan_radial():
    c = np.zeros(5)
    c[0], c[4] = 1.0, np.nan
    with pytest.raises(PositivityError):
        StarBody(ZonalProfile.from_coeffs(3, c))


def test_rejects_odd_part():
    c = np.zeros(4)
    c[0], c[3] = 1.0, 0.05
    with pytest.raises(ValueError):
        StarBody(ZonalProfile.from_coeffs(3, c))


def test_properties():
    b = ball_body(5, 12)
    assert b.profile.dim == 5
    assert b.profile.band_limit == 12
    assert b.profile.representation == "zonal"
    assert ball_body(3, 6, representation="s2").profile.representation == "s2"


@pytest.mark.parametrize("d,representation", [(3, "zonl"), (4, "S2")])
def test_ball_rejects_an_unknown_representation(d, representation):
    # a misspelt name is neither taken for "s2" nor blamed on the dimension
    with pytest.raises(ValueError, match=f"unknown representation '{representation}'"):
        ball_body(d, 8, representation)


# ---------------------------------------------------------------------------
# linear images

def test_identity_map_is_noop():
    body = zonal_body(4, 8, {2: 0.1})
    out = apply_linear_map(body, np.eye(4))
    assert np.max(np.abs(out.profile.coeffs - body.profile.coeffs)) <= 1e-13


def test_scalar_map_rescales():
    body = zonal_body(3, 8, {4: 0.07})
    out = apply_linear_map(body, 2.0 * np.eye(3))
    assert np.max(np.abs(out.profile.coeffs - body.profile.coeffs / 2.0)) <= 1e-14


def test_linear_image_of_ball_closed_form():
    # radial function of A^{-1}(unit ball) in direction x is 1/|Ax|
    A = np.array([[1.1, 0.05, 0.0], [0.05, 0.9, 0.02], [0.0, 0.02, 1.0]])
    body = ball_body(3, 24, representation="s2")
    out = apply_linear_map(body, A)
    pts = random_points_on_sphere(200, 3, seed=8)
    want = 1.0 / np.linalg.norm(pts @ A.T, axis=1)
    assert np.max(np.abs(out.profile.eval_at_points(pts) - want)) <= 1e-10


def test_zonal_map_must_preserve_axis():
    body = zonal_body(3, 8, {2: 0.05})
    ok = np.diag([1.2, 1.2, 0.8])
    apply_linear_map(body, ok)
    with pytest.raises(ValueError):
        apply_linear_map(body, np.diag([1.2, 0.9, 0.8]))


def test_map_rejects_wrong_shape_and_singular():
    body = zonal_body(3, 8, {})
    with pytest.raises(ValueError):
        apply_linear_map(body, np.eye(4))
    with pytest.raises(ValueError):
        apply_linear_map(body, np.zeros((3, 3)))


def _symmetric(upper, size: float) -> np.ndarray:
    """I + Q, Q symmetric with upper triangle along `upper` and |Q| = size."""
    q = np.zeros((3, 3))
    q[np.triu_indices(3)] = upper
    q += np.triu(q, 1).T
    norm = np.linalg.norm(q, 2)
    return np.eye(3) + (q * (size / norm) if norm > 0.0 else q)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(band_limit=st.integers(2, 32), seed=st.integers(0, 2**32 - 1),
       upper=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       size=st.floats(0.0, 0.05))
def test_s2_linear_map_matches_direct_evaluation(band_limit, seed, upper, size):
    # the corrected step's maps (T = I + Q symmetric, |T - I| <= 0.05): the
    # singular-frame map agrees with evaluating at every mapped grid node;
    # the worst of these draws reads 1.6e-15
    T = _symmetric(upper, size)
    body = s2_body(band_limit, seed=seed, scale=0.05)
    got = apply_linear_map(body, T).profile.coeffs
    assert np.max(np.abs(got - direct_linear_image(body.profile, T))) <= 1e-14


@pytest.mark.parametrize("band_limit,bound", [(8, 1e-11), (16, 2e-13), (32, 1e-14)])
def test_s2_strong_linear_map_against_a_finer_grid(band_limit, bound):
    # T = diag(1, 1, -1)(I + A) with |A| = 0.3 and det T < 0.  The reference
    # analyzes the direct map on a grid 4 times finer, so what is left is
    # the aliasing of each storage-grid analysis: the singular-frame map
    # aliases in U's frame, the direct one in the body's.  Worst over the
    # seeds, singular-frame against direct: 1.3e-12 and 3.5e-13 at L = 8,
    # 2.4e-14 and 4.6e-16 at L = 16, 1.6e-15 and 1.5e-15 at L = 32
    for seed in range(4):
        a = make_rng(seed).standard_normal((3, 3))
        T = np.diag([1.0, 1.0, -1.0]) @ (np.eye(3) + a * (0.3 / np.linalg.norm(a, 2)))
        body = s2_body(band_limit, seed=seed, scale=0.05)
        grid = body.profile.grid
        want = direct_linear_image(body.profile, T, s2_grid(4 * (grid.n_theta - 1)))
        assert np.max(np.abs(apply_linear_map(body, T).profile.coeffs - want)) <= bound
        assert np.max(np.abs(direct_linear_image(body.profile, T) - want)) <= bound


@pytest.mark.parametrize("seed", range(4))
def test_s2_linear_maps_compose(seed):
    # A_T1 A_T2 = A_(T2 T1), where A_T f(x) = f(Tx/|Tx|) / |Tx|.  Rotations
    # keep band L, so the law holds to rounding; a general map's intermediate
    # image is truncated to band L, which a body of degree <= 4 and maps
    # 1e-3 from I (one of them a reflection) make negligible: the worst
    # gap reads 1.5e-15
    rng = make_rng(40 + seed)
    rough = s2_body(16, seed=seed, scale=0.05)
    low = StarBody(rough.profile.with_coeffs(
        np.where(sh_degrees(16) <= 4, rough.profile.coeffs, 0.0)))
    r1, r2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    t1 = np.eye(3) + 1e-3 * rng.standard_normal((3, 3))
    t2 = np.diag([1.0, -1.0, 1.0]) @ (np.eye(3) + 1e-3 * rng.standard_normal((3, 3)))
    for body, m1, m2 in ((rough, r1, r2), (low, t1, t2)):
        lhs = apply_linear_map(apply_linear_map(body, m2), m1).profile.coeffs
        rhs = apply_linear_map(body, m2 @ m1).profile.coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


# ---------------------------------------------------------------------------
# the operator itself

@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_ball_is_fixed_point_zonal(d):
    out = intersection_body(ball_body(d, 16))
    dev = out.profile.coeffs.copy()
    dev[0] -= 1.0
    assert np.max(np.abs(dev)) <= 1e-12


def test_ball_is_fixed_point_s2():
    out = intersection_body(ball_body(3, 16, representation="s2"))
    dev = out.profile.coeffs.copy()
    dev[0] -= 1.0
    assert np.max(np.abs(dev)) <= 1e-12


def test_first_order_response_flips_degree_two():
    eps = 1e-4
    body = zonal_body(3, 8, {2: eps})
    out = intersection_body(body)
    c = out.profile.coeffs
    # mean-normalized output carries -eps at degree 2 up to O(eps^2)
    assert c[0] == pytest.approx(1.0, abs=1e-7)
    assert c[2] / eps == pytest.approx(-1.0, abs=1e-3)


def test_ellipsoid_law_d3():
    # for d = 3 the operator sends ellipsoids to ellipsoids with a known
    # volume factor; closed form below, numerics within 1e-6 relative sup
    A = np.diag([1.2, 1.0, 0.8])
    got = intersection_body(ellipsoid_body(A))
    want = ellipsoid_intersection_closed_form(A)
    pts = random_points_on_sphere(400, 3, seed=10)
    g = got.profile.eval_at_points(pts)
    w = want.profile.eval_at_points(pts)
    assert np.max(np.abs(g - w) / np.abs(w)) <= 1e-6


def test_operator_routes_agree():
    body = s2_body(12, seed=14, scale=0.1)
    a = intersection_body(body, method="spectral")
    b = intersection_body(body, method="geometric")
    assert np.max(np.abs(a.profile.coeffs - b.profile.coeffs)) <= 1e-8


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([3, 4, 5, 7]), band_limit=st.integers(2, 32),
       seed=st.integers(0, 2**32 - 1))
def test_operator_routes_agree_zonal_property(d, band_limit, seed):
    body = random_zonal_body(d, band_limit, seed, scale=0.1)
    a = intersection_body(body, method="spectral")
    b = intersection_body(body, method="geometric")
    assert np.max(np.abs(a.profile.coeffs - b.profile.coeffs)) <= 1e-8
    assert abs(a.meta["mean_power"] - b.meta["mean_power"]) <= 1e-8


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from([(3, "zonal"), (4, "zonal"), (5, "zonal"), (7, "zonal"),
                             (3, "s2")]),
       band_limit=st.integers(0, 32), method=st.sampled_from(["spectral", "geometric"]))
def test_ball_is_fixed_under_both_routes_property(case, band_limit, method):
    d, rep = case
    out = intersection_body(ball_body(d, band_limit, rep), method=method)
    dev = out.profile.coeffs.copy()
    dev[0] -= 1.0
    assert np.max(np.abs(dev)) <= 1e-12
    assert abs(out.meta["mean_power"] - 1.0) <= 1e-12


def test_operator_preserves_evenness_and_positivity():
    body = s2_body(12, seed=15, scale=0.2)
    out = intersection_body(body)  # constructor re-checks both invariants
    degs = np.arange(out.profile.band_limit + 1)
    odd = out.profile.energies()[degs % 2 == 1]
    assert float(np.sum(odd)) <= 1e-20
    assert out.profile.values.min() > 0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       upper=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
@example(seed=16, upper=[0.0, 4e-4, 3e-4, 0.0, -2e-4, 0.0])
def test_gl_equivariance_s2(seed, upper):
    # the raw operator obeys the exact linear-image law: applying T to the
    # input matches applying inv(T)^t to the output, up to a 1/|det T| factor;
    # T = I + Q with Q symmetric in the direction `upper` (its upper triangle)
    # and |T - I| = 1e-3.  Both bounds hold with room: the worst draw here
    # reads 7.6e-8 on both sides, the seed-16 example 4.1e-8
    Q = np.zeros((3, 3))
    Q[np.triu_indices(3)] = upper
    Q += np.triu(Q, 1).T
    assume(np.linalg.norm(Q, 2) > 1e-3)
    T = np.eye(3) + Q / np.linalg.norm(Q, 2) * 1e-3
    body = s2_body(16, seed=seed, scale=0.05)
    det = abs(np.linalg.det(T))
    out_l = intersection_body(apply_linear_map(body, T))
    out_r = intersection_body(body)
    nl = out_l.profile.coeffs
    nr = apply_linear_map(out_r, np.linalg.inv(T).T).profile.coeffs
    # the raw transform is mean_power times the operator's output
    lhs, rhs = out_l.meta["mean_power"] * nl, out_r.meta["mean_power"] * nr
    assert np.max(np.abs(lhs - rhs / det)) <= 1e-5
    # the mean-normalized operator sees the same body on both sides
    assert np.max(np.abs(nl - nr / nr[0])) <= 1e-5


def test_gl_equivariance_zonal_axis_map():
    T = np.diag([1.0005, 1.0005, 1.0005, 0.999])
    det = abs(np.linalg.det(T))
    body = zonal_body(4, 12, {4: 0.03})
    out_l = intersection_body(apply_linear_map(body, T))
    out_r = intersection_body(body)
    lhs = out_l.meta["mean_power"] * out_l.profile.coeffs
    rhs = out_r.meta["mean_power"] * apply_linear_map(out_r, np.linalg.inv(T).T).profile.coeffs
    assert np.max(np.abs(lhs - rhs / det)) <= 1e-5


# ---------------------------------------------------------------------------
# sections

def test_ball_section_is_unit_disk_area():
    b = ball_body(3, 8)
    assert section_volume(b, np.array([0.0, 0.0, 1.0])) == pytest.approx(np.pi, rel=1e-12)
    b4 = ball_body(4, 8)
    want = 4.0 * np.pi / 3.0
    assert section_volume(b4, np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(want, rel=1e-12)


def test_ellipsoid_axis_section():
    # section of diag(a, b, c) ellipsoid by the plane z = 0 is an ellipse
    # with semiaxes a, b and area pi a b
    body = ellipsoid_body(np.diag([1.2, 1.0, 0.8]), band_limit=48)
    got = section_volume(body, np.array([0.0, 0.0, 1.0]))
    assert got == pytest.approx(np.pi * 1.2 * 1.0, rel=1e-8)
    got_x = section_volume(body, np.array([1.0, 0.0, 0.0]))
    assert got_x == pytest.approx(np.pi * 1.0 * 0.8, rel=1e-8)


def test_section_consistency_zonal():
    # raw transform of rho^{d-1} is the section volume divided by the volume
    # of the unit (d-1)-ball; body chosen so rho^{d-1} stays inside the band
    body = zonal_body(4, 12, {4: 0.05})
    out = intersection_body(body)
    for ti in (0.0, 0.6):
        direction = np.array([np.sqrt(1 - ti * ti), 0.0, 0.0, ti])
        s = section_volume(body, direction)
        got = out.meta["mean_power"] * out.profile.eval_at(np.array([ti]))[0]
        assert got == pytest.approx(s / ball_volume(3), rel=1e-9)


@pytest.mark.parametrize("d", [5, 7])
def test_section_volume_integrates_the_full_power(d):
    # rho^(d-1) has band (d-1)K; the subsphere rule must be exact up to it
    band = 32
    body = zonal_body(d, band, {k: 0.02 / (1.0 + k) ** 2 for k in range(2, band + 1, 2)})
    ref = radon_spectral(body.profile.power(d - 1))
    for t in (0.0, 0.3, 0.8):
        want = ref.eval_at(np.array([t]))[0] * ball_volume(d - 1)
        assert abs(section_volume(body, t) - want) <= 1e-12 * want


def test_section_consistency_s2():
    body = s2_body(16, seed=17, scale=0.08, decay=2.0)
    # keep rho^2 strictly inside band 16 by zeroing everything above 8
    c = body.profile.coeffs.copy()
    degs = np.repeat(np.arange(17), 2 * np.arange(17) + 1)
    c[degs > 8] = 0.0
    body = StarBody(S2Function.from_coeffs(c))
    out = intersection_body(body)
    pts = random_points_on_sphere(20, 3, seed=18)
    sections = np.array([section_volume(body, p) for p in pts])
    got = out.meta["mean_power"] * out.profile.eval_at_points(pts)
    want = sections / np.pi
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9
    assert out.meta["mean_power"] * out.meta["trunc_loss"] <= 1e-12


# ---------------------------------------------------------------------------
# ellipsoid builder

def test_identity_ellipsoid_is_ball():
    body = ellipsoid_body(np.eye(3))
    dev = body.profile.coeffs.copy()
    dev[0] -= 1.0
    assert np.max(np.abs(dev)) <= 1e-13


def test_axis_aligned_ellipsoid_zonal():
    # semiaxes are the diagonal entries: rho(x) = 1/|A^{-1} x|, a function of
    # the height t alone when the semiaxes are (a, ..., a, b); zonal for d != 3
    body = ellipsoid_body(np.diag([1.1, 1.1, 1.1, 0.9]))
    assert body.profile.representation == "zonal" and body.profile.dim == 4
    t = np.linspace(-1.0, 1.0, 100)
    want = 1.0 / np.sqrt((1.0 - t**2) / 1.1**2 + t**2 / 0.9**2)
    assert np.max(np.abs(body.profile.eval_at(t) - want)) <= 1e-9


@pytest.mark.parametrize("band_limit", [8, 20, 32])
def test_projected_ellipsoid_has_no_odd_energy(band_limit):
    # the radial function is even, so its projection's odd part is 0, also
    # on S^2 grids of an odd number of longitudes (49, 97, 145 here)
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for a in (np.diag([4.0, 1.0, 0.25]), Q @ np.diag([0.85, 1.1, 1.2]) @ Q.T,
              np.diag([1.1, 1.1, 1.1, 0.9])):
        for build in (ellipsoid_body, ellipsoid_intersection_closed_form):
            prof = build(a, band_limit).profile
            assert not prof.coeffs[prof.degrees % 2 == 1].any()


def test_spd_ellipsoid_band32_truncation():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(B)
    A = Q @ np.diag([0.85, 1.1, 1.2]) @ Q.T
    b32 = ellipsoid_body(A, band_limit=32)
    b64 = ellipsoid_body(A, band_limit=64)
    tail = np.sqrt(float(np.sum(b64.profile.energies()[33:])))
    assert tail <= 1e-9
    assert b32.meta["projection_error"] <= 1e-9
    n32 = b32.profile.coeffs.size
    assert np.max(np.abs(b64.profile.coeffs[:n32] - b32.profile.coeffs)) <= 1e-9


def test_ellipsoid_rejects_bad_matrix():
    with pytest.raises(ValueError):
        ellipsoid_body(np.diag([1.0, -1.0, 1.0]))
    M = np.eye(3)
    M[0, 1] = 0.3  # not symmetric
    with pytest.raises(ValueError):
        ellipsoid_body(M)


def test_intersection_body_meta():
    body = zonal_body(3, 8, {2: 0.05})
    out = intersection_body(body)
    assert "trunc_loss" in out.meta
    assert "mean_power" in out.meta
    with pytest.raises(ValueError):
        intersection_body(body, method="magic")


def test_meta_is_not_copied_to_new_bodies():
    # the operator's trunc_loss and mean_power describe its own output; a
    # mapped or rescaled copy of that output is another body
    from ibodylab.iteration import _rescaled_to_mean_one

    out = intersection_body(zonal_body(3, 8, {2: 0.05, 4: 0.02}))
    assert set(out.meta) == {"trunc_loss", "mean_power"}
    assert apply_linear_map(out, np.diag([1.0, 1.0, 1.05])).meta == {}
    doubled = StarBody(out.profile.with_coeffs(2.0 * out.profile.coeffs), meta=out.meta)
    assert _rescaled_to_mean_one(doubled).meta == {}
