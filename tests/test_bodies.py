"""Star bodies, linear images, sections, and the intersection-body operator."""

import numpy as np
import pytest

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
    radon_of_power,
    radon_spectral,
)
from helpers import (
    ball_volume,
    random_even_s2,
    random_points_on_sphere,
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
        assert np.max(np.abs(b.radial_eval(t) - 1.0)) <= 1e-14
    bs = ball_body(3, 8, representation="s2")
    pts = random_points_on_sphere(50, 3, seed=1)
    assert np.max(np.abs(bs.radial_eval(pts) - 1.0)) <= 1e-13


def test_radial_eval_matches_coefficient_synthesis():
    body = zonal_body(3, 8, {2: 0.05, 4: -0.02})
    t = np.linspace(-1.0, 1.0, 100)
    want = body.profile.eval_at(t)
    assert np.max(np.abs(body.radial_eval(t) - want)) <= 1e-13


def test_radial_is_even():
    body = s2_body(10, seed=3, scale=0.1)
    pts = random_points_on_sphere(100, 3, seed=6)
    assert np.max(np.abs(body.radial_eval(pts) - body.radial_eval(-pts))) <= 1e-12


@pytest.mark.parametrize("rep", ["zonal", "s2"])
def test_radial_range_is_measured_once_on_the_refined_set(rep):
    body = s2_body(10, seed=3, scale=0.1) if rep == "s2" else zonal_body(
        5, 12, {2: 0.05, 4: -0.02})
    lo, hi = body.radial_range
    assert body.radial_range is body.radial_range
    vals = body.profile.refined_values()
    assert (lo, hi) == (float(vals.min()), float(vals.max()))
    assert lo < 1.0 < hi


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
    assert b.dim == 5
    assert b.band_limit == 12
    assert b.representation == "zonal"
    assert ball_body(3, 6, representation="s2").representation == "s2"


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
    assert np.max(np.abs(out.radial_eval(pts) - want)) <= 1e-10


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
    g = got.radial_eval(pts)
    w = want.radial_eval(pts)
    assert np.max(np.abs(g - w) / np.abs(w)) <= 1e-6


def test_operator_routes_agree():
    body = s2_body(12, seed=14, scale=0.1)
    a = intersection_body(body, method="spectral")
    b = intersection_body(body, method="geometric")
    assert np.max(np.abs(a.profile.coeffs - b.profile.coeffs)) <= 1e-8


def test_operator_preserves_evenness_and_positivity():
    body = s2_body(12, seed=15, scale=0.2)
    out = intersection_body(body)  # constructor re-checks both invariants
    degs = np.arange(out.band_limit + 1)
    odd = out.profile.energies()[degs % 2 == 1]
    assert float(np.sum(odd)) <= 1e-20
    assert out.profile.values.min() > 0


def test_gl_equivariance_s2():
    # the raw operator obeys the exact linear-image law: applying T to the
    # input matches applying inv(T)^t to the output, up to a 1/|det T| factor
    Q = np.array([[0.0, 4e-4, 3e-4], [4e-4, 0.0, -2e-4], [3e-4, -2e-4, 0.0]])
    T = np.eye(3) + Q / np.linalg.norm(Q, 2) * 1e-3
    body = s2_body(16, seed=16, scale=0.05)
    det = abs(np.linalg.det(T))
    lhs = radon_of_power(apply_linear_map(body, T), normalize=False).profile.coeffs
    rhs_body = apply_linear_map(radon_of_power(body, normalize=False), np.linalg.inv(T).T)
    assert np.max(np.abs(lhs - rhs_body.profile.coeffs / det)) <= 1e-5
    # the mean-normalized operator sees the same body on both sides
    nl = intersection_body(apply_linear_map(body, T)).profile.coeffs
    nr = apply_linear_map(intersection_body(body), np.linalg.inv(T).T).profile.coeffs
    assert np.max(np.abs(nl - nr / nr[0])) <= 1e-5


def test_gl_equivariance_zonal_axis_map():
    T = np.diag([1.0005, 1.0005, 1.0005, 0.999])
    det = abs(np.linalg.det(T))
    body = zonal_body(4, 12, {4: 0.03})
    lhs = radon_of_power(apply_linear_map(body, T), normalize=False).profile.coeffs
    rhs_body = apply_linear_map(radon_of_power(body, normalize=False), np.linalg.inv(T).T)
    assert np.max(np.abs(lhs - rhs_body.profile.coeffs / det)) <= 1e-5


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
    raw = radon_of_power(body, normalize=False)
    for ti in (0.0, 0.6):
        direction = np.array([np.sqrt(1 - ti * ti), 0.0, 0.0, ti])
        s = section_volume(body, direction)
        got = raw.profile.eval_at(np.array([ti]))[0]
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
    raw = radon_of_power(body, normalize=False)
    pts = random_points_on_sphere(20, 3, seed=18)
    sections = np.array([section_volume(body, p) for p in pts])
    got = raw.radial_eval(pts)
    want = sections / np.pi
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9
    assert raw.meta["trunc_loss"] <= 1e-12


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
    assert body.representation == "zonal" and body.dim == 4
    t = np.linspace(-1.0, 1.0, 100)
    want = 1.0 / np.sqrt((1.0 - t**2) / 1.1**2 + t**2 / 0.9**2)
    assert np.max(np.abs(body.radial_eval(t) - want)) <= 1e-9


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


def test_radon_of_power_meta():
    body = zonal_body(3, 8, {2: 0.05})
    out = radon_of_power(body)
    assert "trunc_loss" in out.meta
    with pytest.raises(ValueError):
        radon_of_power(body, method="magic")
