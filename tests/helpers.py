"""Shared builders for randomized test inputs, closed-form references, and
independent oracles: the direct section-volume quadrature that checks
`intersection_body` (its output times meta["mean_power"] is the raw
transform R(rho^(d-1))), the direct zonal analysis on any rule that checks
the folded one of work rules, the unfolded geometric zonal route and the
pointwise geometric S^2 route that check the cached quadrature operators
of `radon`, the per-order point evaluation that checks the
double-Fourier-sphere evaluator, the per-order S^2 analysis, synthesis and
double Fourier series on whole grid columns that check the folded, batched
transforms, and the direct S^2 linear map that checks `apply_linear_map`'s
singular-frame one.

Everything random routes through make_rng so each test pins its own seed
and reruns reproduce the same numbers bit for bit.
"""

import math

import numpy as np

from ibodylab import (
    S2Function,
    StarBody,
    ZonalProfile,
    analyze_s2,
    default_rule,
    eval_s2_at_points,
    make_rng,
    sh_degrees,
    subsphere_rule,
    sup_norm,
    zonal_basis_matrix,
)
from ibodylab.cli import _random_even_zonal, _random_s2
from ibodylab.sphharm import _band_limit, _grid_tables, _legendre_orders, _order_slots


def random_even_zonal(d: int, band_limit: int, seed: int, decay: float = 1.0) -> ZonalProfile:
    return _random_even_zonal(d, band_limit, make_rng(seed), decay)


def random_zonal(d: int, band_limit: int, seed: int, rule=None) -> ZonalProfile:
    """Gaussian coefficients at every degree, odd ones included, damped like
    the `radon-oracle` inputs, on `rule` (the default rule if None)."""
    k = np.arange(band_limit + 1)
    coeffs = make_rng(seed).standard_normal(band_limit + 1) * (1.0 + k) ** -1.5
    return ZonalProfile.from_coeffs(d, coeffs, rule)


def random_s2(band_limit: int, seed: int, decay: float = 1.5) -> S2Function:
    """Gaussian coefficients at every degree and order, odd ones included,
    damped like the `radon-oracle` inputs."""
    return _random_s2(band_limit, make_rng(seed), decay)


def random_even_s2(band_limit: int, seed: int, decay: float = 1.5) -> S2Function:
    f = random_s2(band_limit, seed, decay)
    return f.with_coeffs(np.where(sh_degrees(band_limit) % 2, 0.0, f.coeffs))


def zonal_body(d: int, band_limit: int, pert: dict[int, float]) -> StarBody:
    """Ball plus the given {degree: coefficient} zonal perturbation."""
    coeffs = np.zeros(band_limit + 1)
    coeffs[0] = 1.0
    for k, c in pert.items():
        coeffs[k] = c
    return StarBody(ZonalProfile.from_coeffs(d, coeffs))


def _ball_plus(phi, scale: float) -> StarBody:
    """Ball plus the mean-free part of phi scaled to sup norm `scale`."""
    coeffs = phi.coeffs.copy()
    coeffs[0] = 0.0
    coeffs = coeffs * (scale / sup_norm(phi.with_coeffs(coeffs)))
    coeffs[0] = 1.0
    return StarBody(phi.with_coeffs(coeffs))


def s2_body(band_limit: int, seed: int, scale: float, decay: float = 1.5) -> StarBody:
    """Ball plus a random even perturbation scaled to sup norm `scale`."""
    return _ball_plus(random_even_s2(band_limit, seed, decay), scale)


def random_zonal_body(d: int, band_limit: int, seed: int, scale: float,
                      decay: float = 1.0) -> StarBody:
    """Ball plus a random even zonal perturbation scaled to sup norm `scale`."""
    return _ball_plus(random_even_zonal(d, band_limit, seed, decay), scale)


def dipping_zonal_body() -> StarBody:
    """An even d = 3 body, band 4, positive at every storage node but below
    0 between two of them: (t^2 - c^2)^2 / c^2 - h^2 / 2, with c midway
    between the storage nodes around 1/2 and h their spacing.  The quartic
    is about 4 (t - c)^2 near c, so h^2 / 2 at those nodes and -h^2 / 2 at c."""
    rule = default_rule(3, 4)
    t = rule.nodes
    i = int(np.searchsorted(t, 0.5))
    c, h = 0.5 * (t[i - 1] + t[i]), t[i] - t[i - 1]
    return StarBody(ZonalProfile.from_values(3, 4, (t * t - c * c) ** 2 / (c * c) - 0.5 * h * h, rule))


def tangent_frame(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent vectors (u, v) at unit points x, shape (..., 3).

    u is orthogonal to x and to a coordinate axis away from x (e_1 unless
    |x_1| > 0.9, then e_2); v = x cross u completes the right-handed frame.
    """
    x = np.asarray(x, dtype=float)
    a = np.zeros_like(x)
    pick = np.abs(x[..., 0]) <= 0.9
    a[..., 0] = pick
    a[..., 1] = ~pick
    u = np.cross(a, x)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(x, u)


def random_points_on_sphere(n: int, dim: int, seed: int) -> np.ndarray:
    rng = make_rng(seed)
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def quadratic_form_profile(q: np.ndarray, like):
    """The restriction of x -> (qx, x) to the sphere, in the same
    representation as `like` (checks the degree-2 fit pointwise)."""
    q = np.asarray(q, dtype=float)
    if isinstance(like, ZonalProfile):
        a, b = float(q[0, 0]), float(q[-1, -1])
        t = like.rule.nodes
        vals = a * (1.0 - t * t) + b * t * t
        return ZonalProfile.from_values(like.dim, like.band_limit, vals, like.rule)
    pts = like.grid.points()
    vals = np.einsum("tpi,ij,tpj->tp", pts, q, pts)
    return S2Function.from_values(like.band_limit, vals, like.grid)


def even_moment(exponent: float, power: int) -> float:
    """Exact moment  integral of t^power  against the normalized weight
    (1 - t^2)^exponent, for even nonnegative `power` (odd moments vanish).

    Uses the ratio recurrence m_{2j} / m_{2j-2} = (2j - 1) / (2j + 2 lambda + 1).
    """
    if power % 2 == 1:
        return 0.0
    m = 1.0
    for j in range(1, power // 2 + 1):
        m *= (2.0 * j - 1.0) / (2.0 * j + 2.0 * exponent + 1.0)
    return m


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^n in R^(n+1)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def section_volume(body: StarBody, direction) -> float:
    """(d-1)-volume of the central hyperplane section orthogonal to the
    direction, by direct polar quadrature over the subsphere.

    For zonal bodies the direction may be given as its height t = <xi, axis>
    (scalar) or as a d-vector; for s2 bodies it is a unit 3-vector.
    """
    f = body.profile
    d = f.dim
    if isinstance(f, ZonalProfile):
        arr = np.asarray(direction, dtype=float)
        if arr.ndim == 1 and arr.size == d:
            t = float(arr[-1] / np.linalg.norm(arr))
        else:
            t = float(arr)
        if not -1.0 <= t <= 1.0:
            raise ValueError("zonal direction must be a height in [-1, 1]")
        # exact for rho^(d-1), of band (d-1)K, with the geometric route's margin 8
        sub = subsphere_rule(d, (d - 1) * f.band_limit + 8)
        args = np.sqrt(max(1.0 - t * t, 0.0)) * sub.nodes
        avg = float(f.eval_at(args) ** (d - 1) @ sub.weights)
        return sphere_area(d - 2) / (d - 1) * avg
    xi = np.asarray(direction, dtype=float)
    xi = xi / np.linalg.norm(xi)
    n = 2 * f.band_limit + 9
    tau = 2.0 * np.pi * np.arange(n) / n
    u, v = tangent_frame(xi)
    circle = np.outer(np.cos(tau), u) + np.outer(np.sin(tau), v)
    avg = float((f.eval_at_points(circle) ** 2).mean())
    return sphere_area(1) / 2.0 * avg


def unfolded_radon_zonal(f: ZonalProfile) -> ZonalProfile:
    """The geometric zonal route on every node of both rules: f at the
    heights s sqrt(1 - t^2) of the whole subsphere rule, for every storage
    node t.  The reference for the folded `radon_geometric_zonal`."""
    sub = subsphere_rule(f.dim, f.band_limit + 8)
    radial = np.sqrt(np.clip(1.0 - f.rule.nodes**2, 0.0, None))
    args = np.outer(radial, sub.nodes)
    out_vals = f.eval_at(args.ravel()).reshape(args.shape) @ sub.weights
    return ZonalProfile.from_coeffs(
        f.dim, direct_zonal_analysis(f.rule, f.band_limit, out_vals), f.rule)


def direct_zonal_analysis(rule, band_limit: int, values: np.ndarray) -> np.ndarray:
    """Coefficients 0..K of `values` on every node of `rule`: the whole basis
    table times the weighted samples, unfolded and unstreamed.  The reference
    for `ZonalProfile.from_values` on rules that are not storage rules."""
    return zonal_basis_matrix(rule.dim, band_limit, rule.nodes) @ (rule.weights * values)


def pointwise_radon_s2(f: S2Function) -> S2Function:
    """The geometric S^2 route summed call by call: f's per-order sums at the
    heights of the great circles of the grid directions at longitude 0,
    times cos and sin m psi, averaged over each circle.  The reference for
    the cached, folded operator of `radon_geometric_s2`."""
    L, grid = f.band_limit, f.grid
    circle_points = 2 * L + 9
    tau = 2.0 * np.pi * np.arange(circle_points) / circle_points
    x = grid.x[:, None]
    z = np.sqrt(1.0 - x * x) * np.sin(tau)
    psi = np.arctan2(np.cos(tau), -x * np.sin(tau))
    c, s = np.empty((2, grid.n_theta, L + 1))
    for m, scale, a, b in _order_sums(f.coeffs, L, z.ravel()):
        a, b = scale * a.reshape(psi.shape), scale * b.reshape(psi.shape)
        cos_m, sin_m = np.cos(m * psi), np.sin(m * psi)
        c[:, m] = (a * cos_m + b * sin_m).mean(axis=1)
        s[:, m] = (b * cos_m - a * sin_m).mean(axis=1)
    cos_t, sin_t = _grid_tables(L, grid)[1]
    return S2Function.from_values(L, c @ cos_t + s @ sin_t, grid)


def _order_sums(coeffs: np.ndarray, band_limit: int, z: np.ndarray):
    """Yield (m, scale, a_m, b_m), m = 0..L: the cosine and sine sums
    a_m = sum_l c[l, m] Q[l, m](z) and b_m = sum_l c[l, -m] Q[l, m](z) at
    heights z, so f = sum_m scale (a_m cos m phi + b_m sin m phi)."""
    orders = zip(_legendre_orders(band_limit, z), _order_slots(band_limit))
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(orders):
        yield m, scale, coeffs[cos_i] @ qm, coeffs[sin_i] @ qm


def unfolded_synthesize_s2(coeffs: np.ndarray, grid) -> np.ndarray:
    """Grid values summed order by order on every grid row, each order's
    Legendre sums times cos and sin m phi: the reference for the folded,
    batched `synthesize_s2`."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(grid.weights.shape)
    for m, scale, a, b in _order_sums(coeffs, _band_limit(coeffs), grid.x):
        out += scale * (np.outer(a, np.cos(m * grid.phi)) + np.outer(b, np.sin(m * grid.phi)))
    return out


def unfolded_analyze_s2(band_limit: int, values: np.ndarray, grid) -> np.ndarray:
    """Coefficients of the band-limited part of grid samples, projected
    order by order on every grid row with one matrix-vector product each:
    the reference for the folded, batched `analyze_s2`."""
    m_phi = np.arange(band_limit + 1)[:, None] * grid.phi
    wfc = grid.w_theta[:, None] * (values @ np.cos(m_phi).T) / grid.n_phi
    wfs = grid.w_theta[:, None] * (values @ np.sin(m_phi).T) / grid.n_phi
    coeffs = np.empty((band_limit + 1) ** 2)
    orders = zip(_legendre_orders(band_limit, grid.x), _order_slots(band_limit))
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(orders):
        coeffs[sin_i] = scale * (qm @ wfs[:, m])  # sine first: at m = 0 slots coincide
        coeffs[cos_i] = scale * (qm @ wfc[:, m])
    return coeffs


def unfolded_dfs_coeffs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double Fourier series of `sphharm._dfs_coeffs`, from the order
    sums at every colatitude pi k / (L + 1), k = 0..L+1, with cos taken at
    each, extended to the full circle and put through one rfft: the
    reference for the folded `_dfs_coeffs`."""
    coeffs = np.asarray(coeffs, dtype=float)
    L = _band_limit(coeffs)
    samples = np.empty((2, L + 1, 2 * L + 2))
    for m, scale, a, b in _order_sums(coeffs, L, np.cos(np.pi * np.arange(L + 2) / (L + 1))):
        samples[:, m, :L + 2] = scale * a, scale * b * (m > 0)  # b meets sin 0 phi = 0
    samples[:, :, L + 2:] = samples[:, :, L:0:-1]
    samples[:, 1::2, L + 2:] *= -1.0
    spec = np.fft.rfft(samples, axis=-1)[..., :L + 1] / (L + 1)
    spec[..., 0] *= 0.5
    return spec[:, 0::2].real, -spec[:, 1::2].imag


def order_sum_eval(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f at unit points, shape (n, 3), summed order by order from the
    Legendre recurrence at the heights z and cos/sin m arctan2(y, x): the
    reference for the double-Fourier-sphere `eval_s2_at_points`."""
    coeffs = np.asarray(coeffs, dtype=float)
    phi = np.arctan2(points[:, 1], points[:, 0])
    out = np.zeros(len(points))
    for m, scale, a, b in _order_sums(coeffs, _band_limit(coeffs), points[:, 2]):
        out += scale * (a * np.cos(m * phi) + b * np.sin(m * phi))
    return out


def direct_linear_image(f: S2Function, T, grid=None) -> np.ndarray:
    """Coefficients of x -> f(Tx/|Tx|) / |Tx|: f evaluated at every mapped
    node of `grid` (f's storage grid if None) and analyzed there, O(L^2 N).
    The direct map that `apply_linear_map` replaced, kept as its reference."""
    grid = f.grid if grid is None else grid
    mapped = grid.points().reshape(-1, 3) @ np.asarray(T, dtype=float).T
    norms = np.linalg.norm(mapped, axis=1)
    vals = eval_s2_at_points(f.coeffs, mapped / norms[:, None]) / norms
    return analyze_s2(f.band_limit, vals.reshape(grid.weights.shape), grid)
