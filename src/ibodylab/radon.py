"""Spherical Radon transform: spectral route and geometric quadrature routes.

The transform averages a function over unit subspheres x . xi = 0 and is
normalized so constants are fixed.  On harmonics of even degree k it
multiplies by (-1)^(k/2) v(d, k) where v is the explicit ratio of odd
products computed in `radon_multiplier`; odd degrees are annihilated.

Two implementations are kept deliberately separate: `radon_spectral`
multiplies coefficients, while the geometric routes integrate over the
subspheres by quadrature without touching the multiplier table.  Their
agreement on random band-limited inputs is the package's primary oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphharm import S2Function, _grid_tables, _order_sums, tangent_frame
from .zonal import ZonalProfile, subsphere_rule


def radon_multiplier(d: int, kmax: int) -> np.ndarray:
    """Signed per-degree multipliers (-1)^(k/2) v(d, k) for degrees 0..kmax,
    with v(d, 0) = 1 and v(d, k) = v(d, k-2) (k-1)/(d+k-3) for even k; odd
    degrees, which the transform annihilates, get 0."""
    out = np.zeros(kmax + 1)
    out[0] = 1.0
    v = 1.0
    for k in range(2, kmax + 1, 2):
        v *= (k - 1.0) / (d + k - 3.0)
        out[k] = (-1.0) ** (k // 2) * v
    return out


def radon_spectral(f):
    """Apply the transform by multiplying coefficients degree by degree."""
    return f.with_coeffs(f.coeffs * radon_multiplier(f.dim, f.band_limit)[f.degrees])


def radon_geometric_zonal(f: ZonalProfile) -> ZonalProfile:
    """Geometric route for zonal profiles.

    For output direction at height t the subsphere average reduces to a
    one-dimensional integral of f(s sqrt(1 - t^2)) against the normalized
    weight (1 - s^2)^((d-4)/2); for d = 3 that weight is the arcsine density
    of a great-circle coordinate.  The subsphere rule has order K + 8, exact
    for band-K integrands with margin.
    """
    d = f.dim
    sub = subsphere_rule(d, f.band_limit + 8)
    radial = np.sqrt(np.clip(1.0 - f.rule.nodes**2, 0.0, None))
    args = np.outer(radial, sub.nodes)
    out_vals = f.eval_at(args.ravel()).reshape(args.shape) @ sub.weights
    return ZonalProfile.from_values(d, f.band_limit, out_vals, f.rule)


def radon_geometric_s2(f: S2Function) -> S2Function:
    """Geometric route on S^2: trapezoid average over great circles.

    A band-L function restricted to a circle is a trigonometric polynomial
    of degree L, so M >= L + 1 equally spaced samples average it exactly;
    M = 2L + 9 leaves margin.  The circle of the grid direction (theta_i,
    phi_j) is the circle of (theta_i, 0) turned by phi_j about the z-axis:
    its points keep their heights and their azimuths psi shift by phi_j.
    So f is evaluated, order by order, only on the n_theta circles at
    longitude 0 (separation of variables, Driscoll & Healy 1994): with the
    per-order sums a_m, b_m at the circle heights, cos m(psi + phi) and
    sin m(psi + phi) expand into the circle means C[i, m] of a_m cos m psi
    + b_m sin m psi and S[i, m] of b_m cos m psi - a_m sin m psi, and the
    grid values are C @ cos(m phi_j) + S @ sin(m phi_j).  This only
    reorders the quadrature sum over the circles; it never reads the
    multiplier table, so the route stays independent of `radon_spectral`.
    """
    L, grid = f.band_limit, f.grid
    circle_points = 2 * L + 9
    tau = 2.0 * np.pi * np.arange(circle_points) / circle_points
    cs, sn = np.cos(tau), np.sin(tau)
    dirs = np.stack((np.sqrt(1.0 - grid.x**2), np.zeros_like(grid.x), grid.x), axis=-1)
    u, v = tangent_frame(dirs)
    circles = cs[None, :, None] * u[:, None, :] + sn[None, :, None] * v[:, None, :]
    psi = np.arctan2(circles[..., 1], circles[..., 0])     # (n_theta, M)
    c, s = np.empty((2, grid.n_theta, L + 1))
    for m, scale, a, b in _order_sums(f.coeffs, L, circles[..., 2].ravel()):
        a, b = scale * a.reshape(psi.shape), scale * b.reshape(psi.shape)
        cos_m, sin_m = np.cos(m * psi), np.sin(m * psi)
        c[:, m] = (a * cos_m + b * sin_m).mean(axis=1)
        s[:, m] = (b * cos_m - a * sin_m).mean(axis=1)
    _, cos_t, sin_t = _grid_tables(L, grid)
    return S2Function.from_values(L, c @ cos_t + s @ sin_t, grid)


# ---------------------------------------------------------------------------
# tail-energy transfer experiment

@dataclass(frozen=True)
class SmoothingGainResult:
    """Per-tail energy transfer of the transform on a synthetic spectrum
    and the log-log slopes fitted to it.

    energy_ratios[i] is the harmonic energy the transform keeps above
    degree tail_indices[i], relative to the input's energy there; its
    fitted slope is expected near -(d-2).  l2_ratios are the square
    roots, with slope half that."""
    dim: int
    decay: float
    band_limit: int
    tail_indices: np.ndarray
    energy_ratios: np.ndarray
    energy_slope: float
    l2_slope: float


def smoothing_gain_experiment(d: int, decay: float = 2.0,
                              band_limit: int = 4096,
                              tail_indices=None) -> SmoothingGainResult:
    """Measure how fast the transform damps high-degree tails.

    A synthetic even spectrum with energies (1 + k)^(-2 decay) is pushed
    through the multiplier table; for each n in tail_indices the ratio
    (output energy above degree n) / (input energy above degree n) is
    recorded and a straight line is fitted in log-log.  tail_indices
    must stay below band_limit / 4 so the truncated tails are honest.
    """
    if int(d) != d or d < 3:
        raise ValueError(f"sphere dimension must be an integer >= 3, got {d}")
    if not decay > 0.5:
        raise ValueError("decay must exceed 1/2 for summable tail energies")
    if tail_indices is None:
        tail_indices = np.unique(np.geomspace(32, 512, 12).astype(int))
    tail_indices = np.asarray(tail_indices, dtype=int)
    if tail_indices.size < 2 or np.any(tail_indices < 1):
        raise ValueError("need at least two positive tail indices")
    if int(tail_indices.max()) > band_limit // 4:
        raise ValueError("largest tail index must not exceed band_limit / 4")
    k = np.arange(band_limit + 1)
    energies = np.where(k % 2 == 0, (1.0 + k) ** (-2.0 * decay), 0.0)
    out_energies = energies * radon_multiplier(d, band_limit) ** 2
    tail_in = np.cumsum(energies[::-1])[::-1]
    tail_out = np.cumsum(out_energies[::-1])[::-1]
    ratios = tail_out[tail_indices + 1] / tail_in[tail_indices + 1]
    logs = np.log(tail_indices)
    energy_slope = float(np.polyfit(logs, np.log(ratios), 1)[0])
    return SmoothingGainResult(
        dim=int(d), decay=float(decay), band_limit=int(band_limit),
        tail_indices=tail_indices, energy_ratios=ratios,
        energy_slope=energy_slope, l2_slope=0.5 * energy_slope)
