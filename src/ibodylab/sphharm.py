"""Real orthonormal spherical harmonics on S^2 and band-limited functions.

Conventions: the surface measure is normalized to mass 1 and the basis is
orthonormal for it, so Y_{0,0} = 1 and the zonal members Y_{l,0}(x) =
sqrt(2l+1) P_l(cos theta) coincide with the d=3 zonal basis Z_l.  Flat
coefficient layout: index(l, m) = l^2 + l + m, m = -l..l.

Transforms are separated by order (Driscoll & Healy 1994; per-order layout
as in SHTns, Schaeffer 2013): one generator yields the normalized associated
Legendre blocks Q[m..L, m] from the stable recurrence (sectoral seed, then
upward in l), and analysis and synthesis take one matrix-vector product per
order.  Point evaluation goes through the double Fourier sphere (Merilees
1973; Townsend, Wilber & Wright, SIAM J. Sci. Comput. 38, 2016, C403): per
order the Legendre sum is a degree-L trigonometric polynomial in theta, got
by one rfft of 2L + 2 samples, so N points cost a few (N x L)(L x L) products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .quadrature import REFINE, S2Grid, s2_grid

_BUDGET = 2**17  # values per (L+1)-row table of a chunk in eval_s2_at_points

def sh_index(l: int, m: int) -> int:
    """Flat index of the real harmonic (l, m) in coefficient arrays."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    return l * l + l + m


def sh_degrees(band_limit: int) -> np.ndarray:
    """Degree l of every flat coefficient slot, shape ((L+1)^2,)."""
    l = np.arange(band_limit + 1)
    return np.repeat(l, 2 * l + 1)


def _band_limit(coeffs: np.ndarray) -> int:
    """L of a flat coefficient vector of length (L+1)^2."""
    L = int(np.sqrt(coeffs.size)) - 1
    if (L + 1) ** 2 != coeffs.size:
        raise ValueError(f"coefficient length {coeffs.size} is not a square")
    return L


def _legendre_orders(band_limit: int, x: np.ndarray):
    """Yield the blocks Q[m..L, m] at heights x, shape (L-m+1, N), m = 0..L.

    Y_{l,0} = Q[l,0] and Y_{l,+/-m} = sqrt(2) Q[l,m] {cos, sin}(m phi) are
    orthonormal in L^2 of the unit-mass surface measure.
    """
    L = band_limit
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    qmm = np.ones_like(x)
    for m in range(L + 1):
        q = np.empty((L - m + 1, x.size))
        q[0] = qmm
        if m < L:
            q[1] = np.sqrt(2.0 * m + 3.0) * x * qmm
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            q[l - m] = a * (x * q[l - m - 1] - b * q[l - m - 2])
        yield q
        qmm = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * qmm


@lru_cache(maxsize=16)
def _order_slots(band_limit: int):
    """Per order m = 0..L: flat indices of the slots (l, m) and (l, -m), l =
    m..L, and the factor from Q[l, m] to Y_{l,+/-m} (both zonal at m = 0)."""
    ls = [np.arange(m, band_limit + 1) for m in range(band_limit + 1)]
    return [(l * l + l + m, l * l + l - m, np.sqrt(2.0) if m else 1.0)
            for m, l in enumerate(ls)]


@lru_cache(maxsize=64)
def _grid_tables(band_limit: int, grid: S2Grid):
    """Per-grid tables: per-order Legendre blocks, cos/sin longitude tables."""
    q = list(_legendre_orders(band_limit, grid.x))
    m = np.arange(band_limit + 1)[:, None]
    cos_t = np.cos(m * grid.phi[None, :])
    sin_t = np.sin(m * grid.phi[None, :])
    return q, cos_t, sin_t


@lru_cache(maxsize=64)
def default_s2_grid(band_limit: int) -> S2Grid:
    """Default storage grid: level 2L + 8 (resolves squares of band-L data)."""
    return s2_grid(2 * band_limit + 8)


def analyze_s2(band_limit: int, values: np.ndarray, grid: S2Grid) -> np.ndarray:
    """Flat coefficient vector of the band-limited part of sampled values."""
    L = band_limit
    if grid.exact_degree < 2 * L:
        raise ValueError(
            f"grid (exact to degree {grid.exact_degree}) cannot analyze band {L}"
        )
    q, cos_t, sin_t = _grid_tables(L, grid)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.weights.shape:
        raise ValueError("values do not match the grid shape")
    # longitude averages per order m, then weighted colatitude projections
    wfc = grid.w_theta[:, None] * (values @ cos_t.T) / grid.n_phi   # (n_theta, L+1)
    wfs = grid.w_theta[:, None] * (values @ sin_t.T) / grid.n_phi
    coeffs = np.empty((L + 1) ** 2)
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(zip(q, _order_slots(L))):
        coeffs[sin_i] = scale * (qm @ wfs[:, m])  # sine first: at m = 0 slots coincide
        coeffs[cos_i] = scale * (qm @ wfc[:, m])
    return coeffs


def synthesize_s2(coeffs: np.ndarray, grid: S2Grid) -> np.ndarray:
    """Grid values of the function with the given flat coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    L = _band_limit(coeffs)
    q, cos_t, sin_t = _grid_tables(L, grid)
    gc, gs = np.empty((2, grid.n_theta, L + 1))
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(zip(q, _order_slots(L))):
        gc[:, m] = scale * (coeffs[cos_i] @ qm)
        gs[:, m] = scale * (coeffs[sin_i] @ qm)  # meets sin(0 phi) = 0 at m = 0
    return gc @ cos_t + gs @ sin_t


def _order_sums(coeffs: np.ndarray, band_limit: int, z: np.ndarray):
    """Yield (m, scale, a_m, b_m), m = 0..L: the cosine and sine sums
    a_m = sum_l c[l, m] Q[l, m](z) and b_m = sum_l c[l, -m] Q[l, m](z) at
    heights z, so f = sum_m scale (a_m cos m phi + b_m sin m phi)."""
    orders = zip(_legendre_orders(band_limit, z), _order_slots(band_limit))
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(orders):
        yield m, scale, coeffs[cos_i] @ qm, coeffs[sin_i] @ qm


@lru_cache(maxsize=16)
def _dfs_legendre(L: int):
    """Per-order Legendre blocks at the colatitudes pi k / (L + 1), k = 0..L+1."""
    return list(_legendre_orders(L, np.cos(np.pi * np.arange(L + 2) / (L + 1))))


def _dfs_coeffs(coeffs: np.ndarray, band_limit: int):
    """(even, odd), each (2, ., L + 1): even[0, i] holds the cos j theta
    coefficients of scale a_{2i} (see `_order_sums`), odd[0, i] the sin j
    theta ones of scale a_{2i+1}, and [1] those of b; one rfft of the
    samples at pi k / (L + 1), extended by a_m(2 pi - theta) = (-1)^m a_m."""
    L = band_limit
    samples = np.empty((2, L + 1, 2 * L + 2))
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(zip(_dfs_legendre(L), _order_slots(L))):
        samples[:, m, :L + 2] = scale * (coeffs[np.stack((cos_i, sin_i))] @ qm)
    samples[:, :, L + 2:] = samples[:, :, L:0:-1]
    samples[:, 1::2, L + 2:] *= -1.0
    spec = np.fft.rfft(samples, axis=-1)[..., :L + 1] / (L + 1)
    spec[..., 0] *= 0.5
    return np.ascontiguousarray(spec[:, 0::2].real), np.ascontiguousarray(-spec[:, 1::2].imag)


def eval_s2_at_points(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate at arbitrary unit vectors, shape (..., 3), on the double
    Fourier sphere: f = sum_m (A_m C_m) cos m phi + (B_m C_m) sin m phi, C_m
    the cos j theta (m even) or sin j theta (m odd) table from the Chebyshev
    recurrence in z and hypot(x, y); chunks hold ~_BUDGET values a table."""
    coeffs = np.asarray(coeffs, dtype=float)
    L = _band_limit(coeffs)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    series = _dfs_coeffs(coeffs, L)
    out = np.zeros(pts.shape[0])
    chunk = max(1, min(_BUDGET // (L + 1), pts.shape[0]))
    tables = np.empty((2, 2, L + 1, chunk))  # reused: fresh pages per chunk cost faults
    for lo in range(0, pts.shape[0], chunk):
        x, y, z = pts[lo:lo + chunk].T
        r = np.hypot(x, y)
        r_safe = np.where(r == 0.0, 1.0, r)
        cos_t = np.stack((z, np.where(r == 0.0, 1.0, x / r_safe)))  # phi = 0 at the poles
        trig = tables[..., :z.size]          # [cos, sin] x [theta, phi] x j x point
        trig[0, :, 0], trig[1, :, 0] = 1.0, 0.0
        before = np.stack((cos_t, -np.stack((r, y / r_safe))))  # j = -1
        for j in range(1, L + 1):
            np.multiply(2.0 * cos_t, trig[:, :, j - 1], out=trig[:, :, j])
            trig[:, :, j] -= trig[:, :, j - 2] if j > 1 else before
        vals = out[lo:lo + chunk]
        for parity, (a, b) in enumerate(series):
            vals += np.einsum("mj,mj->j", a @ trig[parity, 0], trig[0, 1, parity::2])
            vals += np.einsum("mj,mj->j", b @ trig[parity, 0], trig[1, 1, parity::2])
    return out.reshape(np.asarray(points).shape[:-1])


@dataclass(frozen=True, eq=False)
class S2Function:
    """Band-limited function on S^2: flat coefficients on a storage grid;
    `values`, the grid samples, are synthesized at first read and kept.

    Shares its interface with `ZonalProfile` (dim, representation, values,
    coeffs, degrees, with_coeffs, power, energies, refined_set and
    refined_values), so callers branch on the representation only where
    the algorithm differs.
    """

    dim: ClassVar[int] = 3
    representation: ClassVar[str] = "s2"

    band_limit: int
    grid: S2Grid
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, band_limit: int, values: np.ndarray,
                    grid: S2Grid | None = None) -> "S2Function":
        if grid is None:
            grid = default_s2_grid(band_limit)
        return cls(band_limit, grid, analyze_s2(band_limit, values, grid))

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, grid: S2Grid | None = None) -> "S2Function":
        coeffs = np.asarray(coeffs, dtype=float)
        band_limit = _band_limit(coeffs)
        if grid is None:
            grid = default_s2_grid(band_limit)
        return cls(band_limit, grid, coeffs)

    @cached_property
    def values(self) -> np.ndarray:
        """Grid samples of the band-limited function, synthesized at first
        read."""
        return synthesize_s2(self.coeffs, self.grid)

    @property
    def degrees(self) -> np.ndarray:
        """Degree l of every coefficient slot."""
        return sh_degrees(self.band_limit)

    def eval_at_points(self, points: np.ndarray) -> np.ndarray:
        return eval_s2_at_points(self.coeffs, points)

    def with_coeffs(self, coeffs) -> "S2Function":
        """Same grid (when the band limit is unchanged), new coefficients."""
        coeffs = np.asarray(coeffs, dtype=float)
        return S2Function.from_coeffs(
            coeffs, self.grid if coeffs.size == self.coeffs.size else None)

    def power(self, p: int) -> "S2Function":
        """f^p at band p L, analyzed exactly on the storage grid.

        Raises ValueError when the grid cannot resolve band p L.
        """
        return S2Function.from_values(p * self.band_limit, self.values**p, self.grid)

    def energies(self) -> np.ndarray:
        """Per-degree energies e_l = sum_m coeffs[l,m]^2."""
        return np.bincount(self.degrees, weights=self.coeffs**2,
                           minlength=self.band_limit + 1)

    def refined_grid(self) -> S2Grid:
        """Product grid REFINE times finer than the storage grid."""
        return s2_grid(max(REFINE * (self.grid.n_theta - 1), 2 * self.band_limit + 1))

    def refined_set(self) -> np.ndarray:
        """Unit points of the dense evaluation set, shape (n, 3): the
        refined grid in row-major order, then the north and south poles."""
        return np.concatenate((self.refined_grid().points().reshape(-1, 3),
                               [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))

    def refined_values(self) -> np.ndarray:
        """f on `refined_set`: the grid part by synthesis, the poles in closed
        form, f(+-e_3) = sum_l (+-1)^l sqrt(2l+1) c[l, 0]."""
        grid_vals = synthesize_s2(self.coeffs, self.refined_grid())
        l = np.arange(self.band_limit + 1)
        zonal = np.sqrt(2.0 * l + 1.0) * self.coeffs[l * l + l]
        return np.concatenate((grid_vals.ravel(), [zonal.sum(), zonal @ (-1.0) ** l]))
