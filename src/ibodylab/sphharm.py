"""Real orthonormal spherical harmonics on S^2 and band-limited functions.

Conventions: the surface measure is normalized to mass 1 and the basis is
orthonormal for it, so Y_{0,0} = 1 and the zonal members Y_{l,0}(x) =
sqrt(2l+1) P_l(cos theta) coincide with the d=3 zonal basis Z_l.  Flat
coefficient layout: index(l, m) = l^2 + l + m, m = -l..l.

The normalized associated Legendre functions are generated by the standard
stable l-recurrence (sectoral seed, then upward in l); no factorials are
formed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .quadrature import S2Grid, s2_grid


def sh_index(l: int, m: int) -> int:
    """Flat index of the real harmonic (l, m) in coefficient arrays."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    return l * l + l + m


def sh_degrees(band_limit: int) -> np.ndarray:
    """Degree l of every flat coefficient slot, shape ((L+1)^2,)."""
    l = np.arange(band_limit + 1)
    return np.repeat(l, 2 * l + 1)


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


def legendre_table(band_limit: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values Q[l, m, i] at points x.

    Normalization is chosen so that Y_{l,0} = Q[l,0] and
    Y_{l,+/-m} = sqrt(2) Q[l,m] {cos, sin}(m phi) are orthonormal in
    L^2 of the unit-mass surface measure.  Entries with m > l are 0.
    """
    x = np.asarray(x, dtype=float)
    L = band_limit
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    q = np.zeros((L + 1, L + 1, x.size))
    q[0, 0] = 1.0
    for m in range(1, L + 1):
        q[m, m] = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * q[m - 1, m - 1]
    for m in range(0, L + 1):
        if m + 1 <= L:
            q[m + 1, m] = np.sqrt(2.0 * m + 3.0) * x * q[m, m]
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            q[l, m] = a * (x * q[l - 1, m] - b * q[l - 2, m])
    return q


@lru_cache(maxsize=64)
def _grid_tables(band_limit: int, grid: S2Grid):
    """Per-grid transform tables: Legendre values and cos/sin longitude tables."""
    q = legendre_table(band_limit, grid.x)
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
    fc = values @ cos_t.T / grid.n_phi            # (n_theta, L+1)
    fs = values @ sin_t.T / grid.n_phi
    wfc = grid.w_theta[:, None] * fc
    wfs = grid.w_theta[:, None] * fs
    coeffs = np.zeros((L + 1) ** 2)
    for l in range(L + 1):
        coeffs[sh_index(l, 0)] = q[l, 0] @ wfc[:, 0]
        for m in range(1, l + 1):
            proj = q[l, m]
            coeffs[sh_index(l, m)] = np.sqrt(2.0) * (proj @ wfc[:, m])
            coeffs[sh_index(l, -m)] = np.sqrt(2.0) * (proj @ wfs[:, m])
    return coeffs


def synthesize_s2(coeffs: np.ndarray, grid: S2Grid) -> np.ndarray:
    """Grid values of the function with the given flat coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    L = int(np.sqrt(coeffs.size)) - 1
    if (L + 1) ** 2 != coeffs.size:
        raise ValueError(f"coefficient length {coeffs.size} is not a square")
    q, cos_t, sin_t = _grid_tables(L, grid)
    gc = np.zeros((grid.n_theta, L + 1))
    gs = np.zeros((grid.n_theta, L + 1))
    for l in range(L + 1):
        gc[:, 0] += coeffs[sh_index(l, 0)] * q[l, 0]
        for m in range(1, l + 1):
            gc[:, m] += np.sqrt(2.0) * coeffs[sh_index(l, m)] * q[l, m]
            gs[:, m] += np.sqrt(2.0) * coeffs[sh_index(l, -m)] * q[l, m]
    return gc @ cos_t + gs @ sin_t


def eval_s2_at_points(coeffs: np.ndarray, points: np.ndarray,
                      chunk: int = 16384) -> np.ndarray:
    """Evaluate at arbitrary unit vectors, shape (..., 3); chunked in memory."""
    coeffs = np.asarray(coeffs, dtype=float)
    L = int(np.sqrt(coeffs.size)) - 1
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        x = block[:, 2]
        phi = np.arctan2(block[:, 1], block[:, 0])
        q = legendre_table(L, x)
        vals = np.zeros(block.shape[0])
        for l in range(L + 1):
            vals += coeffs[sh_index(l, 0)] * q[l, 0]
        for m in range(1, L + 1):
            cm, sm = np.cos(m * phi), np.sin(m * phi)
            ac = np.zeros(block.shape[0])
            as_ = np.zeros(block.shape[0])
            for l in range(m, L + 1):
                ac += coeffs[sh_index(l, m)] * q[l, m]
                as_ += coeffs[sh_index(l, -m)] * q[l, m]
            vals += np.sqrt(2.0) * (ac * cm + as_ * sm)
        out[start:start + chunk] = vals
    return out.reshape(np.asarray(points).shape[:-1])


_POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


@dataclass(frozen=True, eq=False)
class S2Function:
    """Band-limited function on S^2: grid samples + flat coefficients.

    Shares its interface with `ZonalProfile` (dim, representation, values,
    coeffs, degrees, with_coeffs, power, energies, refined_set and
    refined_values), so callers branch on the representation only where
    the algorithm differs.
    """

    dim: ClassVar[int] = 3
    representation: ClassVar[str] = "s2"

    band_limit: int
    grid: S2Grid
    values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, band_limit: int, values: np.ndarray,
                    grid: S2Grid | None = None) -> "S2Function":
        if grid is None:
            grid = default_s2_grid(band_limit)
        coeffs = analyze_s2(band_limit, values, grid)
        return cls(band_limit, grid, synthesize_s2(coeffs, grid), coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, grid: S2Grid | None = None) -> "S2Function":
        coeffs = np.asarray(coeffs, dtype=float)
        band_limit = int(np.sqrt(coeffs.size)) - 1
        if (band_limit + 1) ** 2 != coeffs.size:
            raise ValueError(f"coefficient length {coeffs.size} is not a square")
        if grid is None:
            grid = default_s2_grid(band_limit)
        return cls(band_limit, grid, synthesize_s2(coeffs, grid), coeffs)

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

    def refined_grid(self, refine: int = 4) -> S2Grid:
        """Product grid `refine` times finer than the storage grid."""
        return s2_grid(max(refine * (self.grid.n_theta - 1), 2 * self.band_limit + 1))

    def refined_set(self, refine: int = 4) -> np.ndarray:
        """Unit points of the dense evaluation set, shape (n, 3): the
        refined grid in row-major order, then the north and south poles."""
        return np.concatenate((self.refined_grid(refine).points().reshape(-1, 3), _POLES))

    def refined_values(self, refine: int = 4) -> np.ndarray:
        """f on `refined_set`; the grid part by synthesis, not point by point."""
        grid_vals = synthesize_s2(self.coeffs, self.refined_grid(refine))
        return np.concatenate((grid_vals.ravel(), self.eval_at_points(_POLES)))
