"""Real orthonormal spherical harmonics on S^2 and band-limited functions.

Conventions: the surface measure is normalized to mass 1 and the basis is
orthonormal for it, so Y_{0,0} = 1 and the zonal members Y_{l,0}(x) =
sqrt(2l+1) P_l(cos theta) coincide with the d=3 zonal basis Z_l.  Flat
coefficient layout: index(l, m) = l^2 + l + m, m = -l..l.

Transforms are separated by order (Driscoll & Healy 1994; per-order layout
as in SHTns, Schaeffer 2013): one generator, `_legendre_orders`, yields the
normalized associated Legendre blocks Q[m..L, m] from the stable recurrence
(sectoral seed, then upward in l), and analysis and synthesis take one
matrix-vector product per order.  Point evaluation goes through the double
Fourier sphere (Merilees 1973; Townsend, Wilber & Wright, SIAM J. Sci.
Comput. 38, 2016, C403): per order the Legendre sum is a degree-L
trigonometric polynomial in theta, got by one rfft of 2L + 2 samples.  The
one point of the sup-norm polish skips that table: `_eval_at_point` runs
the same recurrence in Python floats at its height.

Linear maps act in their singular frame (`bodies.apply_linear_map`):
`_rotate` turns coefficients in O(L^3) (Pinchon & Hoggan, J. Phys. A 40,
2007, 1597), and `_diagonal_image` sums the double Fourier series down each
mapped grid column.  A state's one refined scan (`_refined_scan`, read by
`analysis.refined_extremes`) synthesizes into a reused pair of buffers;
`refined_values` still returns a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .quadrature import REFINE, S2Grid, s2_grid

_BUDGET = 2**17  # values per (L+1)-row table of a chunk in eval_s2_at_points
_CHUNK = 4096  # grid nodes per chunk of _diagonal_image's complex Horner sums
_SWAP_BIN = 8  # degrees per zero-padded stack of swap blocks (_swap_blocks)

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


@lru_cache(maxsize=16)
def _recurrence(band_limit: int):
    """Per order m, the factors of `_legendre_orders` as Python floats."""
    out = []
    for m in range(band_limit + 1):
        l = np.arange(m + 2, band_limit + 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)).tolist()
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)).tolist()
        out.append((math.sqrt(2.0 * m + 3.0), list(zip(range(2, len(a) + 2), a, b)),
                    math.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0))))
    return out


def _legendre_orders(band_limit: int, x):
    """Yield the blocks Q[m..L, m] at heights x, m = 0..L: of shape
    (L-m+1, N) for a 1d array x, lists for a Python float x (same arithmetic).
    Q[m+1, m] = sqrt(2m+3) x Q[m, m], Q[l, m] = a_l (x Q[l-1, m] - b_l Q[l-2, m]),
    and Q[m+1, m+1] = sqrt((2m+3)/(2m+2)) sin(theta) Q[m, m].

    Y_{l,0} = Q[l,0] and Y_{l,+/-m} = sqrt(2) Q[l,m] {cos, sin}(m phi) are
    orthonormal in L^2 of the unit-mass surface measure.  Each block is let
    go before the next is built: a consumer that drops its own holds one.
    """
    L = band_limit
    point = isinstance(x, float)
    s = math.sqrt(max(1.0 - x * x, 0.0)) if point else np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    qmm = 1.0 if point else np.ones_like(x)
    for m, (first, steps, up) in enumerate(_recurrence(L)):
        q = [0.0] * (L - m + 1) if point else np.empty((L - m + 1, x.size))
        q[0] = prev = cur = qmm
        if m < L:
            q[1] = cur = first * x * qmm
        for i, a, b in steps:
            prev, cur = cur, a * (x * cur - b * prev)
            q[i] = cur
        yield q
        del q, prev, cur
        qmm = up * s * qmm


@lru_cache(maxsize=16)
def _order_slots(band_limit: int):
    """Per order m = 0..L: flat indices of the slots (l, m) and (l, -m), l =
    m..L, and the factor from Q[l, m] to Y_{l,+/-m} (both zonal at m = 0)."""
    ls = [np.arange(m, band_limit + 1) for m in range(band_limit + 1)]
    return [(l * l + l + m, l * l + l - m, np.sqrt(2.0) if m else 1.0)
            for m, l in enumerate(ls)]


@lru_cache(maxsize=16)
def _order_major(band_limit: int):
    """(cos slots, sin slots, factor, m) of `_order_slots` per row, flat."""
    cos_i, sin_i, scale = zip(*_order_slots(band_limit))
    rows = np.arange(band_limit + 1, 0, -1)
    return (np.concatenate(cos_i), np.concatenate(sin_i), np.repeat(scale, rows),
            np.repeat(np.arange(band_limit + 1), rows))


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


def _colatitude_sums(coeffs: np.ndarray, grid: S2Grid):
    """(gc, gs, cos_t, sin_t): the grid values are gc @ cos_t + gs @ sin_t."""
    L = _band_limit(coeffs)
    q, cos_t, sin_t = _grid_tables(L, grid)
    gc, gs = np.empty((2, grid.n_theta, L + 1))
    for m, (qm, (cos_i, sin_i, scale)) in enumerate(zip(q, _order_slots(L))):
        gc[:, m] = scale * (coeffs[cos_i] @ qm)
        gs[:, m] = scale * (coeffs[sin_i] @ qm)  # meets sin(0 phi) = 0 at m = 0
    return gc, gs, cos_t, sin_t


def synthesize_s2(coeffs: np.ndarray, grid: S2Grid) -> np.ndarray:
    """Grid values of the function with the given flat coefficients."""
    gc, gs, cos_t, sin_t = _colatitude_sums(np.asarray(coeffs, dtype=float), grid)
    out = gc @ cos_t
    out += gs @ sin_t
    return out


@lru_cache(maxsize=16)
def _dfs_legendre(L: int):
    """Per-order Legendre blocks at the colatitudes pi k / (L + 1), k = 0..L+1."""
    return list(_legendre_orders(L, np.cos(np.pi * np.arange(L + 2) / (L + 1))))


def _dfs_coeffs(coeffs: np.ndarray, band_limit: int):
    """(even, odd), each (2, ., L + 1): even[0, i] holds the cos j theta
    coefficients of scale a_{2i}, odd[0, i] the sin j theta ones of scale
    a_{2i+1}, and [1] those of b, where a_m = sum_l c[l, m] Q[l, m] and
    b_m = sum_l c[l, -m] Q[l, m], so f = sum_m scale (a_m cos m phi + b_m
    sin m phi); one rfft of the samples at pi k / (L + 1), extended by
    a_m(2 pi - theta) = (-1)^m a_m."""
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


def _eval_at_point(coeffs: np.ndarray, z: float, phi: float) -> float:
    """f at the point of height z and longitude phi, from the rows of
    `_legendre_orders` at z in O(L^2) Python-float steps; builds no table."""
    L = _band_limit(coeffs)
    cos_i, sin_i, scale, m = _order_major(L)
    folded = scale * (coeffs[cos_i] * np.cos(m * phi) + coeffs[sin_i] * np.sin(m * phi))
    rows = []
    for q in _legendre_orders(L, z):
        rows += q
    return float(folded @ np.array(rows))


@lru_cache(maxsize=4)
def _swap_blocks(band_limit: int):
    """(slots, bins) for rotating band-L coefficients.

    slots[0, l, m] is the flat slot of (l, m) and slots[1, l, m] that of
    (l, -m), for 0 <= m <= l (m >= 1 for the sine part); every other entry
    is (L+1)^2, one past the end.  bins holds (lo, swap) per _SWAP_BIN
    degrees from lo on: swap[p, l - lo] is the matrix of f -> f(Jx) on the
    cosine (p = 0) or sine (p = 1) slots of degree l, indexed by m, padded
    with zeros to the bin's largest degree; J = [[0, 0, 1], [0, -1, 0],
    [1, 0, 0]] swaps x and z.  The bins hold about (2/3)(L+1)^3 doubles.
    J keeps the parity in y, so it maps cosine slots to cosine slots, and
    J = Ry(pi/2) Rz(pi): with P = d_{m',m}, N = d_{m',-m} (m, m' >= 0) of
    Wigner's d^l(pi/2) and s = (-1)^m, the cosine block is
    w_m' w_m (s_m' P + s_m' s_m N), w_0 = 1/sqrt(2) and w_m = 1 otherwise,
    and the sine block s_m' P - s_m' s_m N.  d^l(pi/2) comes from the
    three-term recurrence in l at cos(beta) = 0, stable like the Legendre
    recurrence (Kostelec & Rockmore, J. Fourier Anal. Appl. 14, 2008, 145),
    seeded where max(m, m') = l by d_{l,m} = (-1)^(l-m) sqrt(C(2l, l+m)) / 2^l.
    """
    L = band_limit
    ell = np.arange(L + 1)[:, None]
    k = np.arange(L + 1)
    slots = np.stack((np.where(k <= ell, ell * ell + ell + k, (L + 1) ** 2),
                      np.where((k >= 1) & (k <= ell), ell * ell + ell - k, (L + 1) ** 2)))
    bins = []
    for lo in range(0, L + 1, _SWAP_BIN):
        hi = min(lo + _SWAP_BIN, L + 1)
        bins.append((lo, np.zeros((2, hi - lo, hi, hi))))
    mm = np.multiply.outer(k, k) * np.array([1.0, -1.0])[:, None, None]  # m m' for P, N
    w = np.ones(L + 1)
    w[0] = np.sqrt(0.5)
    d, d_prev = np.zeros((2, 2, L + 1, L + 1))  # [P, N] at degrees l - 1 and l - 2
    for l in range(L + 1):
        j, sq = l - 1, k[:l] ** 2
        d, d_prev = d_prev, d
        if l >= 2:
            s1 = np.sqrt(np.multiply.outer(l * l - sq, l * l - sq))
            s0 = np.sqrt(np.multiply.outer(j * j - sq, j * j - sq))
            d[:, :l, :l] = -((2 * j + 1) * mm[:, :l, :l] * d_prev[:, :l, :l]
                             + (j + 1) * s0 * d[:, :l, :l]) / (j * s1)
        elif l == 1:
            d[:, 0, 0] = 0.0  # d^1_00 = cos(pi/2)
        seed = np.sqrt([math.comb(2 * l, i) / 4**l for i in range(2 * l + 1)])
        m = k[:l + 1]
        sign = (-1.0) ** m
        d[0, l, :l + 1] = (-1.0) ** (l - m) * seed[l + m]  # d_{l,m}
        d[0, :l + 1, l] = seed[l + m]                      # d_{m',l}
        d[1, l, :l + 1] = (-1.0) ** (l + m) * seed[l - m]  # d_{l,-m}
        d[1, :l + 1, l] = (-1.0) ** (l + m) * seed[l - m]  # d_{m',-l}
        a = sign[:, None] * d[0, :l + 1, :l + 1]
        b = np.multiply.outer(sign, sign) * d[1, :l + 1, :l + 1]
        lo, swap = bins[l // _SWAP_BIN]
        swap[0, l - lo, :l + 1, :l + 1] = np.multiply.outer(w[:l + 1], w[:l + 1]) * (a + b)
        swap[1, l - lo, 1:l + 1, 1:l + 1] = (a - b)[1:, 1:]
    return slots, bins


def _swap(x: np.ndarray, bins) -> np.ndarray:
    """Coefficients, in the layout of `_swap_blocks`, of x -> f(Jx), in
    place: one batched product per bin of degrees."""
    for lo, swap in bins:
        n, size = swap.shape[1], swap.shape[-1]
        x[:, lo:lo + n, :size] = np.matmul(swap, x[:, lo:lo + n, :size, None])[..., 0]
    return x


def _turn_z(x: np.ndarray, angle: float) -> np.ndarray:
    """Coefficients, in the layout of `_swap_blocks`, of x -> f(Rz(angle) x):
    one 2 x 2 mix of the (l, m) and (l, -m) slots per order m."""
    m = np.arange(x.shape[-1])
    c, s = np.cos(m * angle), np.sin(m * angle)
    return np.stack((x[0] * c + x[1] * s, x[1] * c - x[0] * s))


def _rotate(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Coefficients of x -> f(r x), r a rotation, in O(L^3).

    With the ZXZ Euler angles r = Rz(a) Rx(b) Rz(g) and Rx(b) = J Rz(b) J
    (J the swap of `_swap_blocks`), f(r x) is three turns about z with the
    fixed swap between them (Pinchon & Hoggan, J. Phys. A 40, 2007, 1597).
    a and b come from r's third column and g from the residue
    (Rz(a) Rx(b))^T r, a turn about z to rounding even where sin b is 0.
    """
    L = _band_limit(coeffs)
    slots, bins = _swap_blocks(L)
    b = np.arctan2(np.hypot(r[0, 2], r[1, 2]), r[2, 2])
    a = np.arctan2(r[0, 2], -r[1, 2])
    u = (np.cos(a) * r[0, 0] + np.sin(a) * r[1, 0], np.cos(a) * r[1, 0] - np.sin(a) * r[0, 0])
    g = np.arctan2(np.cos(b) * u[1] + np.sin(b) * r[2, 0], u[0])
    x = _turn_z(np.append(coeffs, 0.0)[slots], a)
    x = _turn_z(_swap(x, bins), b)
    x = _turn_z(_swap(x, bins), g)
    out = np.empty(coeffs.size + 1)
    out[slots] = x
    return out[:-1]


def _diagonal_image(coeffs: np.ndarray, sigma, grid: S2Grid) -> np.ndarray:
    """Coefficients, analyzed on `grid`, of x -> f(Sx/|Sx|) / |Sx| with
    S = diag(sigma), whose entries are nonzero and of either sign.

    S keeps each grid column on one meridian: the column at longitude phi
    goes to the longitude phi' of (s1 cos phi, s2 sin phi), of length r, and
    its node at colatitude theta to theta' with |Sx| e^{i theta'} =
    s3 cos theta + i r sin theta.  Along that meridian f is a series in
    cos j theta' and sin j theta' whose coefficients are those of the double
    Fourier sphere (`_dfs_coeffs`) times cos and sin m phi'.  Horner in
    e^{i theta'} sums it, O(L) per node where point evaluation takes O(L^2).
    """
    L = _band_limit(coeffs)
    even, odd = _dfs_coeffs(coeffs, L)
    s1, s2, s3 = sigma
    x = grid.x[:, None]
    vals = np.empty(grid.weights.shape)
    cols = max(1, _CHUNK // grid.n_theta)
    for lo in range(0, grid.n_phi, cols):
        x_col, y_col = s1 * np.cos(grid.phi[lo:lo + cols]), s2 * np.sin(grid.phi[lo:lo + cols])
        m_phi = np.arange(L + 1)[:, None] * np.arctan2(y_col, x_col)
        cos_m, sin_m = np.cos(m_phi), np.sin(m_phi)
        # per column: the cos j theta' coefficients minus i those of sin j theta'
        series = (even[0].T @ cos_m[0::2] + even[1].T @ sin_m[0::2]
                  - 1j * (odd[0].T @ cos_m[1::2] + odd[1].T @ sin_m[1::2]))
        w = np.empty((grid.n_theta, x_col.size), dtype=complex)  # |Sx| e^{i theta'}
        np.multiply(s3, x, out=w.real)
        np.multiply(np.sqrt(1.0 - x * x), np.hypot(x_col, y_col), out=w.imag)
        norm = np.abs(w)
        w /= norm
        acc = np.repeat(series[L][None, :], grid.n_theta, axis=0)
        for j in range(L - 1, -1, -1):
            acc *= w
            acc += series[j]
        vals[:, lo:lo + cols] = acc.real / norm
    return analyze_s2(L, vals, grid)


# the refined scan's one slot: two buffers of the refined grid's shape,
# reused while that shape holds; their contents never leave this module
_scan_slot = {"shape": None, "buffers": None}


def _scan_buffers(shape: tuple[int, int]) -> np.ndarray:
    slot = _scan_slot
    if slot["shape"] != shape:
        slot.update(shape=None, buffers=None)  # free the old pair first
        slot.update(shape=shape, buffers=np.empty((2,) + shape))
    return slot["buffers"]


@dataclass(frozen=True, eq=False)
class S2Function:
    """Band-limited function on S^2: flat coefficients on a storage grid;
    `values`, the grid samples, are synthesized at first read and kept.
    Shares its interface with `ZonalProfile` (README, "API notes")."""

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

    def _poles(self) -> list[float]:
        """f(e_3) and f(-e_3) in closed form: sum_l (+-1)^l sqrt(2l+1) c[l, 0]."""
        l = np.arange(self.band_limit + 1)
        zonal = np.sqrt(2.0 * l + 1.0) * self.coeffs[l * l + l]
        return [zonal.sum(), zonal @ (-1.0) ** l]

    def refined_values(self) -> np.ndarray:
        """f on `refined_set`, a new array: the grid part by synthesis, the
        poles in closed form."""
        grid_vals = synthesize_s2(self.coeffs, self.refined_grid())
        return np.concatenate((grid_vals.ravel(), self._poles()))

    def _refined_scan(self):
        """(lo, hi, lines): the min and max of `refined_values`, and the one
        polish line of `analysis.refined_extremes`, the refined grid's column
        through its largest |f|, signed to make that a maximum.  The grid part
        is synthesized, as `synthesize_s2` does it, into the slot's buffers:
        no array of the refined grid's size is allocated once the slot holds
        its shape."""
        fine = self.refined_grid()
        gc, gs, cos_t, sin_t = _colatitude_sums(self.coeffs, fine)
        vals, spare = _scan_buffers(fine.weights.shape)
        np.matmul(gc, cos_t, out=vals)
        vals += np.matmul(gs, sin_t, out=spare)
        i_hi, i_lo = int(np.argmax(vals)), int(np.argmin(vals))
        hi, lo = float(vals.flat[i_hi]), float(vals.flat[i_lo])
        poles = self._poles()
        # np.argmax(np.abs(vals)): the first node of the larger |f|
        top = i_hi if hi > -lo else i_lo if hi < -lo else min(i_hi, i_lo)
        i, j = np.unravel_index(top, vals.shape)
        sgn, phi = float(np.sign(vals[i, j])) or 1.0, float(fine.phi[j])
        # the poles, which close the refined set, are not grid nodes
        line = (np.arccos(fine.x), sgn * vals[:, j], int(i),
                lambda theta: sgn * _eval_at_point(self.coeffs, math.cos(theta), phi))
        return float(min(lo, *poles)), float(max(hi, *poles)), [line]
