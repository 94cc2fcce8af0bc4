"""Spherical Radon transform: spectral route and geometric quadrature routes.

The transform averages a function over unit subspheres x . xi = 0 and is
normalized so constants are fixed.  On harmonics of even degree k it
multiplies by (-1)^(k/2) v(d, k) where v is the explicit ratio of odd
products computed in `radon_multiplier`; odd degrees are annihilated.

Two implementations are kept deliberately separate: `radon_spectral`
multiplies coefficients, while the geometric routes integrate over the
subspheres by quadrature without touching the multiplier table.  Their
agreement on random band-limited inputs is the package's primary oracle.

Each geometric route is a fixed linear map from coefficients to samples
on the storage rule or grid, followed by the usual analysis.  The map
depends on the rule or grid and the band limit only, never on f, so it is
tabulated once, by subsphere quadrature, and then applied by matrix
products: `_zonal_operator` (keyed by rule and band limit) and
`_s2_operator` (keyed by band limit and grid) are bounded lru caches of
read-only arrays, built lazily at a route's first call.  Both are folded
by the t -> -t (x -> -x) symmetry of their rules and grids, so they hold
only the output rows t >= 0: the zonal output is even in t, and on S^2
the rows x < 0 take a sign (-1)^m per order m.
Neither build reads the multiplier table: they sum basis functions over
subsphere nodes, so the routes stay independent of `radon_spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import JacobiRule, S2Grid
from .sphharm import S2Function, _grid_tables, _legendre_orders, _order_slots
from .zonal import ZonalProfile, _even_rows, subsphere_rule


def radon_multiplier(d: int, kmax: int) -> np.ndarray:
    """Signed per-degree multipliers (-1)^(k/2) v(d, k) for degrees 0..kmax,
    with v(d, 0) = 1 and v(d, k) = v(d, k-2) (k-1)/(d+k-3) for even k; odd
    degrees, which the transform annihilates, get 0."""
    k = np.arange(2, kmax + 1, 2)
    out = np.zeros(kmax + 1)
    out[0] = 1.0
    out[2::2] = np.cumprod((k - 1.0) / (d + k - 3.0))
    out[2::4] *= -1.0  # k/2 odd
    return out


def radon_spectral(f):
    """Apply the transform by multiplying coefficients degree by degree."""
    return f.with_coeffs(f.coeffs * radon_multiplier(f.dim, f.band_limit)[f.degrees])


@lru_cache(maxsize=8)
def _zonal_operator(rule: JacobiRule, band_limit: int) -> np.ndarray:
    """G[n, i] = sum_j w_j Z_2n(s_j r_i), read-only: the subsphere average
    of Z_2n at the storage nodes t_i >= 0 of `rule`, r_i = sqrt(1 - t_i^2),
    over the nodes s_j >= 0 of the order K + 8 subsphere rule.

    The subsphere rule is symmetric and Z_2n even, so the nodes s_j > 0
    carry twice their weight and a centre node 0 (odd orders) its own.  The
    rows come from the squared recurrence in u = t^2 (`zonal._even_rows`),
    one at a time, so no table over the (t_i, s_j) pairs is held.
    """
    sub = subsphere_rule(rule.dim, band_limit + 8)
    w = 2.0 * sub.weights[sub.order // 2:]
    w[:sub.order % 2] /= 2.0  # a centre node 0 counts once
    radial = np.sqrt(np.clip(1.0 - rule.nodes[rule.order // 2:] ** 2, 0.0, None))
    args = np.outer(radial, sub.nodes[sub.order // 2:])
    op = np.empty((band_limit // 2 + 1, radial.size))
    for n, row in enumerate(_even_rows(rule.dim, band_limit, args)):
        op[n] = row @ w
    op.setflags(write=False)
    return op


def radon_geometric_zonal(f: ZonalProfile) -> ZonalProfile:
    """Geometric route for zonal profiles.

    For output direction at height t the subsphere average reduces to a
    one-dimensional integral of f(s sqrt(1 - t^2)) against the normalized
    weight (1 - s^2)^((d-4)/2); for d = 3 that weight is the arcsine density
    of a great-circle coordinate.  The subsphere rule has order K + 8, exact
    for band-K integrands with margin.

    Both rules are symmetric, and only the even degrees of f survive the
    symmetric subsphere sum, so the route is f's even coefficients times
    the cached operator `_zonal_operator(rule, K)`, one product giving the
    samples at the heights t >= 0; those at t < 0 mirror them.  The
    operator holds the subsphere averages of Z_0, Z_2, ..., Z_K at the
    storage nodes, (K/2 + 1) x ceil(order / 2) doubles, and is keyed by the
    rule object itself and K.
    """
    rule = f.rule
    out = f.coeffs[0::2] @ _zonal_operator(rule, f.band_limit)
    out_vals = np.concatenate((out[rule.order % 2:][::-1], out))
    return ZonalProfile.from_values(f.dim, f.band_limit, out_vals, rule)


@lru_cache(maxsize=4)
def _s2_operator(band_limit: int, grid: S2Grid) -> tuple[np.ndarray, ...]:
    """Per order m = 0..L, the read-only block A_m, shape (rows, L - m + 1),
    on the grid rows x >= 0 (centre row first when n_theta is odd):
    A_m[i, l] = scale mean_tau Q[l, m](z) cos m psi over the M = 2L + 9
    points of the circle of the row's direction at longitude 0 (z and psi
    as in `radon_geometric_s2`), scale the factor from Q[l, m] to Y_{l,+/-m}
    (`_order_slots`).

    Its sine partner, the mean of Q[l, m](z) sin m psi, vanishes and is not
    stored: tau -> pi - tau keeps z and turns psi into -psi (the circle is
    symmetric under y -> -y), and M points average a band-L function on the
    circle exactly.  The row at -x has the same heights and psi -> pi - psi,
    so A_m(-x) = (-1)^m A_m(x) and the rows x < 0 are not stored either.
    Built from the Legendre recurrence at the circle points, one order at
    a time, into views of one array.
    """
    L = band_limit
    circle_points = 2 * L + 9
    tau = 2.0 * np.pi * np.arange(circle_points) / circle_points
    x = grid.x[grid.n_theta // 2:, None]
    z = np.sqrt(1.0 - x * x) * np.sin(tau)                 # (rows, M)
    psi = np.arctan2(np.cos(tau), -x * np.sin(tau))
    # one block for all orders, allocated before the build's transients
    flat = np.empty(x.size * (L + 1) * (L + 2) // 2)
    ops = tuple(block.reshape(x.size, -1)
                for block in np.split(flat, x.size * np.cumsum(np.arange(L + 1, 1, -1))))
    blocks = _legendre_orders(L, z.ravel())
    for m, (op, (_, _, scale)) in enumerate(zip(ops, _order_slots(L))):
        q = next(blocks)  # not zipped in: zip would hold it while the next is built
        cos_m = np.cos(m * psi) * (scale / circle_points)
        # per row i: Q[l, m] at its circle points times cos m psi
        rows_q = q.reshape(q.shape[0], *psi.shape).transpose(1, 0, 2)  # (rows, l, M)
        np.matmul(rows_q, cos_m[:, :, None], out=op[:, :, None])
        op.setflags(write=False)
        del q, rows_q  # one Legendre block alive at a time
    return ops


def radon_geometric_s2(f: S2Function) -> S2Function:
    """Geometric route on S^2: trapezoid average over great circles.

    A band-L function restricted to a circle is a trigonometric polynomial
    of degree L, so M >= L + 1 equally spaced samples average it exactly;
    M = 2L + 9 leaves margin.  The circle of the grid direction (theta_i,
    phi_j) is the circle of (theta_i, 0) turned by phi_j about the z-axis:
    its points keep their heights and their azimuths psi shift by phi_j.
    The circle of (sin theta, 0, cos theta), in the frame e_2 and
    (-cos theta, 0, sin theta), is (-cos theta sin tau, cos tau,
    sin theta sin tau): with x = cos theta its heights are
    z = sqrt(1 - x^2) sin tau and its azimuths psi = arctan2(cos tau,
    -x sin tau).  With a = c[l, m] and b = c[l, -m], cos m(psi + phi) and
    sin m(psi + phi) expand into the circle means C[i, m] = A_m a and
    S[i, m] = A_m b (the sine means of the Legendre blocks vanish, see
    `_s2_operator`), and the grid values are C @ cos(m phi_j) +
    S @ sin(m phi_j) (separation of variables, Driscoll & Healy 1994).

    A_m, the circle means of the Legendre blocks times cos m psi, depends
    on the band limit and the grid only: it is the cached operator
    `_s2_operator(L, grid)`, kept for the rows x >= 0, about
    (n_theta / 2)(L + 1)(L + 2) / 2 doubles.  At -x both means take the
    sign (-1)^m.
    """
    L, grid = f.band_limit, f.grid
    ops = _s2_operator(L, grid)
    half = np.empty((L + 1, ops[0].shape[0], 2))  # order x row x [C, S]
    for m, (op, (cos_i, sin_i, _)) in enumerate(zip(ops, _order_slots(L))):
        np.matmul(op, f.coeffs[np.stack((cos_i, sin_i), axis=1)], out=half[m])
    sign = (-1.0) ** np.arange(L + 1)[:, None, None]
    mirror = sign * half[:, grid.n_theta % 2:][:, ::-1]  # no mirror of a centre row
    c, s = np.concatenate((mirror, half), axis=1).T    # each (n_theta, L + 1)
    cos_t, sin_t = _grid_tables(L, grid)[1]
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
    if not np.all(tail_out[tail_indices + 1] > 0.0):  # then tail_in > 0 too
        raise ValueError(f"decay {decay!r} is too large: the tail energies underflow to 0")
    ratios = tail_out[tail_indices + 1] / tail_in[tail_indices + 1]
    logs = np.log(tail_indices)
    energy_slope = float(np.polyfit(logs, np.log(ratios), 1)[0])
    return SmoothingGainResult(
        dim=int(d), decay=float(decay), band_limit=int(band_limit),
        tail_indices=tail_indices, energy_ratios=ratios,
        energy_slope=energy_slope, l2_slope=0.5 * energy_slope)
