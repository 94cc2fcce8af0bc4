"""Quadrature rules realizing the rotation-invariant probability measure on spheres.

Two reductions are used throughout the package:

* zonal reduction: for a function on S^(d-1) depending only on t = <x, axis>,
  the surface average equals the integral against the normalized weight
  c_lambda (1 - t^2)^lambda dt on [-1, 1] with lambda = (d-3)/2.  Averages
  over the (d-2)-subsphere cut out by a hyperplane use lambda = (d-4)/2.
* product grids on S^2: Gauss-Legendre colatitudes times equally spaced,
  equally weighted longitudes.

All weights are normalized to total mass 1, so constants integrate to 1 and
no surface-area factors appear downstream.

Gauss rules are built with numpy alone, after Golub & Welsch (1969).  The
symmetric Jacobi matrix J of the weight has a zero diagonal, so J^2 splits
into two tridiagonal blocks by the parity of the row; the block on the odd
rows, of size n // 2, has the squares of the positive nodes as eigenvalues
for either parity of n.  `numpy.linalg.eigvalsh` of that half-size block
gives them, two Newton steps on p_n polish their square roots, and the
weights are the Christoffel numbers 1 / (p_0^2 + ... + p_{n-1}^2) of the
orthonormal p_k, normalized to sum 1.  The recurrence runs two degrees at
a time, so no (n, n) or (n, n/2) table is stored.  The negative half is
the mirror image of the positive one (plus the node 0 when n is odd), so
the +/- symmetry of nodes and weights is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

REFINE = 4  # refined_set is REFINE times finer than the storage rule or grid


@dataclass(frozen=True, eq=False)
class JacobiRule:
    """Gauss rule for the normalized weight (1 - t^2)^exponent on [-1, 1].

    Attributes
    ----------
    dim : int
        Ambient sphere dimension d (the rule lives on S^(d-1)).
    exponent : float
        Weight exponent, (d-3)/2 for the full sphere or (d-4)/2 for a
        subsphere section.
    nodes, weights : ndarray
        Nodes in increasing order; weights sum to 1.
    """

    dim: int
    exponent: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class S2Grid:
    """Gauss-Legendre x equiangular product grid on S^2.

    ``x`` holds the colatitude nodes as cos(theta) values, ``phi`` the
    longitudes.  ``weights`` is the (n_theta, n_phi) array of products
    w_theta / n_phi; it sums to 1.  Surface integrals of spherical
    polynomials of degree <= min(2 n_theta - 1, n_phi - 1) are exact.
    """

    x: np.ndarray
    w_theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.x.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def exact_degree(self) -> int:
        return min(2 * self.n_theta - 1, self.n_phi - 1)

    def points(self) -> np.ndarray:
        """Unit vectors of the grid, shape (n_theta, n_phi, 3)."""
        sin_t = np.sqrt(1.0 - self.x**2)
        cos_p, sin_p = np.cos(self.phi), np.sin(self.phi)
        out = np.empty((self.n_theta, self.n_phi, 3))
        out[..., 0] = sin_t[:, None] * cos_p[None, :]
        out[..., 1] = sin_t[:, None] * sin_p[None, :]
        out[..., 2] = self.x[:, None] * np.ones_like(cos_p)[None, :]
        return out


def recurrence_offdiag(exponent: float, n: int) -> np.ndarray:
    """Off-diagonal entries sqrt(b_k), k = 1..n-1, of the symmetric Jacobi
    matrix for the weight (1 - t^2)^exponent.

    The diagonal vanishes by symmetry.  b_1 = 1/(3 + 2 lambda) is handled
    separately: the generic ratio degenerates to 0/0 at lambda = -1/2.
    """
    lam = float(exponent)
    if n <= 1:
        return np.zeros(0)
    k = np.arange(2, n, dtype=float)
    b = k * (k + 2.0 * lam) / ((2.0 * k + 2.0 * lam + 1.0) * (2.0 * k + 2.0 * lam - 1.0))
    b = np.concatenate(([1.0 / (3.0 + 2.0 * lam)], b))
    return np.sqrt(b)


def gauss_jacobi_rule(d: int, exponent: float, n: int) -> JacobiRule:
    """Build the n-point Gauss rule for the normalized weight
    (1 - t^2)^exponent (see the module docstring for the construction).

    Parameters
    ----------
    d : int
        Sphere dimension, d >= 3.
    exponent : float
        Must be (d-3)/2 or (d-4)/2 (the two reductions used here) and > -1.
    n : int
        Number of nodes, n >= 1.

    Returns
    -------
    JacobiRule
        Nodes symmetric about 0; weights positive, summing to 1; exact for
        polynomials of degree <= 2n - 1.
    """
    if int(d) != d or d < 3:
        raise ValueError(f"sphere dimension must be an integer >= 3, got {d}")
    if exponent <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {exponent}")
    allowed = ((d - 3) / 2.0, (d - 4) / 2.0)
    if not any(abs(exponent - a) < 1e-12 for a in allowed):
        raise ValueError(
            f"exponent {exponent} is neither (d-3)/2 nor (d-4)/2 for d={d}"
        )
    if int(n) != n or n < 1:
        raise ValueError(f"rule order must be a positive integer, got {n}")
    return _rule_cached(int(d), float(exponent), int(n))


@lru_cache(maxsize=256)
def _rule_cached(d: int, exponent: float, n: int) -> JacobiRule:
    c = recurrence_offdiag(exponent, n + 1)
    # J^2 restricted to the odd rows of the n x n Jacobi matrix: with
    # c_0 = c_n = 0, its diagonal is c_{2j+1}^2 + c_{2j+2}^2 and its
    # off-diagonal c_{2j+2} c_{2j+3}; eigvalsh reads the lower triangle
    pad = np.concatenate(([0.0], c[:-1], [0.0]))
    m = n // 2
    odd, even = pad[1:2 * m:2], pad[2:2 * m + 1:2]
    block = np.diag(odd**2 + even**2)
    rows = np.arange(m - 1)
    block[rows + 1, rows] = even[:-1] * odd[1:]
    # nonnegative half of the nodes: 0 when n is odd, then x = sqrt(x^2)
    half = np.concatenate((np.zeros(n % 2), np.sqrt(np.linalg.eigvalsh(block))))
    for _ in range(2):
        half = half - _recurrence_sweep(c, half)[0]
    w = 1.0 / _recurrence_sweep(c, half)[1]
    pos = slice(n % 2, None)
    nodes = np.concatenate((-half[pos][::-1], half))
    weights = np.concatenate((w[pos][::-1], w))
    weights /= weights.sum()
    # rules are shared across callers, so their arrays are frozen
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return JacobiRule(d, exponent, nodes, weights)


def _recurrence_sweep(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton step p_n / p_n' and Christoffel sum p_0^2 + ... + p_{n-1}^2
    at x, for the orthonormal p_k of c = recurrence_offdiag(exponent, n + 1).

    Runs the three-term recurrence and its derivative two degrees at a
    time, so memory stays O(x.size).
    """
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    christoffel = np.zeros_like(x)
    c_prev = 0.0
    for ck in c:
        christoffel += p * p
        p_prev, p = p, (x * p - c_prev * p_prev) / ck
        dp_prev, dp = dp, (p_prev + x * dp - c_prev * dp_prev) / ck
        c_prev = ck
    return p / dp, christoffel


def s2_grid(level: int) -> S2Grid:
    """Product grid on S^2 with n_theta = level + 1, n_phi = 2 level + 1.

    Exact for spherical polynomials of degree <= 2 * level, i.e. for
    products of two functions band-limited at `level`.  Grids are cached
    and shared, so repeated calls return the same object.
    """
    if int(level) != level or level < 0:
        raise ValueError(f"grid level must be a nonnegative integer, got {level}")
    return _s2_grid_cached(int(level))


@lru_cache(maxsize=64)
def _s2_grid_cached(level: int) -> S2Grid:
    n_phi = 2 * level + 1
    leg = gauss_jacobi_rule(3, 0.0, level + 1)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    weights = np.outer(leg.weights, np.full(n_phi, 1.0 / n_phi))
    phi.setflags(write=False)
    weights.setflags(write=False)
    return S2Grid(leg.nodes, leg.weights, phi, weights)
