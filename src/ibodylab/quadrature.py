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

Gauss rules are built with numpy alone, in O(n) memory and with no eigensolver:
an asymptotic start, then Newton (Hale & Townsend, SIAM J. Sci. Comput. 35,
2013, A652).  u = sin^(lam+1/2)(theta) p_n(cos theta) solves
u'' + [rho^2 - (lam^2 - 1/4) / sin^2 theta] u = 0 with rho = n + lam + 1/2.
With a^2 = max(lam^2 - 1/4, 0) and A^2 = rho^2 - a^2, its Liouville-Green phase
(Olver, Asymptotics and Special Functions, 1974, ch. 6) in x = cos theta is
F(x) = rho arcsin(rho x / A) - a arctan(a x / sqrt(A^2 - rho^2 x^2)), and the
k-th node from the turning point solves
F = (rho - a) pi/2 - (k - 1/4 - (a - lam)/2) pi: from the centre, that is
F = (j + 1/2) pi for even n and j pi for odd n, j = 0, 1, ...  The start is
exact at lam = +/- 1/2.  Two Newton sweeps in theta on u follow (cubic, as
u'' = 0 at the zeros), then one in x, which puts each node on its
floating-point fixed point; p_n' comes from (1 - x^2) p_n' =
2 rho c_n p_(n-1) - n x p_n, c_n the last recurrence coefficient.  The weights
are the Christoffel numbers 1 / (p_0^2 + ... + p_(n-1)^2) at the returned
nodes, normalized to sum 1.  Only the nonnegative half is built and then
mirrored, so the +/- symmetry of nodes and weights is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

REFINE = 4  # refined_set is REFINE times finer than the storage rule or grid


@dataclass(frozen=True, eq=False)
class JacobiRule:
    """Gauss rule for the normalized weight (1 - t^2)^exponent on [-1, 1]
    of S^(dim-1): exponent (d-3)/2 for the full sphere, (d-4)/2 for a
    subsphere section.  Nodes increase; weights sum to 1."""

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
    """The n-point Gauss rule (n >= 1) for the normalized weight
    (1 - t^2)^exponent on S^(d-1), d >= 3, with exponent (d-3)/2 or (d-4)/2,
    the two reductions used here, and > -1 (the module docstring gives the
    construction).  Its nodes are symmetric about 0 and its weights
    positive, summing to 1; it is exact for polynomials of degree <= 2n - 1.
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
    rho = n + exponent + 0.5
    a2 = max(exponent * exponent - 0.25, 0.0)
    a, big_a2 = np.sqrt(a2), rho * rho - a2
    # the phase start, solved in psi = arcsin(rho x / A): F(psi) is concave
    # and below rho psi, so Newton from target / rho climbs to the root
    target = np.pi * (np.arange((n + 1) // 2) + (1 - n % 2) / 2)
    psi = target / rho
    for _ in range(4):
        cos2 = np.cos(psi) ** 2
        phase = rho * psi - a * np.arctan(a / rho * np.tan(psi))
        psi -= (phase - target) * (a2 + big_a2 * cos2) / (rho * big_a2 * cos2)
    # Newton in theta, on sigma = pi/2 - theta: x = sin(sigma) keeps its digits
    sigma = np.arcsin(np.sqrt(big_a2) / rho * np.sin(psi))
    for _ in range(2):
        x = np.sin(sigma)
        p, p_prev = _newton_sweep(c, x)
        sigma += np.cos(sigma) * p / (rho * (x * p - 2.0 * c[-1] * p_prev))
    x = np.sin(sigma)
    p, p_prev = _newton_sweep(c, x)
    half = x - (1.0 - x) * (1.0 + x) * p / (2.0 * rho * c[-1] * p_prev - n * x * p)
    w = 1.0 / _christoffel_sum(c, half)
    pos = slice(n % 2, None)
    nodes = np.concatenate((-half[pos][::-1], half))
    weights = np.concatenate((w[pos][::-1], w))
    weights /= weights.sum()
    # rules are shared across callers, so their arrays are frozen
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return JacobiRule(d, exponent, nodes, weights)


def _newton_sweep(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal p_n and p_(n-1) at x, c = recurrence_offdiag(exponent, n + 1)."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    c_prev = 0.0
    for ck in c:
        p_prev, p = p, (x * p - c_prev * p_prev) / ck
        c_prev = ck
    return p, p_prev


def _christoffel_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p_0^2 + ... + p_(n-1)^2 at x, for the same p_k as `_newton_sweep`."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total = np.ones_like(x)
    c_prev = 0.0
    for ck in c[:-1]:
        p_prev, p = p, (x * p - c_prev * p_prev) / ck
        total += p * p
        c_prev = ck
    return total


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
