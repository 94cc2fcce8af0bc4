"""Orthonormal zonal basis on S^(d-1) and band-limited zonal profiles.

Z_0, Z_1, ... are the orthonormal polynomials of the normalized zonal weight
c (1 - t^2)^((d-3)/2) dt on [-1, 1]; Z_0 = 1.  Restricted to functions of
t = <x, axis> they represent the rotation-invariant part of the degree-k
spherical-harmonic spaces, so every per-degree operator used in this package
(Radon multipliers, cutoffs, projections) acts diagonally on the
coefficients computed here.

Evaluation runs the symmetric three-term recurrence of the orthonormal
family, which is stable to degrees in the hundreds; derivatives come from
differentiating the same recurrence rather than from finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quadrature import REFINE, JacobiRule, gauss_jacobi_rule, recurrence_offdiag

_CHUNK = 16384  # points per basis table in ZonalProfile.eval_at


def sphere_exponent(d: int) -> float:
    """Weight exponent (d-3)/2 of the zonal reduction of S^(d-1)."""
    return (d - 3) / 2.0


def default_rule(d: int, band_limit: int) -> JacobiRule:
    """Default storage rule: order 2K + 8 for band limit K.

    Exact for polynomial integrands of degree <= 4K + 15, which covers
    products of band-limited functions with margin for moderate powers.
    """
    return gauss_jacobi_rule(d, sphere_exponent(d), 2 * band_limit + 8)


def subsphere_rule(d: int, order: int) -> JacobiRule:
    """Rule for averages over the (d-2)-subsphere cut by a hyperplane."""
    return gauss_jacobi_rule(d, (d - 4) / 2.0, order)


def zonal_basis_matrix(d: int, kmax: int, t: np.ndarray) -> np.ndarray:
    """Evaluate Z_0..Z_kmax at points t; returns shape (kmax + 1, t.size)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sb = recurrence_offdiag(sphere_exponent(d), kmax + 1)
    out = np.empty((kmax + 1, t.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = t / sb[0]
    for k in range(1, kmax):
        out[k + 1] = (t * out[k] - sb[k - 1] * out[k - 1]) / sb[k]
    return out


def zonal_basis_derivatives(d: int, kmax: int, t: np.ndarray):
    """(Z, Z', Z'') of the basis at points t, each shape (kmax + 1, t.size).

    Obtained by differentiating the three-term recurrence twice.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sb = recurrence_offdiag(sphere_exponent(d), kmax + 1)
    z = np.zeros((kmax + 1, t.size))
    zp = np.zeros_like(z)
    zpp = np.zeros_like(z)
    z[0] = 1.0
    if kmax >= 1:
        z[1] = t / sb[0]
        zp[1] = 1.0 / sb[0]
    for k in range(1, kmax):
        z[k + 1] = (t * z[k] - sb[k - 1] * z[k - 1]) / sb[k]
        zp[k + 1] = (z[k] + t * zp[k] - sb[k - 1] * zp[k - 1]) / sb[k]
        zpp[k + 1] = (2.0 * zp[k] + t * zpp[k] - sb[k - 1] * zpp[k - 1]) / sb[k]
    return z, zp, zpp


@dataclass(frozen=True, eq=False)
class ZonalProfile:
    """Band-limited zonal function: values on a quadrature rule + coefficients.

    Values and coefficients are kept in sync; `coeffs[k]` multiplies Z_k.
    Shares its interface with `S2Function` (dim, representation, values,
    coeffs, degrees, with_coeffs, power, energies, refined_set and
    refined_values); points are heights t in [-1, 1].
    """

    representation: ClassVar[str] = "zonal"

    dim: int
    band_limit: int
    rule: JacobiRule
    values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, d: int, band_limit: int, values: np.ndarray,
                    rule: JacobiRule | None = None) -> "ZonalProfile":
        if rule is None:
            rule = default_rule(d, band_limit)
        _check_rule(d, band_limit, rule)
        values = np.asarray(values, dtype=float)
        if values.shape != rule.nodes.shape:
            raise ValueError("values do not match the rule's nodes")
        basis = zonal_basis_matrix(d, band_limit, rule.nodes)
        coeffs = basis @ (rule.weights * values)
        # re-synthesize so stored values are exactly the band-limited part
        return cls(d, band_limit, rule, basis.T @ coeffs, coeffs)

    @classmethod
    def from_coeffs(cls, d: int, coeffs: np.ndarray,
                    rule: JacobiRule | None = None) -> "ZonalProfile":
        coeffs = np.asarray(coeffs, dtype=float)
        band_limit = coeffs.size - 1
        if rule is None:
            rule = default_rule(d, band_limit)
        _check_rule(d, band_limit, rule)
        basis = zonal_basis_matrix(d, band_limit, rule.nodes)
        return cls(d, band_limit, rule, basis.T @ coeffs, coeffs)

    def eval_at(self, t) -> np.ndarray | float:
        """f at heights t; the basis table is built _CHUNK points at a time."""
        scalar = np.isscalar(t)
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        flat = tt.ravel()
        vals = np.empty(flat.size)
        for start in range(0, flat.size, _CHUNK):
            block = flat[start:start + _CHUNK]
            vals[start:start + _CHUNK] = (
                zonal_basis_matrix(self.dim, self.band_limit, block).T @ self.coeffs)
        vals = vals.reshape(tt.shape)
        return vals.item() if scalar else vals

    def derivatives_at(self, t: np.ndarray):
        """(f, f', f'') with respect to t at the given points."""
        t = np.asarray(t, dtype=float)
        z, zp, zpp = zonal_basis_derivatives(self.dim, self.band_limit, t.ravel())
        return (
            (z.T @ self.coeffs).reshape(t.shape),
            (zp.T @ self.coeffs).reshape(t.shape),
            (zpp.T @ self.coeffs).reshape(t.shape),
        )

    @property
    def degrees(self) -> np.ndarray:
        """Degree k of every coefficient slot."""
        return np.arange(self.band_limit + 1)

    def with_coeffs(self, coeffs) -> "ZonalProfile":
        """Same rule (when the band limit is unchanged), new coefficients."""
        coeffs = np.asarray(coeffs, dtype=float)
        return ZonalProfile.from_coeffs(
            self.dim, coeffs, self.rule if coeffs.size == self.coeffs.size else None)

    def power(self, p: int) -> "ZonalProfile":
        """f^p at band p K, sampled on a rule exact for its analysis."""
        d, k = self.dim, p * self.band_limit
        work = gauss_jacobi_rule(d, sphere_exponent(d), k + 8)
        return ZonalProfile.from_values(d, k, self.eval_at(work.nodes) ** p, work)

    def energies(self) -> np.ndarray:
        """Per-degree energies e_k = coeffs[k]^2."""
        return self.coeffs**2

    def refined_set(self) -> np.ndarray:
        """Heights of the dense evaluation set: the Gauss rule REFINE
        times finer than the storage rule, with the poles -1 and 1 added."""
        fine = gauss_jacobi_rule(self.dim, sphere_exponent(self.dim),
                                 REFINE * self.rule.order)
        return np.concatenate(([-1.0], fine.nodes, [1.0]))

    def refined_values(self) -> np.ndarray:
        """f on `refined_set`."""
        return self.eval_at(self.refined_set())


def _check_rule(d: int, band_limit: int, rule: JacobiRule) -> None:
    if rule.dim != d:
        raise ValueError(f"rule dimension {rule.dim} does not match d={d}")
    if abs(rule.exponent - sphere_exponent(d)) > 1e-12:
        raise ValueError("profile rules must use the full-sphere exponent (d-3)/2")
    if rule.order < band_limit + 1:
        raise ValueError(
            f"rule order {rule.order} cannot resolve band limit {band_limit}"
        )
