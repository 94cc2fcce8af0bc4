"""Origin-symmetric star bodies, linear actions, and the intersection-body map.

A body is stored through its radial function rho on the sphere, band-limited
in one of the two representations.  The intersection-body operator sends rho
to the normalized subsphere average of rho^(d-1); with the unit-mass Radon
normalization used here the unit ball is an exact fixed point, and outputs
are rescaled to surface mean 1 so that iterations live in the quotient by
dilations.

The GL(d) action on radial functions is (T f)(x) = f(Tx/|Tx|) / |Tx|,
which corresponds to replacing the body K by T^(-1) K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .radon import radon_geometric_s2, radon_geometric_zonal, radon_multiplier
from .sphharm import S2Function, default_s2_grid
from .zonal import ZonalProfile, default_rule

EVENNESS_TOL = 1e-12


class PositivityError(RuntimeError):
    """Raised when a radial function fails strict positivity."""


@dataclass(frozen=True, eq=False)
class StarBody:
    """Band-limited origin-symmetric star body with strictly positive radial."""

    profile: "ZonalProfile | S2Function"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = self.profile.values
        # written as "not min > 0" so that a NaN sample fails the check
        if not np.min(vals) > 0.0:
            raise PositivityError(
                f"radial function not strictly positive (min = {float(np.min(vals)):.3e})"
            )
        e = self.profile.energies()
        odd = float(e[1::2].sum())
        total = float(e.sum())
        if odd > EVENNESS_TOL * total:
            raise ValueError(
                f"body is not origin-symmetric: odd-degree energy {odd:.3e} "
                f"of total {total:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.profile.dim

    @cached_property
    def radial_range(self) -> tuple[float, float]:
        """(min, max) of the radial function on the profile's refined set,
        measured at first use and kept on the body."""
        vals = self.profile.refined_values()
        return float(vals.min()), float(vals.max())

    @property
    def band_limit(self) -> int:
        return self.profile.band_limit

    @property
    def representation(self) -> str:
        return self.profile.representation

    def radial_eval(self, arg):
        """Radial function: at heights t for zonal bodies, at unit points
        (..., 3) for s2 bodies."""
        if isinstance(self.profile, ZonalProfile):
            return self.profile.eval_at(arg)
        return self.profile.eval_at_points(arg)


def ball_body(d: int, band_limit: int, representation: str = "zonal") -> StarBody:
    """The unit ball, rho = 1."""
    if representation == "zonal":
        c = np.zeros(band_limit + 1)
        c[0] = 1.0
        return StarBody(ZonalProfile.from_coeffs(d, c))
    if d != 3:
        raise ValueError("s2 representation requires d = 3")
    c = np.zeros((band_limit + 1) ** 2)
    c[0] = 1.0
    return StarBody(S2Function.from_coeffs(c))


# ---------------------------------------------------------------------------
# GL(d) action

def _as_matrix(T) -> np.ndarray:
    m = np.asarray(T, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("linear map must be a square matrix")
    if abs(float(np.linalg.det(m))) < 1e-300:
        raise ValueError("linear map must be invertible")
    return m


def _axis_form(m: np.ndarray) -> tuple[float, float]:
    """Decompose m = diag(a, ..., a, b); error out otherwise."""
    d = m.shape[0]
    scale = float(np.abs(m).max())
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() > 1e-12 * scale:
        raise ValueError("zonal profiles support only axis-fixing diagonal maps")
    diag = np.diag(m)
    if d > 1 and np.abs(diag[:-1] - diag[0]).max() > 1e-12 * scale:
        raise ValueError("zonal profiles require diag(a, ..., a, b) maps")
    return float(diag[0]), float(diag[-1])


def apply_linear_map(f, T):
    """The action (T f)(x) = f(Tx/|Tx|) / |Tx| on radial functions.

    Accepts a ZonalProfile, an S2Function, or a StarBody (acted on through
    its profile).  For a zonal profile T must have the axis-fixing form
    diag(a, ..., a, b); a general invertible 3x3 matrix is accepted for s2
    functions.  The result is re-analyzed at the same band limit (the
    action does not preserve band-limitedness exactly; the discarded tail
    is O(|T - I|) times the top-band content for maps near the identity).
    """
    if isinstance(f, StarBody):
        return StarBody(apply_linear_map(f.profile, T), meta=dict(f.meta))
    m = _as_matrix(T)
    if isinstance(f, ZonalProfile):
        if m.shape[0] != f.dim:
            raise ValueError("map dimension does not match the profile")
        a, b = _axis_form(m)
        t = f.rule.nodes
        stretch = np.sqrt(a * a * (1.0 - t * t) + b * b * t * t)
        vals = f.eval_at(b * t / stretch) / stretch
        return ZonalProfile.from_values(f.dim, f.band_limit, vals, f.rule)
    if m.shape[0] != 3:
        raise ValueError("s2 functions require 3x3 maps")
    pts = f.grid.points().reshape(-1, 3)
    mapped = pts @ m.T
    norms = np.linalg.norm(mapped, axis=1)
    vals = f.eval_at_points(mapped / norms[:, None]) / norms
    return S2Function.from_values(f.band_limit, vals.reshape(f.grid.weights.shape), f.grid)


# ---------------------------------------------------------------------------
# intersection-body operator

def radon_of_power(body: StarBody, method: str = "spectral",
                   normalize: bool = True) -> StarBody:
    """Transform of the radial power: R(rho^(d-1)), the intersection-body
    map up to scale.

    The power is formed on a quadrature set exact for its degree,
    transformed (spectrally by default, or by subsphere quadrature with
    method="geometric"), and truncated back to the body's band limit with
    the discarded coefficient mass recorded in meta["trunc_loss"].  With
    normalize=True the output is rescaled to surface mean 1 and the mean
    it had before rescaling is recorded in meta["mean_power"]; with
    normalize=False the raw transform is returned.  Raises PositivityError
    (from `StarBody`) if the result is not a star body.
    """
    if method not in ("spectral", "geometric"):
        raise ValueError(f"unknown method {method!r}")
    d = body.dim
    pe = body.profile.power(d - 1)
    if method == "spectral":
        out_ext = pe.coeffs * radon_multiplier(d, pe.band_limit)[pe.degrees]
    elif pe.representation == "zonal":
        out_ext = radon_geometric_zonal(pe).coeffs
    else:
        out_ext = radon_geometric_s2(pe).coeffs
    mean_power = float(out_ext[0])
    if normalize:
        out_ext = out_ext / mean_power
    kept = pe.degrees <= body.band_limit
    lost = float(np.sqrt((out_ext[~kept] ** 2).sum()))
    meta = {"trunc_loss": lost}
    if normalize:
        meta["mean_power"] = mean_power
    return StarBody(body.profile.with_coeffs(out_ext[kept]), meta=meta)


def intersection_body(body: StarBody, method: str = "spectral") -> StarBody:
    """Image of the body under the intersection-body map, mean-normalized.

    Shape only: the true section volumes carry an extra constant factor
    that mean normalization removes (the ball maps to the ball).  See
    radon_of_power for the computation and the recorded metadata.
    """
    return radon_of_power(body, method=method, normalize=True)


# ---------------------------------------------------------------------------
# ellipsoids

def _check_spd(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("ellipsoid matrix must be square")
    if np.abs(a - a.T).max() > 1e-12 * np.abs(a).max():
        raise ValueError("ellipsoid matrix must be symmetric")
    if np.linalg.eigvalsh(a).min() <= 0.0:
        raise ValueError("ellipsoid matrix must be positive definite")
    return a


def _ellipsoid_profile(a: np.ndarray, band_limit: int):
    """Band-limited projection of x -> 1/|a x| with recorded projection error:
    an S2Function for d = 3, a ZonalProfile otherwise."""
    d = a.shape[0]
    if d != 3:
        try:
            aa, bb = _axis_form(a)
        except ValueError as exc:
            raise ValueError("zonal ellipsoids require diag(a, ..., a, b)") from exc
        radial = lambda t: 1.0 / np.sqrt(aa * aa * (1.0 - t * t) + bb * bb * t * t)
        rule = default_rule(d, band_limit)
        prof = ZonalProfile.from_values(d, band_limit, radial(rule.nodes), rule)
    else:
        radial = lambda x: 1.0 / np.linalg.norm(x @ a.T, axis=-1)
        grid = default_s2_grid(band_limit)
        prof = S2Function.from_values(band_limit, radial(grid.points()), grid)
    exact = radial(prof.refined_set())
    err = float(np.abs(prof.refined_values() - exact).max() / np.abs(exact).max())
    return prof, err


def ellipsoid_body(a, band_limit: int = 32) -> StarBody:
    """The ellipsoid {x : |a^(-1) x| <= 1} (image of the ball under a),
    radial function 1/|a^(-1) xi|, projected to the band limit: on S^2 for
    d = 3, zonal (a = diag(a, ..., a, b)) otherwise."""
    a = _check_spd(a)
    prof, err = _ellipsoid_profile(np.linalg.inv(a), band_limit)
    return StarBody(prof, meta={"projection_error": err})


def ellipsoid_intersection_closed_form(a, band_limit: int = 32) -> StarBody:
    """Exact (mean-normalized) intersection body of the ellipsoid above:
    radial function proportional to 1/|a xi|."""
    a = _check_spd(a)
    prof, err = _ellipsoid_profile(a, band_limit)
    return StarBody(prof.with_coeffs(prof.coeffs / prof.coeffs[0]),
                    meta={"projection_error": err})
