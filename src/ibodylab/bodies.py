"""Origin-symmetric star bodies, linear actions, and the intersection-body map.

A body is stored through its radial function rho on the sphere, band-limited
in one of the two representations.  The intersection-body operator sends rho
to the normalized subsphere average of rho^(d-1); with the unit-mass Radon
normalization used here the unit ball is an exact fixed point, and outputs
are rescaled to surface mean 1 so that iterations live in the quotient by
dilations.  `intersection_body` is the one operator: it records the mean it
divided by, so the raw transform R(rho^(d-1)) is that mean times its output.

The GL(d) action on radial functions is (T f)(x) = f(Tx/|Tx|) / |Tx|,
which corresponds to replacing the body K by T^(-1) K.  A body scans its
deviation rho - 1 on the refined set once (`StarBody.deviation_scan`): its
radial range, its positivity there and the iteration's sup norm read that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import refined_extremes
from .radon import radon_geometric_s2, radon_geometric_zonal, radon_spectral
from .sphharm import S2Function, _diagonal_image, _rotate, default_s2_grid
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

    @cached_property
    def deviation_scan(self) -> tuple[float, float, float]:
        """(min, max, sup |.|) of rho - 1 on the refined set, from its one
        scan (`analysis.refined_extremes`), kept on the body.  rho - 1 is
        scanned itself: read off a scan of rho, it would be all cancellation
        near the ball.  A refined minimum of rho that is not positive (a dip
        between the storage nodes, which the constructor checks) raises
        PositivityError."""
        lo, hi, sup = refined_extremes(_deviation(self.profile))
        if not 1.0 + lo > 0.0:  # so that NaN fails too
            raise PositivityError(f"radial function not strictly positive on the refined "
                                  f"set (min = {1.0 + lo:.3e})")
        return lo, hi, sup

    @cached_property
    def radial_range(self) -> tuple[float, float]:
        """(min, max) of rho on the refined set: 1 + those of `deviation_scan`."""
        lo, hi, _ = self.deviation_scan
        return 1.0 + lo, 1.0 + hi


def _deviation(f):
    """rho - 1, the deviation from the ball, in the same representation."""
    c = np.array(f.coeffs, dtype=float)
    c[0] -= 1.0
    return f.with_coeffs(c)


def ball_body(d: int, band_limit: int, representation: str = "zonal") -> StarBody:
    """The unit ball, rho = 1."""
    if representation == "zonal":
        c = np.zeros(band_limit + 1)
        c[0] = 1.0
        return StarBody(ZonalProfile.from_coeffs(d, c))
    if representation != "s2":
        raise ValueError(f"unknown representation {representation!r}")
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


def apply_linear_map(body: StarBody, T) -> StarBody:
    """The action (T f)(x) = f(Tx/|Tx|) / |Tx| on the body's radial function.

    For a zonal profile T must have the axis-fixing form diag(a, ..., a, b);
    a general invertible 3x3 matrix is accepted on S^2.  The result is
    re-analyzed at the same band limit (the action does not preserve
    band-limitedness exactly; the discarded tail is O(|T - I|) times the
    top-band content for maps near the identity).  On S^2, T = U S V^T
    (singular values, signs folded into S so that U and V turn): the
    coefficients turn by U and by V^T in O(L^3) (`sphharm._rotate`), and
    only the diagonal map S touches the storage grid, in O(L N)
    (`sphharm._diagonal_image`), with one analysis on it.
    """
    f = body.profile
    m = _as_matrix(T)
    if isinstance(f, ZonalProfile):
        if m.shape[0] != f.dim:
            raise ValueError("map dimension does not match the profile")
        a, b = _axis_form(m)
        t = f.rule.nodes
        stretch = np.sqrt(a * a * (1.0 - t * t) + b * b * t * t)
        vals = f.eval_at(b * t / stretch) / stretch
        out = ZonalProfile.from_values(f.dim, f.band_limit, vals, f.rule)
    else:
        if m.shape[0] != 3:
            raise ValueError("s2 functions require 3x3 maps")
        u, sigma, vt = np.linalg.svd(m)  # reflections go into sigma's signs
        if np.linalg.det(u) < 0.0:
            u[:, 2], sigma[2] = -u[:, 2], -sigma[2]
        if np.linalg.det(vt) < 0.0:
            vt[2], sigma[2] = -vt[2], -sigma[2]
        image = _diagonal_image(_rotate(f.coeffs, u), sigma, f.grid)
        out = S2Function(f.band_limit, f.grid, _rotate(image, vt))
    return StarBody(out)


# ---------------------------------------------------------------------------
# intersection-body operator

def intersection_body(body: StarBody, method: str = "spectral") -> StarBody:
    """Image of the body under the intersection-body map, mean-normalized.

    The power rho^(d-1) is formed on a quadrature set exact for its
    degree, transformed (spectrally by default, or by subsphere quadrature
    with method="geometric"), rescaled to surface mean 1, and truncated
    back to the body's band limit.  meta["mean_power"] is the mean of the
    raw transform R(rho^(d-1)) before the rescale, so the raw transform is
    mean_power times the output; meta["trunc_loss"] is the coefficient
    mass the truncation discarded.  Shape only: the true section volumes
    carry an extra constant factor that mean normalization removes (the
    ball maps to the ball).  Raises PositivityError (from `StarBody`) if
    the result is not a star body.
    """
    if method not in ("spectral", "geometric"):
        raise ValueError(f"unknown method {method!r}")
    pe = body.profile.power(body.profile.dim - 1)
    if method == "spectral":
        out_ext = radon_spectral(pe).coeffs
    elif pe.representation == "zonal":
        out_ext = radon_geometric_zonal(pe).coeffs
    else:
        out_ext = radon_geometric_s2(pe).coeffs
    mean_power = float(out_ext[0])
    out_ext = out_ext / mean_power
    kept = pe.degrees <= body.profile.band_limit
    lost = float(np.sqrt((out_ext[~kept] ** 2).sum()))
    return StarBody(body.profile.with_coeffs(out_ext[kept]),
                    meta={"trunc_loss": lost, "mean_power": mean_power})


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


def _inverse_norm(norm, a: np.ndarray):
    """x -> 1 / norm(x), the radial function of |a x| <= 1; a value that is
    not finite and positive (a square overflowed or underflowed) raises."""
    def radial(x):
        with np.errstate(all="ignore"):
            vals = 1.0 / norm(x)
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            axes = 1.0 / np.linalg.svd(a, compute_uv=False)
            raise ValueError(f"the ellipsoid with semiaxes {axes.tolist()} has "
                             "radial values beyond the floating-point range")
        return vals
    return radial


def _ellipsoid_profile(a: np.ndarray, band_limit: int):
    """Band-limited projection of x -> 1/|a x| with recorded projection error:
    an S2Function for d = 3, a ZonalProfile otherwise.  The function is even,
    so the true projection's odd degrees vanish and are set to 0; sampled on a
    grid not closed under x -> -x, they would alias to about 1e-6."""
    d = a.shape[0]
    if d != 3:
        try:
            aa, bb = _axis_form(a)
        except ValueError as exc:
            raise ValueError("zonal ellipsoids require diag(a, ..., a, b)") from exc
        radial = _inverse_norm(
            lambda t: np.sqrt(aa * aa * (1.0 - t * t) + bb * bb * t * t), a)
        rule = default_rule(d, band_limit)
        prof = ZonalProfile.from_values(d, band_limit, radial(rule.nodes), rule)
    else:
        radial = _inverse_norm(lambda x: np.linalg.norm(x @ a.T, axis=-1), a)
        grid = default_s2_grid(band_limit)
        prof = S2Function.from_values(band_limit, radial(grid.points()), grid)
    prof = prof.with_coeffs(np.where(prof.degrees % 2, 0.0, prof.coeffs))
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
