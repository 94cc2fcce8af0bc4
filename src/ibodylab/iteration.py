"""Corrected fixed-point iteration around the ball.

One step of the scheme maps a mean-1 star body rho = 1 + phi through

    rho  ->  gamma * R((T rho)^(d-1)),    T = I + Q,

where Q is the traceless symmetric map whose quadratic form matches the
degree-2 component of phi (removing the neutral mode of the linearized
transform) and gamma rescales the output to surface mean 1.  A raw mode
runs the bare recursion rho -> R(rho^(d-1)) with no correction and no
rescale, which lets the mean drift inside the expected power envelope.

The module also provides the cap family scaling experiment for the sup
and gradient norms against the L2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import _ambient_hessian_norm, _decay_tail, l2_norm, sup_norm
from .bodies import StarBody, apply_linear_map, radon_of_power
from .sphharm import sh_index
from .zonal import ZonalProfile


class DivergenceError(RuntimeError):
    """L2 distance to the ball doubled in one step; the run left the
    contraction regime.  Carries the partial report in .report."""

    def __init__(self, message: str, report: "IterationReport"):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# degree-2 correction map

def _deviation(f):
    """rho - 1, the deviation from the ball, in the same representation."""
    c = np.array(f.coeffs, dtype=float)
    c[0] -= 1.0
    return f.with_coeffs(c)


def fit_degree2_correction(phi) -> np.ndarray:
    """Traceless symmetric Q with (Qx, x) equal to the degree-2 harmonic
    component of phi on the unit sphere, read off its degree-2
    coefficients.  phi must have zero mean.

    Zonal: the unit-norm Z_2 is s (t^2 - 1/d) with s = d sqrt((d+2)/(2(d-1))),
    so Q = c_2 s diag(-1/d, ..., -1/d, (d-1)/d).  S^2: with c_m the (2, m)
    coefficient, Q = b [[c_2, c_-2, c_1], [c_-2, -c_2, c_-1], [c_1, c_-1, 0]]
    + a c_0 diag(-1, -1, 2), where a = sqrt(5)/2 and b = sqrt(15)/2.
    """
    coeffs = np.asarray(phi.coeffs, dtype=float)
    scale = max(1.0, float(np.sqrt((coeffs**2).sum())))
    if abs(float(coeffs[0])) > 1e-10 * scale:
        raise ValueError("degree-2 fit requires a mean-zero input")
    d = phi.dim
    if phi.band_limit < 2:
        return np.zeros((d, d))
    if isinstance(phi, ZonalProfile):
        q_axis = np.full(d, -1.0 / d)
        q_axis[-1] = (d - 1.0) / d
        return np.diag(coeffs[2] * d * math.sqrt((d + 2.0) / (2.0 * (d - 1.0))) * q_axis)
    cm2, cm1, c0, c1, c2 = coeffs[sh_index(2, -2):sh_index(2, 2) + 1]
    q = math.sqrt(15.0) / 2.0 * np.array([[c2, cm2, c1], [cm2, -c2, cm1], [c1, cm1, 0.0]])
    return q + math.sqrt(5.0) / 2.0 * c0 * np.diag([-1.0, -1.0, 2.0])


# ---------------------------------------------------------------------------
# one step and full runs

@dataclass(frozen=True)
class IterationOptions:
    """Controls for the corrected iteration.

    kill_h2 applies the degree-2 correction map before each power step;
    raw_power_mode runs the bare recursion instead (no correction, no
    mean rescale).  track_decay_alpha adds the decay norm u_alpha to every
    step record (off by default).
    """
    kill_h2: bool = True
    raw_power_mode: bool = False
    max_steps: int = 20
    stop_tol: float = 1e-12
    method: str = "spectral"
    track_decay_alpha: float | None = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")
        alpha = self.track_decay_alpha
        if alpha is not None and not math.isfinite(alpha):
            raise ValueError(f"track_decay_alpha {alpha!r} is not finite")
        if self.method not in ("spectral", "geometric"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class StepRecord:
    """Telemetry for one state of the run (m = 0 is the starting body).

    l2 and sup are the norms of rho - 1; q_matrix is the degree-2
    correction the step applied (zero at m = 0 and in raw mode); gamma is
    the output rescale; ratio is l2 over that of the step's input (NaN at
    m = 0); trunc_loss is the coefficient mass cut by truncation;
    min_radial and max_radial are the state's `StarBody.radial_range`;
    u_alpha is the decay norm when tracked.
    """
    m: int
    l2: float
    sup: float
    q_matrix: np.ndarray
    gamma: float
    ratio: float
    trunc_loss: float
    min_radial: float
    max_radial: float
    u_alpha: float | None = None

    @property
    def q_norm(self) -> float:
        return float(np.linalg.norm(self.q_matrix, 2))


def _state_record(body: StarBody, m: int, opts: IterationOptions,
                  q: np.ndarray, gamma: float, trunc_loss: float,
                  l2_prev: float) -> StepRecord:
    """Record of the state `body`; its ratio is its L2 deviation over
    l2_prev, the L2 deviation of the step's input (NaN for the start)."""
    dev = _deviation(body.profile)
    lo, hi = body.radial_range
    sup = sup_norm(dev)
    u_alpha = None
    if opts.track_decay_alpha is not None:
        # approx_decay_norm(dev, alpha), reusing the sup norm of the record
        u_alpha = max(sup, _decay_tail(dev, opts.track_decay_alpha))
    l2 = l2_norm(dev)
    return StepRecord(
        m=m,
        l2=l2,
        sup=sup,
        q_matrix=q,
        gamma=gamma,
        ratio=l2 / l2_prev if l2_prev > 0.0 else math.nan,
        trunc_loss=trunc_loss,
        min_radial=lo,
        max_radial=hi,
        u_alpha=u_alpha,
    )


def _rescaled_to_mean_one(body: StarBody) -> StarBody:
    c = np.array(body.profile.coeffs, dtype=float)
    if abs(c[0] - 1.0) < 1e-15:
        return body
    c /= c[0]
    return StarBody(body.profile.with_coeffs(c), meta=dict(body.meta))


def iterate_step(body: StarBody, opts: IterationOptions) -> tuple[StarBody, StepRecord]:
    """One step of the scheme; returns the new body and its record.

    Corrected mode rescales the input to surface mean 1, requires the
    deviation from 1 to stay below 1/2 in sup norm, applies T = I + Q
    when kill_h2 is set, takes the (d-1) power, transforms, and rescales
    the output to mean 1 (the rescale factor is the recorded gamma).
    Raw mode skips the correction and both rescales.  The record's ratio
    is the L2 deviation of the output over that of the input.
    """
    d = body.dim
    corrected = not opts.raw_power_mode
    if corrected:
        body = _rescaled_to_mean_one(body)
        lo, hi = body.radial_range
        if max(abs(lo - 1.0), abs(hi - 1.0)) >= 0.5:
            raise ValueError(
                "the radial function deviates from 1 by 1/2 or more; "
                "the corrected step is only defined near the ball")
    dev = _deviation(body.profile)
    q = np.zeros((d, d))
    work = body
    if corrected and opts.kill_h2:
        q = fit_degree2_correction(dev)
        q_norm = float(np.linalg.norm(q, 2))
        if q_norm >= 0.5:
            raise ValueError(f"correction norm {q_norm:.3f} is not below 1/2")
        if q_norm > 0.0:
            work = apply_linear_map(body, np.eye(d) + q)
    out = radon_of_power(work, method=opts.method, normalize=corrected)
    gamma = 1.0 / out.meta["mean_power"] if corrected else 1.0
    rec = _state_record(out, m=-1, opts=opts, q=q, gamma=gamma,
                        trunc_loss=out.meta["trunc_loss"], l2_prev=l2_norm(dev))
    return out, rec


@dataclass(frozen=True)
class IterationReport:
    """Immutable record of a full run."""
    dim: int
    band_limit: int
    representation: str
    options: IterationOptions
    records: list[StepRecord]
    asymptotic_ratio: float
    monotone_after_first: bool
    stopped_reason: str


def run_iteration(body: StarBody, opts: IterationOptions) -> IterationReport:
    """Drive iterate_step until the L2 deviation falls below stop_tol or
    max_steps is reached.

    The report holds one record per state including the start (m = 0),
    the geometric mean of the last three step ratios, and whether the L2
    deviation was monotone after the first step.  A step that more than
    doubles the L2 deviation, or makes it NaN, raises DivergenceError with
    the partial report attached.
    """
    if not opts.raw_power_mode:
        body = _rescaled_to_mean_one(body)
    d = body.dim
    rep = body.representation
    records = [_state_record(body, m=0, opts=opts, q=np.zeros((d, d)),
                             gamma=1.0, trunc_loss=0.0, l2_prev=math.nan)]

    def close(reason: str) -> IterationReport:
        ratios = [r.ratio for r in records[1:] if not math.isnan(r.ratio)]
        tail = ratios[-3:]
        if not tail:
            asym = math.nan
        elif min(tail) == 0.0:
            asym = 0.0
        else:
            asym = math.exp(sum(math.log(x) for x in tail) / len(tail))
        l2s = [r.l2 for r in records]
        monotone = all(l2s[i + 1] <= l2s[i] for i in range(1, len(l2s) - 1))
        return IterationReport(
            dim=d, band_limit=body.band_limit, representation=rep,
            options=opts, records=records, asymptotic_ratio=asym,
            monotone_after_first=monotone, stopped_reason=reason)

    cur = body
    for m in range(1, opts.max_steps + 1):
        if records[-1].l2 < opts.stop_tol:
            return close("converged")
        prev_l2 = records[-1].l2
        cur, rec = iterate_step(cur, opts)
        records.append(replace(rec, m=m))
        if not rec.l2 <= 2.0 * prev_l2 and prev_l2 > 0.0:
            report = close("diverged")
            raise DivergenceError(
                f"L2 deviation grew from {prev_l2:.3e} to {rec.l2:.3e} "
                f"at step {m}; the start is outside the contraction "
                "regime for this band limit", report)
    if records[-1].l2 < opts.stop_tol:
        return close("converged")
    return close("max_steps")


# ---------------------------------------------------------------------------
# cap-family scaling experiment

@dataclass(frozen=True)
class CapScalingResult:
    """Log-log fit of the sup and gradient norms of a cap-bump family
    against its L2 norm, with the second derivative normalized to 1."""
    dim: int
    widths: np.ndarray
    l2_values: np.ndarray
    sup_values: np.ndarray
    grad_values: np.ndarray
    exponent_sup: float
    exponent_grad: float


def _bump_parts(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-u^2/(1-u^2)) and its first two derivatives on [0, 1)."""
    one = 1.0 - u * u
    g = -u * u / one
    gp = -2.0 * u / one**2
    gpp = -(2.0 + 6.0 * u * u) / one**3
    b = np.exp(g)
    return b, gp * b, (gpp + gp * gp) * b


def cap_scaling_exponents(d: int, widths=None, resolution: int = 4096) -> CapScalingResult:
    """Fit the growth exponents of the sup norm and the gradient sup norm
    against the L2 norm over a family of polar cap bumps.

    Each family member is a smooth bump of angular width w supported on
    the cap theta <= w, scaled so the largest second-derivative entry of
    its homogeneous extension is 1.  The expected exponents are
    4/(d+3) for the sup norm and 2/(d+3) for the gradient.
    """
    if d < 3:
        raise ValueError("the sphere dimension requires d >= 3")
    if widths is None:
        widths = np.geomspace(0.05, 0.4, 6)
    widths = np.asarray(widths, dtype=float)
    if widths.ndim != 1 or widths.size < 2:
        raise ValueError("need at least two widths to fit a slope")
    if np.any(widths <= 0.0) or np.any(widths >= math.pi / 2):
        raise ValueError("widths must lie in (0, pi/2)")
    if resolution < 64:
        raise ValueError("resolution below 64 cannot resolve the bump")
    area_const = math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    l2s, sups, grads = [], [], []
    for w in widths:
        theta = np.linspace(0.0, w, resolution)
        u = theta / w
        b = np.zeros_like(u)
        bp = np.zeros_like(u)
        bpp = np.zeros_like(u)
        inside = u < 1.0 - 1e-9
        b[inside], bp[inside], bpp[inside] = _bump_parts(u[inside])
        f_t = bp / w
        f_tt = bpp / (w * w)
        # cot(theta) f_theta in the azimuthal directions, f_thetatheta at the pole
        azim = np.concatenate((f_tt[:1], f_t[1:] / np.tan(theta[1:])))
        amp = 1.0 / _ambient_hessian_norm(f_t, 0.0, f_tt, 0.0, azim).max()
        density = area_const * np.sin(theta) ** (d - 2)
        l2s.append(amp * math.sqrt(float(np.trapezoid(b * b * density, theta))))
        sups.append(amp * float(b.max()))
        grads.append(amp * float(np.abs(f_t).max()))
    l2s = np.asarray(l2s)
    sups = np.asarray(sups)
    grads = np.asarray(grads)
    slope_sup = float(np.polyfit(np.log(l2s), np.log(sups), 1)[0])
    slope_grad = float(np.polyfit(np.log(l2s), np.log(grads), 1)[0])
    return CapScalingResult(
        dim=d, widths=widths, l2_values=l2s, sup_values=sups,
        grad_values=grads, exponent_sup=slope_sup, exponent_grad=slope_grad)
