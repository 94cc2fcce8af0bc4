"""Corrected fixed-point iteration around the ball.

One step of the scheme maps a mean-1 star body rho = 1 + phi through

    rho  ->  gamma * R((T rho)^(d-1)),    T = I + Q,

where Q is the traceless symmetric map whose quadratic form matches the
degree-2 component of phi (removing the neutral mode of the linearized
transform) and gamma rescales the output to surface mean 1; the operator
`bodies.intersection_body` is that rescaled transform.  The uncorrected
mode keeps Q = 0 (the paper's iteration up to dilation); the raw mode runs
rho -> R(rho^(d-1)) with no correction and no rescale (the operator's
output times the mean it divided by), so the mean drifts inside the power envelope.

The module also provides the cap family scaling experiment for the sup
and gradient norms against the L2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _decay_tail, l2_norm
from .bodies import (PositivityError, StarBody, _deviation, apply_linear_map,
                     intersection_body)
from .sphharm import sh_index
from .zonal import ZonalProfile


class _OutsideDomain(ValueError):
    """A step's input lies where the step is not defined; .reason is the
    stopped_reason of a run that reaches it after its start."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# degree-2 correction map

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

MODES = ("corrected", "uncorrected", "raw")


@dataclass(frozen=True)
class IterationOptions:
    """Controls for the corrected iteration.

    mode "corrected" applies the degree-2 correction map before each power
    step and rescales to mean 1; "uncorrected" only rescales; "raw" runs
    the bare recursion (no correction, no mean rescale).  track_decay_alpha
    adds the decay norm u_alpha to every step record (off by default).
    """
    mode: str = "corrected"
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
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class StepRecord:
    """Telemetry for state m of a run, `records[m]` (m = 0 is the start).

    l2 and sup are the norms of rho - 1; q_matrix is the degree-2
    correction the step applied (zero at m = 0 and unless corrected); gamma
    is the output rescale; ratio is l2 over that of the step's input (NaN at
    m = 0); trunc_loss is the coefficient mass cut by truncation; sup,
    min_radial and max_radial come from the state's one refined scan
    (`StarBody.deviation_scan`), the last two as 1 + the min and max of
    rho - 1 (`StarBody.radial_range`); u_alpha is the decay norm when tracked.
    """
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


def _state_record(body: StarBody, opts: IterationOptions,
                  q: np.ndarray, gamma: float, trunc_loss: float,
                  l2_prev: float) -> StepRecord:
    """Record of the state `body`; its ratio is its L2 deviation over
    l2_prev, the L2 deviation of the step's input (NaN for the start)."""
    dev = _deviation(body.profile)
    _, _, sup = body.deviation_scan  # raises PositivityError first, if it must
    lo, hi = body.radial_range
    u_alpha = None
    if opts.track_decay_alpha is not None:
        # approx_decay_norm(dev, alpha), reusing the sup norm of the record
        u_alpha = max(sup, _decay_tail(dev, opts.track_decay_alpha))
    l2 = l2_norm(dev)
    return StepRecord(l2=l2, sup=sup, q_matrix=q, gamma=gamma,
                      ratio=l2 / l2_prev if l2_prev > 0.0 else math.nan,
                      trunc_loss=trunc_loss, min_radial=lo, max_radial=hi, u_alpha=u_alpha)


def _rescaled_to_mean_one(body: StarBody) -> StarBody:
    c = np.array(body.profile.coeffs, dtype=float)
    if abs(c[0] - 1.0) < 1e-15:
        return body
    c /= c[0]
    return StarBody(body.profile.with_coeffs(c))


def iterate_step(body: StarBody, opts: IterationOptions) -> tuple[StarBody, StepRecord]:
    """One step of the scheme; returns the new body and its record.

    The corrected and uncorrected modes rescale the input to surface mean
    1, require the deviation from 1 to stay below 1/2 in sup norm, take
    the (d-1) power (of T rho when corrected), transform, and rescale the
    output to mean 1 (the rescale factor is the recorded gamma).  Raw mode
    skips the correction and both rescales.  The record's ratio is the L2
    deviation of the output over that of the input.  Two guards check the
    input and raise ValueError: a deviation from 1 of 1/2 or more, and a
    correction of norm 1/2 or more.  An input or output that is not
    positive on its refined set raises PositivityError.
    """
    d = body.profile.dim
    if opts.mode != "raw":
        body = _rescaled_to_mean_one(body)
        lo, hi = body.radial_range
        if max(abs(lo - 1.0), abs(hi - 1.0)) >= 0.5:
            raise _OutsideDomain(
                "left_domain", "the radial function deviates from 1 by 1/2 or more; "
                "the step is only defined near the ball")
    dev = _deviation(body.profile)
    q = np.zeros((d, d))
    work = body
    if opts.mode == "corrected":
        q = fit_degree2_correction(dev)
        q_norm = float(np.linalg.norm(q, 2))
        if q_norm >= 0.5:
            raise _OutsideDomain("correction_too_large",
                                 f"correction norm {q_norm:.3f} is not below 1/2")
        if q_norm > 0.0:
            work = apply_linear_map(body, np.eye(d) + q)
    out = intersection_body(work, method=opts.method)
    mean_power = out.meta["mean_power"]
    gamma = 1.0 / mean_power
    if opts.mode == "raw":
        # the raw transform R(rho^(d-1)) is mean_power times the operator
        out = StarBody(out.profile.with_coeffs(mean_power * out.profile.coeffs),
                       meta={"trunc_loss": mean_power * out.meta["trunc_loss"]})
        gamma = 1.0
    rec = _state_record(out, opts=opts, q=q, gamma=gamma,
                        trunc_loss=out.meta["trunc_loss"], l2_prev=l2_norm(dev))
    return out, rec


@dataclass(frozen=True)
class IterationReport:
    """Immutable record of a full run; detail is the message of an early
    stop, None when the run converged or reached max_steps."""
    records: list[StepRecord]
    asymptotic_ratio: float
    monotone_after_first: bool
    stopped_reason: str
    detail: str | None


def run_iteration(body: StarBody, opts: IterationOptions) -> IterationReport:
    """Drive iterate_step until the L2 deviation falls below stop_tol, or
    max_steps is reached, or a step stops the run early.

    The report holds one record per state, the start first, the
    geometric mean of the last three step ratios, and whether the L2
    deviation was monotone after the first step.  An early stop has its
    message in detail and its stopped_reason: "diverged" (a step more than
    doubled the L2 deviation or made it NaN), "nonpositive" (a step's output
    is not positive on its refined set), "left_domain" or
    "correction_too_large" (a later state failed a guard of iterate_step).
    Only a start that fails a guard or is not positive raises.
    """
    if opts.mode != "raw":
        body = _rescaled_to_mean_one(body)
    d = body.profile.dim
    records = [_state_record(body, opts=opts, q=np.zeros((d, d)),
                             gamma=1.0, trunc_loss=0.0, l2_prev=math.nan)]
    reason, detail = "max_steps", None
    for m in range(1, opts.max_steps + 1):
        prev_l2 = records[-1].l2
        if prev_l2 < opts.stop_tol:
            break
        try:
            body, rec = iterate_step(body, opts)
        except (_OutsideDomain, PositivityError) as exc:
            guard = isinstance(exc, _OutsideDomain)
            if guard and m == 1:
                raise  # the guards check a step's input, here the start
            reason, detail = exc.reason if guard else "nonpositive", f"{exc} at step {m}"
            break
        records.append(rec)
        if not rec.l2 <= 2.0 * prev_l2 and prev_l2 > 0.0:
            reason, detail = "diverged", (
                f"L2 deviation grew from {prev_l2:.3e} to {rec.l2:.3e} at step {m}; "
                "the start is outside the contraction regime for this band limit")
            break
    if detail is None and records[-1].l2 < opts.stop_tol:
        reason = "converged"
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
    return IterationReport(records=records, asymptotic_ratio=asym,
                           monotone_after_first=monotone,
                           stopped_reason=reason, detail=detail)


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


def _cap_hessian_norm(f_t, f_tt, azim) -> np.ndarray:
    """Largest |eigenvalue| of the ambient Hessian of a zonal function's
    homogeneous extension: [[0, -f_t], [-f_t, f_tt]] in the radial and polar
    directions, whose eigenvalues are (f_tt +- hypot(f_tt, 2 f_t)) / 2, and
    azim on each of the d - 2 azimuthal directions."""
    return np.maximum(np.abs(azim), 0.5 * (np.abs(f_tt) + np.hypot(f_tt, 2.0 * f_t)))


def cap_scaling_exponents(d: int, widths=None, resolution: int = 4096) -> CapScalingResult:
    """Fit the growth exponents of the sup norm and the gradient sup norm
    against the L2 norm over a family of polar cap bumps.

    Each family member is a smooth bump of angular width w supported on
    the cap theta <= w, scaled so the largest |eigenvalue| of the Hessian
    of its homogeneous extension is 1.  The expected exponents are
    4/(d+3) for the sup norm and 2/(d+3) for the gradient.
    """
    if d < 3:
        raise ValueError("the sphere dimension requires d >= 3")
    if widths is None:
        widths = np.geomspace(0.05, 0.4, 6)
    widths = np.asarray(widths, dtype=float)
    if widths.ndim != 1 or np.unique(widths).size < 2:
        raise ValueError("need at least two distinct widths to fit a slope")
    if np.any(widths <= 0.0) or np.any(widths >= math.pi / 2):
        raise ValueError("widths must lie in (0, pi/2)")
    if resolution < 64:
        raise ValueError("resolution below 64 cannot resolve the bump")
    area_const = math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    norms = np.empty((3, widths.size))  # L2, sup and gradient sup per width
    with np.errstate(all="ignore"):  # a width too small to represent is named below
        for i, w in enumerate(widths):
            theta = np.linspace(0.0, w, resolution)
            u = theta / w
            b, bp, bpp = np.zeros((3, resolution))
            inside = u < 1.0 - 1e-9
            b[inside], bp[inside], bpp[inside] = _bump_parts(u[inside])
            f_t, f_tt = bp / w, bpp / (w * w)
            # cot(theta) f_theta in the azimuthal directions, f_thetatheta at the pole
            azim = np.concatenate((f_tt[:1], f_t[1:] / np.tan(theta[1:])))
            amp = 1.0 / _cap_hessian_norm(f_t, f_tt, azim).max()
            l2 = np.sqrt(np.trapezoid(b * b * (area_const * np.sin(theta) ** (d - 2)), theta))
            norms[:, i] = amp * np.array((l2, b.max(), np.abs(f_t).max()))
    bad = ~np.all(np.isfinite(norms) & (norms > 0.0), axis=0)
    if bad.any():
        raise ValueError(f"widths {widths[bad].tolist()} are too small for floating point")
    l2s, sups, grads = norms
    slope_sup = float(np.polyfit(np.log(l2s), np.log(sups), 1)[0])
    slope_grad = float(np.polyfit(np.log(l2s), np.log(grads), 1)[0])
    return CapScalingResult(
        dim=d, widths=widths, l2_values=l2s, sup_values=sups,
        grad_values=grads, exponent_sup=slope_sup, exponent_grad=slope_grad)
