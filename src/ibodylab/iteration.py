"""Corrected fixed-point iteration around the ball.

One step of the scheme maps a mean-1 star body rho = 1 + phi through

    rho  ->  gamma * R((T rho)^(d-1)),    T = I + Q,

where Q is the traceless symmetric map whose quadratic form matches the
degree-2 component of phi (removing the neutral mode of the linearized
transform) and gamma rescales the output to surface mean 1.  A raw mode
runs the bare recursion rho -> R(rho^(d-1)) with no correction and no
rescale, which lets the mean drift inside the expected power envelope.

The module also provides the linearized per-degree multipliers, upper
bounds for the distance to the ball modulo linear maps, and the cap
family scaling experiment for the sup and gradient norms against the
L2 norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import _decay_tail, c2_norm, degree_energies, l2_norm, sup_norm
from .bodies import StarBody, apply_linear_map, radon_of_power
from .radon import radon_multiplier
from .sphharm import S2Function
from .zonal import ZonalProfile, analyze_zonal


class DivergenceError(RuntimeError):
    """L2 distance to the ball doubled in one step; the run left the
    contraction regime.  Carries the partial report in .report."""

    def __init__(self, message: str, report: "IterationReport"):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# degree-2 correction map

def _mean_zero_profile(f):
    """phi = f - mean(f), as a profile of the same representation."""
    c = np.array(f.coeffs, dtype=float)
    c[0] = 0.0
    return f.with_coeffs(c)


def _sym_basis_3d() -> list[np.ndarray]:
    """Frobenius-orthonormal basis of traceless symmetric 3x3 matrices."""
    r2, r6 = math.sqrt(2.0), math.sqrt(6.0)
    e = np.eye(3)
    basis = [
        np.diag([1.0, -1.0, 0.0]) / r2,
        np.diag([1.0, 1.0, -2.0]) / r6,
    ]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m = (np.outer(e[i], e[j]) + np.outer(e[j], e[i])) / r2
        basis.append(m)
    return basis


def fit_degree2_correction(phi) -> np.ndarray:
    """Traceless symmetric Q with (Qx, x) equal to the degree-2 harmonic
    component of phi on the unit sphere.

    The scale is calibrated at call time by fitting the known pair
    phi = x_d^2 - 1/d  ->  Q = diag(-1/d, ..., -1/d, (d-1)/d) in the same
    representation, so the result is immune to basis-normalization
    conventions.  phi must have zero mean.
    """
    coeffs = np.asarray(phi.coeffs, dtype=float)
    scale = max(1.0, float(np.sqrt((coeffs**2).sum())))
    if abs(float(coeffs[0])) > 1e-10 * scale:
        raise ValueError("degree-2 fit requires a mean-zero input")
    if isinstance(phi, ZonalProfile):
        d = phi.dim
        if phi.band_limit < 2:
            return np.zeros((d, d))
        cal = analyze_zonal(
            d, 2, phi.rule.nodes**2 - 1.0 / d, phi.rule)[2]
        q_axis = np.diag(np.full(d, -1.0 / d))
        q_axis[-1, -1] = (d - 1.0) / d
        return (float(coeffs[2]) / cal) * q_axis
    d = 3
    grid = phi.grid
    pts = grid.points()
    w = grid.weights
    vals = np.asarray(phi.values, dtype=float)
    cal_vals = pts[..., 2] ** 2 - 1.0 / 3.0

    def moment(v):
        m = np.einsum("tp,tpi,tpj->ij", w * v, pts, pts)
        return m - np.trace(m) / 3.0 * np.eye(3)

    m_cal = moment(cal_vals)
    c = (2.0 / 3.0) / m_cal[2, 2]
    return c * moment(vals)


def quadratic_form_profile(q: np.ndarray, like):
    """The restriction of x -> (qx, x) to the sphere, in the same
    representation as `like` (used by tests to verify the fit pointwise)."""
    q = np.asarray(q, dtype=float)
    if isinstance(like, ZonalProfile):
        a, b = float(q[0, 0]), float(q[-1, -1])
        t = like.rule.nodes
        vals = a * (1.0 - t * t) + b * t * t
        return ZonalProfile.from_values(like.dim, like.band_limit, vals, like.rule)
    pts = like.grid.points()
    vals = np.einsum("tpi,ij,tpj->tp", pts, q, pts)
    return S2Function.from_values(like.band_limit, vals, like.grid)


# ---------------------------------------------------------------------------
# one step and full runs

@dataclass(frozen=True)
class IterationOptions:
    """Controls for the corrected iteration.

    kill_h2 applies the degree-2 correction map before each power step;
    raw_power_mode runs the bare recursion instead (no correction, no
    mean rescale).  band_limit, when set, re-projects the starting body.
    track_decay_alpha and track_c2 add the corresponding norms to every
    step record (slower; off by default).
    """
    kill_h2: bool = True
    raw_power_mode: bool = False
    max_steps: int = 20
    stop_tol: float = 1e-12
    band_limit: int | None = None
    method: str = "spectral"
    track_decay_alpha: float | None = None
    track_c2: bool = False

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")
        if self.method not in ("spectral", "geometric"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class StepRecord:
    """Telemetry for one state of the run (m = 0 is the starting body)."""
    m: int
    l2: float
    sup: float
    energies: np.ndarray
    q_matrix: np.ndarray
    gamma: float
    ratio: float
    trunc_loss: float
    mean_radial: float
    min_radial: float
    max_radial: float
    u_alpha: float | None = None
    c2: float | None = None

    @property
    def q_norm(self) -> float:
        return float(np.linalg.norm(self.q_matrix, 2))


def _radial_range(body: StarBody) -> tuple[float, float]:
    vals = body.profile.refined_values()
    return float(vals.min()), float(vals.max())


def _state_record(body: StarBody, m: int, opts: IterationOptions,
                  q: np.ndarray, gamma: float, ratio: float,
                  trunc_loss: float) -> StepRecord:
    mean = float(np.asarray(body.profile.coeffs)[0])
    shift = np.array(body.profile.coeffs, dtype=float)
    shift[0] -= 1.0
    dev = body.profile.with_coeffs(shift)
    lo, hi = _radial_range(body)
    sup = sup_norm(dev)
    u_alpha = None
    if opts.track_decay_alpha is not None:
        # approx_decay_norm(dev, alpha), reusing the sup norm of the record
        u_alpha = max(sup, _decay_tail(dev, opts.track_decay_alpha))
    c2 = c2_norm(body.profile) if opts.track_c2 else None
    return StepRecord(
        m=m,
        l2=l2_norm(dev),
        sup=sup,
        energies=degree_energies(dev),
        q_matrix=q,
        gamma=gamma,
        ratio=ratio,
        trunc_loss=trunc_loss,
        mean_radial=mean,
        min_radial=lo,
        max_radial=hi,
        u_alpha=u_alpha,
        c2=c2,
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
    q = np.zeros((d, d))
    gamma = 1.0
    if opts.raw_power_mode:
        shift = np.array(body.profile.coeffs, dtype=float)
        shift[0] -= 1.0
        l2_prev = float(np.sqrt((shift**2).sum()))
        out = radon_of_power(body, method=opts.method, normalize=False)
    else:
        body = _rescaled_to_mean_one(body)
        lo, hi = _radial_range(body)
        if max(abs(lo - 1.0), abs(hi - 1.0)) >= 0.5:
            raise ValueError(
                "the radial function deviates from 1 by 1/2 or more; "
                "the corrected step is only defined near the ball")
        phi = _mean_zero_profile(body.profile)
        l2_prev = l2_norm(phi)
        work = body
        if opts.kill_h2:
            q = fit_degree2_correction(phi)
            q_norm = float(np.linalg.norm(q, 2))
            if q_norm >= 0.5:
                raise ValueError(
                    f"correction norm {q_norm:.3f} is not below 1/2")
            if q_norm > 0.0:
                work = apply_linear_map(body, np.eye(d) + q)
        out = radon_of_power(work, method=opts.method, normalize=True)
        gamma = 1.0 / out.meta["mean_power"]
    l2_new_shift = np.array(out.profile.coeffs, dtype=float)
    l2_new_shift[0] -= 1.0
    l2_new = float(np.sqrt((l2_new_shift**2).sum()))
    ratio = l2_new / l2_prev if l2_prev > 0.0 else math.nan
    rec = _state_record(out, m=-1, opts=opts, q=q, gamma=gamma,
                        ratio=ratio, trunc_loss=out.meta["trunc_loss"])
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

    def to_json_dict(self) -> dict:
        steps = []
        for r in self.records:
            row = {
                "m": r.m,
                "l2": r.l2,
                "sup": r.sup,
                "ratio": None if math.isnan(r.ratio) else r.ratio,
                "gamma": r.gamma,
                "q_norm": r.q_norm,
                "q_matrix": np.asarray(r.q_matrix).tolist(),
                "trunc_loss": r.trunc_loss,
                "energies": np.asarray(r.energies).tolist(),
                "mean_radial": r.mean_radial,
                "min_radial": r.min_radial,
                "max_radial": r.max_radial,
            }
            if r.u_alpha is not None:
                row["u_alpha"] = r.u_alpha
            if r.c2 is not None:
                row["c2"] = r.c2
            steps.append(row)
        ratio = self.asymptotic_ratio
        return {
            "schema_version": 1,
            "kind": "iteration_report",
            "dim": self.dim,
            "band_limit": self.band_limit,
            "representation": self.representation,
            "kill_h2": self.options.kill_h2,
            "raw_power_mode": self.options.raw_power_mode,
            "asymptotic_ratio": None if math.isnan(ratio) else ratio,
            "monotone_after_first": self.monotone_after_first,
            "stopped_reason": self.stopped_reason,
            "steps": steps,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["m,l2,sup,ratio,gamma,q_norm,trunc_loss"]
        for r in self.records:
            ratio = "" if math.isnan(r.ratio) else repr(r.ratio)
            lines.append(",".join([
                str(r.m), repr(r.l2), repr(r.sup), ratio,
                repr(r.gamma), repr(r.q_norm), repr(r.trunc_loss),
            ]))
        return "\n".join(lines) + "\n"


def _reprojected(body: StarBody, band_limit: int) -> StarBody:
    f = body.profile
    if band_limit == f.band_limit:
        return body
    # both layouts list the coefficients by increasing degree
    c = np.zeros(band_limit + 1 if f.representation == "zonal" else (band_limit + 1) ** 2)
    kept = f.coeffs[f.degrees <= band_limit]
    c[:kept.size] = kept
    return StarBody(f.with_coeffs(c), meta=dict(body.meta))


def run_iteration(body: StarBody, opts: IterationOptions) -> IterationReport:
    """Drive iterate_step until the L2 deviation falls below stop_tol or
    max_steps is reached.

    The report holds one record per state including the start (m = 0),
    the geometric mean of the last three step ratios, and whether the L2
    deviation was monotone after the first step.  A step that more than
    doubles the L2 deviation raises DivergenceError with the partial
    report attached.
    """
    if opts.band_limit is not None:
        body = _reprojected(body, opts.band_limit)
    if not opts.raw_power_mode:
        body = _rescaled_to_mean_one(body)
    d = body.dim
    rep = body.representation
    records = [_state_record(body, m=0, opts=opts, q=np.zeros((d, d)),
                             gamma=1.0, ratio=math.nan, trunc_loss=0.0)]

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
        if rec.l2 > 2.0 * prev_l2 and prev_l2 > 0.0:
            report = close("diverged")
            raise DivergenceError(
                f"L2 deviation grew from {prev_l2:.3e} to {rec.l2:.3e} "
                f"at step {m}; the start is outside the contraction "
                "regime for this band limit", report)
    if records[-1].l2 < opts.stop_tol:
        return close("converged")
    return close("max_steps")


def linearized_spectrum(d: int, band_limit: int) -> np.ndarray:
    """Per-degree multipliers of the linearization at the ball: the
    transform multiplier times (d-1), zero on odd degrees.  Entry 2 is
    -1 (the neutral mode) and entry 4 has the largest magnitude 3/(d+1)
    among degrees 4 and up."""
    return (d - 1.0) * radon_multiplier(d, band_limit)


# ---------------------------------------------------------------------------
# distance-to-ball proxies

def _q_from_params(params: np.ndarray, d: int, zonal: bool) -> np.ndarray:
    if zonal:
        q_axis = np.diag(np.full(d, -1.0 / d))
        q_axis[-1, -1] = (d - 1.0) / d
        return float(params[0]) * q_axis
    basis = _sym_basis_3d()
    return sum(float(p) * b for p, b in zip(params, basis))


def _params_from_q(q: np.ndarray, d: int, zonal: bool) -> np.ndarray:
    if zonal:
        return np.array([float(q[-1, -1]) * d / (d - 1.0)])
    return np.array([float(np.tensordot(q, b)) for b in _sym_basis_3d()])


def ball_distance_proxies(body: StarBody, budget: int = 200) -> tuple[float, float]:
    """Upper bounds for the L2 and sup distances to the ball modulo
    invertible linear maps.

    Evaluates ||rho_T / mean - 1|| for T = I (identity), T = I + Q from
    the degree-2 fit, and a short coordinate descent over symmetric
    traceless Q near the fit (at most `budget` evaluations), returning
    the smallest value seen for each norm.  These are upper bounds for
    the true infimum over all of GL(d), not the infimum itself.
    """
    f = _rescaled_to_mean_one(body).profile
    d = body.dim
    zonal = isinstance(f, ZonalProfile)
    nparams = 1 if zonal else 5
    best = {"l2": math.inf, "sup": math.inf}
    evals = 0

    def objective(params: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        q = _q_from_params(params, d, zonal)
        if np.linalg.norm(q, 2) >= 0.5:
            return math.inf
        g = apply_linear_map(f, np.eye(d) + q) if np.any(params) else f
        c = np.array(g.coeffs, dtype=float)
        c /= c[0]
        c[0] -= 1.0
        dev = g.with_coeffs(c)
        l2 = l2_norm(dev)
        best["l2"] = min(best["l2"], l2)
        best["sup"] = min(best["sup"], sup_norm(dev))
        return l2

    x = np.zeros(nparams)
    f0 = objective(x)
    phi = _mean_zero_profile(f)
    q_fit = fit_degree2_correction(phi)
    x_fit = _params_from_q(q_fit, d, zonal)
    f_fit = objective(x_fit)
    if f_fit < f0:
        x, fx = x_fit.copy(), f_fit
    else:
        fx = f0
    h = max(1e-3, float(np.abs(x_fit).max()) * 0.5)
    for _ in range(4):
        for i in range(nparams):
            if evals + 3 > budget:
                return best["l2"], best["sup"]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fp, fm = objective(xp), objective(xm)
            denom = fp - 2.0 * fx + fm
            if math.isfinite(denom) and denom > 0.0:
                step = 0.5 * h * (fm - fp) / denom
                step = float(np.clip(step, -h, h))
            else:
                step = -h if fp > fm else h
            xn = x.copy()
            xn[i] += step
            fn = objective(xn)
            if fn < fx:
                x, fx = xn, fn
        h *= 0.35
    return best["l2"], best["sup"]


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
        block = 0.5 * np.abs(f_tt) + np.sqrt(0.25 * f_tt**2 + f_t**2)
        azim = np.empty_like(theta)
        azim[0] = abs(f_tt[0])
        azim[1:] = np.abs(f_t[1:] / np.tan(theta[1:]))
        d2 = max(block.max(), azim.max())
        amp = 1.0 / d2
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
