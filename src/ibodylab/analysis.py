"""Norms, degree spectra, multiplier operators, and derivative bounds.

Functions here accept either representation through the interface that
ZonalProfile and S2Function share (coeffs, degrees, with_coeffs, energies,
refined_set, refined_values); only the sup-norm scan and the derivative
norms, whose algorithms differ, look at which one they got.  Sup norms
are measured on the profile's refined evaluation set (4x finer than its
storage rule or grid) plus a local quadratic polish around the best node.
Second differentials refer to the degree-0 homogeneous extension
f(x/|x|) of a function on the sphere: its ambient Hessian at a surface
point has the tangential covariant Hessian as one block, minus the surface
gradient as the mixed radial-tangential entries, and zero radially.
"""

from __future__ import annotations

import numpy as np

from .sphharm import S2Function, eval_s2_at_points, tangent_frame
from .zonal import ZonalProfile


# ---------------------------------------------------------------------------
# coefficient-space basics

def degree_energies(f) -> np.ndarray:
    """Energy per harmonic degree, e_k = squared coefficient mass at degree k."""
    return f.energies()


def l2_norm(f) -> float:
    """L^2 norm for the unit-mass surface measure (Parseval, exact in coeffs)."""
    return float(np.sqrt(f.energies().sum()))


def mean_value(f) -> float:
    """Surface average; the coefficient of the constant basis element."""
    return float(f.coeffs[0])


def project_degree(f, k: int):
    """The degree-k component of f, same representation."""
    if k > f.band_limit:
        raise ValueError(f"degree {k} exceeds band limit {f.band_limit}")
    return f.with_coeffs(np.where(f.degrees == k, f.coeffs, 0.0))


def _multiplier_values(m, kmax: int) -> np.ndarray:
    if callable(m):
        return np.array([float(m(k)) for k in range(kmax + 1)])
    if isinstance(m, dict):
        return np.array([float(m.get(k, 0.0)) for k in range(kmax + 1)])
    arr = np.asarray(m, dtype=float)
    if arr.size < kmax + 1:
        raise ValueError(f"multiplier array too short for band limit {kmax}")
    return arr[:kmax + 1]


def apply_multiplier(f, m):
    """Multiply the degree-k coefficients by m(k); exact in coefficient space.

    `m` may be a callable, a dict, or an array indexed by degree.
    """
    vals = _multiplier_values(m, f.band_limit)
    return f.with_coeffs(f.coeffs * vals[f.degrees])


# ---------------------------------------------------------------------------
# smooth cutoff

def cutoff_profile(s):
    """Smooth step: 1 on (-inf, 1], 0 on [2, inf), C-infinity, monotone,
    symmetric about 3/2 where it equals 1/2 exactly.

    Built from the bump integral quotient B(2-s) / (B(2-s) + B(s-1)) with
    B(u) = exp(-1/u).
    """
    s = np.asarray(s, dtype=float)
    out = np.where(s <= 1.0, 1.0, 0.0)
    mid = (s > 1.0) & (s < 2.0)
    if np.any(mid):
        u = 2.0 - s[mid]
        bu = np.exp(-1.0 / u)
        bv = np.exp(-1.0 / (1.0 - u))
        out = out.astype(float)
        out[mid] = bu / (bu + bv)
    return out if out.shape else float(out)


def smooth_cutoff(n: int):
    """Degree multiplier k -> cutoff_profile(k / n): identity on degrees <= n,
    zero from degree 2n on, smooth in between."""
    if int(n) != n or n < 1:
        raise ValueError(f"cutoff scale must be a positive integer, got {n}")

    def m(k):
        return cutoff_profile(np.asarray(k, dtype=float) / float(n))

    return m


# ---------------------------------------------------------------------------
# sup norms

def _polish_max(ts: np.ndarray, vals: np.ndarray, evaluator) -> float:
    """One quadratic polish around the best sample of `vals` (a 1d scan)."""
    i = int(np.argmax(vals))
    best = float(vals[i])
    if 0 < i < vals.size - 1:
        t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
        v0, v1, v2 = vals[i - 1], vals[i], vals[i + 1]
        denom = (v0 - 2.0 * v1 + v2)
        if denom < -1e-300:
            # vertex of the parabola through the three samples
            tv = t1 + 0.5 * (v0 - v2) / denom * 0.5 * (t2 - t0)
            tv = min(max(tv, t0), t2)
            best = max(best, float(evaluator(tv)))
    return best


def sup_norm(f, refine: int = 4) -> float:
    """Sup of |f| on the refined evaluation set plus a quadratic polish."""
    vals = f.refined_values(refine)
    if isinstance(f, ZonalProfile):
        ts = f.refined_set(refine)
        up = _polish_max(ts, vals, f.eval_at)
        dn = _polish_max(ts, -vals, lambda t: -f.eval_at(t))
        return max(up, dn)
    best = float(np.abs(vals).max())
    # polish along the colatitude scan through the best grid node (the
    # poles, which close the refined set, are not grid nodes)
    fine = f.refined_grid(refine)
    grid_vals = vals[:fine.weights.size].reshape(fine.weights.shape)
    i, j = np.unravel_index(np.argmax(np.abs(grid_vals)), grid_vals.shape)
    sgn = float(np.sign(grid_vals[i, j])) or 1.0
    theta = np.arccos(fine.x)
    phi = fine.phi[j]

    def along_theta(th):
        p = np.array([np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi), np.cos(th)])
        return sgn * float(f.eval_at_points(p[None, :])[0])

    return max(best, _polish_max(theta, sgn * grid_vals[:, j], along_theta))


# ---------------------------------------------------------------------------
# polynomial-approximation norm

def approx_decay_norm(f, alpha: float, n_max: int | None = None) -> float:
    """Least M with sup|f| <= M and ||f - (truncation at degree n)||_2
    <= M n^(-alpha) for 1 <= n <= n_max.

    The degree-n L^2 truncation is the best polynomial approximant, so the
    tails are tail_n = sqrt(sum of energies above degree n).
    """
    return max(sup_norm(f), _decay_tail(f, alpha, n_max))


def _decay_tail(f, alpha: float, n_max: int | None = None) -> float:
    """max over 1 <= n <= n_max of n^alpha tail_n (0 with no such n)."""
    if n_max is None:
        n_max = f.band_limit
    e = f.energies()
    tails_sq = np.concatenate((np.cumsum(e[::-1])[::-1], [0.0]))[1:]  # tail after n, n=0..
    ns = np.arange(1, min(n_max, f.band_limit) + 1, dtype=float)
    tail_terms = ns**alpha * np.sqrt(np.maximum(tails_sq[1:len(ns) + 1], 0.0))
    return float(tail_terms.max()) if tail_terms.size else 0.0


# ---------------------------------------------------------------------------
# derivative sup norms (first and second differentials of the extension)

def _zonal_hessian_parts(f: ZonalProfile, t: np.ndarray, method: str, step: float):
    """(|grad|, operator norm of ambient Hessian) at zonal points t."""
    t = np.asarray(t, dtype=float)
    if method == "analytic":
        _, fp, fpp = f.derivatives_at(t)
        s2 = 1.0 - t * t
        f_th = -np.sqrt(np.clip(s2, 0.0, None)) * fp          # d/dtheta
        f_thth = -t * fp + s2 * fpp                            # d2/dtheta2
        azim = -t * fp                                         # cot(theta) * f_th
    elif method == "fd":
        th = np.arccos(np.clip(t, -1.0, 1.0))
        fv = lambda a: f.eval_at(np.cos(a))
        f_th = (fv(th + step) - fv(th - step)) / (2.0 * step)
        f_thth = (fv(th + step) - 2.0 * fv(th) + fv(th - step)) / step**2
        # away from the poles cot(theta) f_th is smooth; fall back to the
        # meridian second derivative in the polar limit
        s = np.sin(th)
        azim = np.where(s > 1e-6, np.cos(th) / np.maximum(s, 1e-300) * f_th, f_thth)
    else:
        raise ValueError(f"unknown derivative method {method!r}")
    # 2x2 block [[0, -f_th], [-f_th, f_thth]] plus (d-2) azimuthal directions
    block = 0.5 * np.abs(f_thth) + np.sqrt(0.25 * f_thth**2 + f_th**2)
    return np.abs(f_th), np.maximum(block, np.abs(azim))


def _s2_fd_parts(f: S2Function, pts: np.ndarray, step: float):
    """FD gradient norm and Hessian operator norm of f(x/|x|) at unit points."""
    pts = pts.reshape(-1, 3)
    n = pts.shape[0]
    ev = lambda p: eval_s2_at_points(f.coeffs, p / np.linalg.norm(p, axis=-1, keepdims=True))
    eye = np.eye(3)
    plus = np.stack([ev(pts + step * eye[i]) for i in range(3)])
    minus = np.stack([ev(pts - step * eye[i]) for i in range(3)])
    center = ev(pts)
    grad = (plus - minus) / (2.0 * step)
    hess = np.zeros((n, 3, 3))
    for i in range(3):
        hess[:, i, i] = (plus[i] - 2.0 * center + minus[i]) / step**2
    for i in range(3):
        for j in range(i + 1, 3):
            pp = ev(pts + step * (eye[i] + eye[j]))
            pm = ev(pts + step * (eye[i] - eye[j]))
            mp = ev(pts - step * (eye[i] - eye[j]))
            mm = ev(pts - step * (eye[i] + eye[j]))
            hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4.0 * step**2)
    gnorm = np.linalg.norm(grad, axis=0)
    hnorm = np.abs(np.linalg.eigvalsh(hess)).max(axis=1)
    return gnorm, hnorm


CIRCLE_BLOCK = 1024  # points per batch of great circles in _s2_spectral_parts


def _s2_spectral_parts(f: S2Function, pts: np.ndarray):
    """Exact great-circle differentiation (trig-polynomial DFT) at unit points.

    Restricted to a great circle through x a band-L function is a degree-L
    trigonometric polynomial, so derivatives at the point are exact up to
    roundoff.  Used as the independent cross-check of the FD path.  Points
    go CIRCLE_BLOCK at a time to bound the memory of the circles.
    """
    M = 2 * f.band_limit + 9
    s = 2.0 * np.pi * np.arange(M) / M
    cs, sn = np.cos(s)[:, None, None], np.sin(s)[:, None, None]
    m = np.arange(M // 2 + 1)[1:, None]
    gnorm = np.empty(len(pts))
    hnorm = np.empty(len(pts))

    def circle_derivs(x, w):
        vals = f.eval_at_points(cs * x + sn * w)           # (M, n)
        F = np.fft.rfft(vals, axis=0)[1:] / M
        return (-2.0 * F.imag * m).sum(axis=0), (-2.0 * F.real * m * m).sum(axis=0)

    for lo in range(0, len(pts), CIRCLE_BLOCK):
        x = pts[lo:lo + CIRCLE_BLOCK]
        u, v = tangent_frame(x)
        du, huu = circle_derivs(x, u)
        dv, hvv = circle_derivs(x, v)
        _, hdiag = circle_derivs(x, (u + v) / np.sqrt(2.0))
        huv = hdiag - 0.5 * (huu + hvv)
        zero = np.zeros_like(du)
        hess = np.stack([
            np.stack([zero, -du, -dv], axis=-1),
            np.stack([-du, huu, huv], axis=-1),
            np.stack([-dv, huv, hvv], axis=-1),
        ], axis=-2)
        gnorm[lo:lo + CIRCLE_BLOCK] = np.hypot(du, dv)
        hnorm[lo:lo + CIRCLE_BLOCK] = np.abs(np.linalg.eigvalsh(hess)).max(axis=1)
    return gnorm, hnorm


def derivative_sup_norms(f, method: str | None = None, refine: int = 4,
                         step: float = 1e-4) -> tuple[float, float]:
    """(sup |Df|, sup |D^2 f|) of the homogeneous extension of f.

    Zonal profiles default to analytic differentiation of the basis
    recurrence; S^2 functions default to centered finite differences of the
    extension (`method="spectral"` runs the exact great-circle path, which
    is slower).
    """
    pts = f.refined_set(refine)
    if isinstance(f, ZonalProfile):
        method = method or "analytic"
        g, h = _zonal_hessian_parts(f, pts, method, step)
        g_at = lambda t: float(_zonal_hessian_parts(f, np.atleast_1d(t), method, step)[0][0])
        h_at = lambda t: float(_zonal_hessian_parts(f, np.atleast_1d(t), method, step)[1][0])
        return _polish_max(pts, g, g_at), _polish_max(pts, h, h_at)
    method = method or "fd"
    if method == "fd":
        g, h = _s2_fd_parts(f, pts, step)
    elif method == "spectral":
        g, h = _s2_spectral_parts(f, pts)
    else:
        raise ValueError(f"unknown derivative method {method!r}")
    return float(g.max()), float(h.max())


def c2_norm(f, **kw) -> float:
    """C^2 proxy: max of sup |f|, sup |Df|, sup |D^2 f|."""
    d1, d2 = derivative_sup_norms(f, **kw)
    return max(sup_norm(f), d1, d2)
