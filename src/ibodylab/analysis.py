"""Norms, multiplier operators, and derivative bounds.

Functions here accept either representation through the interface that
ZonalProfile and S2Function share (coeffs, degrees, with_coeffs, energies,
refined_set, refined_values); only the sup-norm scan and the derivative
norms, whose algorithms differ, look at which one they got.  Both are
measured on the profile's refined evaluation set (REFINE = 4 times finer
than its storage rule or grid); sup norms add a quadratic polish around the
best node.  Derivatives are exact up to roundoff, never finite differences,
and refer to the degree-0 homogeneous extension f(x/|x|): its ambient
Hessian at a surface point has the covariant Hessian as tangential block,
minus the surface gradient as the radial-tangential entries, and zero
radially; `_ambient_hessian_norm` assembles it.
"""

from __future__ import annotations

import numpy as np

from .quadrature import S2Grid
from .sphharm import S2Function, _grid_tables, _order_slots
from .zonal import ZonalProfile


# ---------------------------------------------------------------------------
# coefficient-space basics

def l2_norm(f) -> float:
    """L^2 norm for the unit-mass surface measure (Parseval, exact in coeffs)."""
    return float(np.sqrt(f.energies().sum()))


def apply_multiplier(f, m):
    """Multiply the degree-k coefficients by m(k); exact in coefficient space.

    `m` is called once, on the array of degrees 0..K, and must return one
    value per degree.
    """
    vals = np.asarray(m(np.arange(f.band_limit + 1)), dtype=float)
    if vals.shape != (f.band_limit + 1,):
        raise ValueError(f"multiplier returned shape {vals.shape}, "
                         f"expected ({f.band_limit + 1},)")
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
            # the scan may run either way (S^2 colatitudes decrease)
            tv = min(max(tv, min(t0, t2)), max(t0, t2))
            best = max(best, float(evaluator(tv)))
    return best


def sup_norm(f) -> float:
    """Sup of |f| on the refined evaluation set plus a quadratic polish."""
    vals = f.refined_values()
    if isinstance(f, ZonalProfile):
        ts = f.refined_set()
        up = _polish_max(ts, vals, f.eval_at)
        dn = _polish_max(ts, -vals, lambda t: -f.eval_at(t))
        return max(up, dn)
    best = float(np.abs(vals).max())
    # polish along the colatitude scan through the best grid node (the
    # poles, which close the refined set, are not grid nodes)
    fine = f.refined_grid()
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

def approx_decay_norm(f, alpha: float) -> float:
    """Least M with sup|f| <= M and ||f - (truncation at degree n)||_2
    <= M n^(-alpha) for every n >= 1.

    The degree-n L^2 truncation is the best polynomial approximant, so the
    tails are tail_n = sqrt(sum of energies above degree n); they vanish
    from the band limit on.  A non-finite alpha raises ValueError.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"decay exponent {alpha!r} is not finite")
    return max(sup_norm(f), _decay_tail(f, alpha))


def _decay_tail(f, alpha: float) -> float:
    """max over the n >= 1 with tail_n > 0 of n^alpha tail_n (0 with no such
    n); n^alpha may overflow to inf, which then is the maximum."""
    e = f.energies()
    tails = np.sqrt(np.cumsum(e[::-1])[::-1][2:])  # tail after n, n = 1..K-1
    live = tails > 0.0
    with np.errstate(over="ignore"):
        tail_terms = (np.flatnonzero(live) + 1.0) ** alpha * tails[live]
    return float(tail_terms.max()) if tail_terms.size else 0.0


# ---------------------------------------------------------------------------
# derivative sup norms (first and second differentials of the extension)

HESSIAN_BLOCK = 65536  # points per eigvalsh batch in _ambient_hessian_norm


def _ambient_hessian_norm(g1, g2, h11, h12, h22) -> np.ndarray:
    """Largest |eigenvalue| of the ambient Hessian of f(x/|x|) at unit points,
    from the surface gradient (g1, g2) and covariant Hessian [[h11, h12],
    [h12, h22]] in an orthonormal tangent frame (radial row: 0, -g1, -g2).
    The 3x3 matrices are stacked for all points at once, so callers pass
    at most HESSIAN_BLOCK points (`_s2_grid_parts` goes a block of grid
    rows at a time), which bounds their memory."""
    g1, g2, h11, h12, h22 = np.broadcast_arrays(g1, g2, h11, h12, h22)
    hess = np.stack([
        np.stack([np.zeros_like(g1), -g1, -g2], axis=-1),
        np.stack([-g1, h11, h12], axis=-1),
        np.stack([-g2, h12, h22], axis=-1),
    ], axis=-2)
    return np.abs(np.linalg.eigvalsh(hess)).max(axis=-1)


def _zonal_hessian_parts(f: ZonalProfile, t: np.ndarray):
    """(|grad|, operator norm of ambient Hessian) at zonal points t, from
    `ZonalProfile.derivatives_at`; the d - 2 azimuthal directions share
    the eigenvalue cot(theta) f_theta = -t f'."""
    t = np.asarray(t, dtype=float)
    _, fp, fpp = f.derivatives_at(t)
    s2 = 1.0 - t * t
    f_th = -np.sqrt(np.clip(s2, 0.0, None)) * fp          # d/dtheta
    f_thth = -t * fp + s2 * fpp                            # d2/dtheta2
    return np.abs(f_th), _ambient_hessian_norm(f_th, 0.0, f_thth, 0.0, -t * fp)


def _s2_grid_parts(f: S2Function, grid: S2Grid):
    """(|grad|, operator norm of ambient Hessian) on a product grid, exact.

    With x = cos theta and s = sin theta > 0 (a product grid holds no pole),
    dQ_lm/dtheta = (l x Q_lm - r_lm Q_{l-1,m}) / s, r_lm^2 = (2l+1)(l^2-m^2)
    / (2l-1), and Legendre's equation Q'' = -(x/s) Q' - (l(l+1) - m^2/s^2) Q
    give the colatitude derivatives from the per-order blocks of synthesis;
    d/dphi multiplies order m by m and swaps cosine and sine.  The sums
    over longitude go about HESSIAN_BLOCK points (whole colatitude rows) at
    a time, which bounds the memory of the derivative arrays.
    """
    L = f.band_limit
    q, cos_t, sin_t = _grid_tables(L, grid)
    m = np.arange(L + 1)
    x = grid.x[:, None]
    s = np.sqrt(1.0 - x * x)
    # [cosine, sine] x colatitude x order: sums of c Q, c dQ/dtheta, c l(l+1) Q
    a, b, c = np.zeros((3, 2, grid.n_theta, L + 1))
    for k, qm in enumerate(q):
        cos_i, sin_i, scale = _order_slots(L, k)
        cm = scale * f.coeffs[np.stack((cos_i, sin_i))]
        l = np.arange(k, L + 1.0)
        r = np.sqrt((2.0 * l[1:] + 1.0) * (l[1:] ** 2 - k * k) / (2.0 * l[1:] - 1.0))
        a[:, :, k] = cm @ qm
        b[:, :, k] = (cm * l) @ qm * grid.x - (cm[:, 1:] * r) @ qm[:-1]
        c[:, :, k] = (cm * l * (l + 1.0)) @ qm
    b /= s
    c = -(x / s) * b - c + (m / s) ** 2 * a               # Legendre's equation
    lon_sum = lambda p: p[0] @ cos_t + p[1] @ sin_t
    d_phi = lambda p: np.stack((m * p[1], -m * p[0]))
    gnorm, hnorm = np.empty((2,) + grid.weights.shape)
    rows = max(1, HESSIAN_BLOCK // grid.n_phi)
    for lo in range(0, grid.n_theta, rows):
        blk = slice(lo, lo + rows)
        ab, bb, xb, sb = a[:, blk], b[:, blk], x[blk], s[blk]
        f_t, f_tt = lon_sum(bb), lon_sum(c[:, blk])
        f_p, f_tp, f_pp = lon_sum(d_phi(ab)), lon_sum(d_phi(bb)), lon_sum(d_phi(d_phi(ab)))
        g2 = f_p / sb
        gnorm[blk] = np.hypot(f_t, g2)
        hnorm[blk] = _ambient_hessian_norm(f_t, g2, f_tt, (f_tp - xb * g2) / sb,
                                           f_pp / (sb * sb) + (xb / sb) * f_t)
    return gnorm, hnorm


def _s2_pole_parts(f: S2Function):
    """(|grad|, ambient Hessian norm) at the north and south poles, in closed
    form in the frame (e_1, e_2): there only order 1 has a gradient, and only
    orders 0 (Q_l0'' = -sqrt(2l+1) l(l+1)/2 at theta = 0) and 2 a Hessian."""
    k = np.arange(f.band_limit + 1)
    c = lambda m: np.where(k >= abs(m), f.coeffs[np.maximum(k * k + k + m, 0)], 0.0)
    q = np.sqrt(2.0 * k + 1.0) * np.stack((np.ones(k.size), (-1.0) ** k))  # north, south
    d1 = q * np.sqrt(k * (k + 1.0) / 2.0) * [[1.0], [-1.0]]
    d2 = q * np.sqrt(2.0 * np.maximum(k - 1.0, 0.0) * k * (k + 1.0) * (k + 2.0)) / 8.0
    g1, g2 = d1 @ c(1), d1 @ c(-1)
    h0, a, b = -(q * k * (k + 1.0) / 2.0) @ c(0), d2 @ c(2), d2 @ c(-2)
    return np.hypot(g1, g2), _ambient_hessian_norm(g1, g2, h0 + 2.0 * a, 2.0 * b, h0 - 2.0 * a)


def derivative_sup_norms(f) -> tuple[float, float]:
    """(sup |Df|, sup |D^2 f|) of the homogeneous extension of f, exact up
    to roundoff on the refined set.

    Zonal profiles take f' and f'' from `derivatives_at` and polish the
    best node; S^2 functions differentiate the synthesis on the refined grid
    and take the poles in closed form.
    """
    if isinstance(f, ZonalProfile):
        pts = f.refined_set()
        g, h = _zonal_hessian_parts(f, pts)
        g_at = lambda t: float(_zonal_hessian_parts(f, np.atleast_1d(t))[0][0])
        h_at = lambda t: float(_zonal_hessian_parts(f, np.atleast_1d(t))[1][0])
        return _polish_max(pts, g, g_at), _polish_max(pts, h, h_at)
    g, h = _s2_grid_parts(f, f.refined_grid())
    gp, hp = _s2_pole_parts(f)
    return float(max(g.max(), gp.max())), float(max(h.max(), hp.max()))
