"""Norms and multiplier operators.

Functions here accept either representation through the interface that
ZonalProfile and S2Function share, and none looks at which one it got.
Sup norms read one refined scan (`refined_extremes`): the profile's
`_refined_scan` gives the min and max on its refined evaluation set (REFINE
= 4 times finer than its storage rule or grid) and the lines along which
`_polish_max` adds a quadratic polish around the best node.
"""

from __future__ import annotations

import numpy as np


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

def _polish_max(ts: np.ndarray, vals: np.ndarray, i: int, evaluator) -> float:
    """One quadratic polish around vals[i], the largest sample of a 1d scan."""
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


def refined_extremes(f) -> tuple[float, float, float]:
    """(min, max, sup |f|) of f on its refined evaluation set, from one
    `_refined_scan`; the sup adds a quadratic polish along each of the
    scan's lines (samples, values, index of the largest, evaluator)."""
    lo, hi, lines = f._refined_scan()
    sup = max(hi, -lo)
    for line in lines:
        sup = max(sup, _polish_max(*line))
    return lo, hi, sup


def sup_norm(f) -> float:
    """Sup of |f| on the refined evaluation set plus a quadratic polish."""
    return refined_extremes(f)[2]


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
