"""Orthonormal zonal basis on S^(d-1) and band-limited zonal profiles.

Z_0, Z_1, ... are the orthonormal polynomials of the normalized zonal weight
c (1 - t^2)^((d-3)/2) dt on [-1, 1]; Z_0 = 1.  Restricted to functions of
t = <x, axis> they represent the rotation-invariant part of the degree-k
spherical-harmonic spaces, so every per-degree operator used in this package
(Radon multipliers, cutoffs, projections) acts diagonally on the
coefficients computed here.

Evaluation runs the symmetric three-term recurrence of the orthonormal
family, stable to degrees in the hundreds.  One private generator,
`_basis_rows`, yields its rows Z_k(t) one degree at a time, and every value
path reads it.  A storage rule (order 2K + 8) and its refined set (poles
included) have read-only basis tables, cached per rule and band limit.
Other rules, as the work rule of `power(p)`, keep no table: they analyse by
`_folded_analysis`, under a one-slot head table (`_work_head`), and
synthesize by `eval_at`, which runs in bounded chunks for an array and in
Python floats for a scalar height (the sup-norm polish).  A state is scanned
once: `_refined_scan` is one product with the refined table, which
`bodies.StarBody.deviation_scan` reads for the sup norm, range and positivity.

A second generator, `_even_rows`, yields the even rows alone, from the
squared recurrence in u = t^2; the geometric Radon route builds its
operator from them (`radon._zonal_operator`).  Like `_basis_rows`, it
reads its coefficients from `recurrence_offdiag`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import ClassVar

import numpy as np

from .quadrature import REFINE, JacobiRule, gauss_jacobi_rule, recurrence_offdiag

_CHUNK = 16384  # points per basis table in _series, up to band 256
_POWER_BLOCK = 64  # basis rows per block of the streamed _folded_analysis
_HEAD_BYTES = 4_000_000  # budget of the head table it keeps (_work_head)

# the one head slot: its key (rule, band), the head, and the memory heads are
# written into, reused from head to head and grown only when a head needs more
_head_slot = {"key": None, "head": None, "memory": np.empty(0)}


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


def _basis_rows(d: int, kmax: int, t, head=()):
    """Yield Z_0(t), ..., Z_kmax(t) by the three-term recurrence.

    `t` is a 1d array (rows are arrays) or a Python float (rows are Python
    floats); both run the same arithmetic.  Given `head`, rows Z_0(t), ...,
    Z_j(t) already computed (j >= 1), the recurrence resumes from its last
    two and yields only Z_(j+1)(t), ..., Z_kmax(t).
    """
    sb = recurrence_offdiag(sphere_exponent(d), kmax + 1).tolist()
    if len(head):
        j, prev, cur = len(head) - 1, head[-2], head[-1]
    else:
        j, cur = 1, 1.0 if isinstance(t, float) else np.ones_like(t)
        yield cur
        if kmax >= 1:
            prev, cur = cur, t / sb[0]
            yield cur
    for k in range(j, kmax):
        # (t Z_k - b_k Z_(k-1)) / b_(k+1), with one temporary fewer
        nxt = t * cur
        nxt -= sb[k - 1] * prev
        nxt /= sb[k]
        prev, cur = cur, nxt
        yield cur


def _even_rows(d: int, kmax: int, t):
    """Yield the even rows Z_0(t), Z_2(t), ..., up to degree kmax, in
    dimension d at heights t of any shape.

    With s_k the off-diagonal of the recurrence (t Z_k = s_k Z_(k+1) +
    s_(k-1) Z_(k-1)) and s_(-1) = s_(-2) = 0, squaring it gives one in u = t^2,
    t^2 Z_k = s_k s_(k+1) Z_(k+2) + (s_k^2 + s_(k-1)^2) Z_k + s_(k-1) s_(k-2) Z_(k-2),
    which runs on the kmax/2 + 1 even rows alone.
    """
    u = np.square(np.asarray(t, dtype=float))
    # s[j + 2] = s_j; row Z_k comes from Z_(k-2) and Z_(k-4)
    s = np.concatenate(([0.0, 0.0], recurrence_offdiag(sphere_exponent(d), kmax + 1)))
    k = np.arange(2, kmax + 1, 2)
    up = (s[k] * s[k + 1]).tolist()
    diag = (s[k] ** 2 + s[k - 1] ** 2).tolist()
    down = (s[k - 1] * s[k - 2]).tolist()
    prev, cur = 0.0, np.ones_like(u)
    yield cur
    for a, b, e in zip(up, diag, down):
        # Z_k = ((u - b) Z_(k-2) - e Z_(k-4)) / a
        nxt = u - b
        nxt *= cur
        nxt -= e * prev
        nxt /= a
        yield nxt
        prev, cur = cur, nxt


def zonal_basis_matrix(d: int, kmax: int, t: np.ndarray) -> np.ndarray:
    """Evaluate Z_0..Z_kmax at points t; returns shape (kmax + 1, t.size)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((kmax + 1, t.size))
    for k, row in enumerate(_basis_rows(d, kmax, t)):
        out[k] = row
    return out


@lru_cache(maxsize=8)
def _storage_table(rule: JacobiRule, kmax: int) -> np.ndarray:
    """Z_0..Z_kmax on the nodes of a storage rule, shared and read-only."""
    table = zonal_basis_matrix(rule.dim, kmax, rule.nodes)
    table.setflags(write=False)
    return table


def _refined_heights(rule: JacobiRule) -> np.ndarray:
    """The refined set of a storage rule: the Gauss rule REFINE times finer,
    with the poles -1 and 1 added."""
    fine = gauss_jacobi_rule(rule.dim, sphere_exponent(rule.dim), REFINE * rule.order)
    return np.concatenate(([-1.0], fine.nodes, [1.0]))


@lru_cache(maxsize=8)
def _refined_table(rule: JacobiRule, kmax: int) -> np.ndarray:
    """Z_0..Z_kmax on the refined set of a storage rule, shared and read-only."""
    table = zonal_basis_matrix(rule.dim, kmax, _refined_heights(rule))
    table.setflags(write=False)
    return table


def _work_head(rule: JacobiRule, k: int) -> np.ndarray:
    """Z_0..Z_(R-1) at the nodes h >= 0 of `rule`, read-only, for the folded
    analysis at band k.  R is the largest multiple of _POWER_BLOCK that is at
    most k + 1 and whose rows fit in _HEAD_BYTES (0 rows if none do), so the
    head ends on a block boundary of the streamed analysis.

    The last head built lives in a single slot keyed by (rule, k), as two
    rules of one band have different nodes.  The slot is emptied before a
    new head is built, and the new head overwrites the old one's memory, so
    at most one head is alive and switching heads frees and allocates no
    large block (which raised a run's peak RSS as the heap fragmented)."""
    slot, h = _head_slot, rule.nodes[rule.order // 2:]
    if slot["key"] != (rule, k):
        rows = min(_HEAD_BYTES // h.nbytes, k + 1) // _POWER_BLOCK * _POWER_BLOCK
        if rows == 0:
            return np.empty((0, h.size))
        slot.update(key=None, head=None)  # before its memory is overwritten
        if slot["memory"].size < rows * h.size:
            slot["memory"] = np.empty(0)  # drop the smaller memory first
            slot["memory"] = np.empty(rows * h.size)
        head = slot["memory"][:rows * h.size].reshape(rows, h.size)
        for i, row in enumerate(_basis_rows(rule.dim, rows - 1, h)):
            head[i] = row
        head.setflags(write=False)
        slot.update(key=(rule, k), head=head)
    return slot["head"]


def _folded_analysis(rule: JacobiRule, k: int, plus: np.ndarray,
                     minus: np.ndarray) -> np.ndarray:
    """Coefficients 0..k from f(h) (`plus`) and f(-h) (`minus`) at the nodes
    h >= 0 of a rule symmetric about 0, as every `gauss_jacobi_rule` is
    exactly (checked bit for bit for d = 3..7 at orders 2-119 and 520-1544).
    As Z_k(-t) = (-1)^k Z_k(t), degree k reads sum_h w Z_k(h) (f(h) +- f(-h)),
    + for even k, with a centre node 0 at half weight.  Rows up to a byte
    budget come from `_work_head`; those above it stream _POWER_BLOCK at a
    time from the head's last two rows, so no (k+1)-row table is held."""
    w = rule.weights[rule.order // 2:].copy()
    w[:rule.order % 2] /= 2.0
    head = _work_head(rule, k)
    wsum, wdiff = w * (plus + minus), w * (plus - minus)
    coeffs = np.empty(k + 1)
    rows = _basis_rows(rule.dim, k, rule.nodes[rule.order // 2:], head)
    for lo in range(0, k + 1, _POWER_BLOCK):  # lo is even
        if lo < len(head):
            blk = head[lo:lo + _POWER_BLOCK]
        else:
            blk = np.array(list(islice(rows, _POWER_BLOCK)))
        coeffs[lo:lo + _POWER_BLOCK:2] = blk[0::2] @ wsum
        coeffs[lo + 1:lo + _POWER_BLOCK:2] = blk[1::2] @ wdiff
    return coeffs


def _series(d: int, coeffs: np.ndarray, t) -> np.ndarray:
    """sum_k coeffs[k] Z_k(t) in dimension d at heights t of any shape; a
    (K+1, c) matrix of coefficients sums c series at once, on a trailing
    axis.  The basis table is built _CHUNK points at a time up to band 256,
    and in chunks no larger than that band-256 table above it."""
    t = np.asarray(t, dtype=float)
    flat, kmax = t.ravel(), len(coeffs) - 1
    vals = np.empty((flat.size,) + coeffs.shape[1:])
    chunk = min(_CHUNK, _CHUNK * 257 // (kmax + 1))
    for start in range(0, flat.size, chunk):
        block = flat[start:start + chunk]
        vals[start:start + chunk] = zonal_basis_matrix(d, kmax, block).T @ coeffs
    return vals.reshape(t.shape + coeffs.shape[1:])


@dataclass(frozen=True, eq=False)
class ZonalProfile:
    """Band-limited zonal function: `coeffs[k]` multiplies Z_k, on a
    quadrature rule; `values`, the samples on its nodes, are synthesized at
    first read and kept.  Shares its interface with `S2Function` (README,
    "API notes"); points are heights t in [-1, 1]."""

    representation: ClassVar[str] = "zonal"

    dim: int
    band_limit: int
    rule: JacobiRule
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, d: int, band_limit: int, values: np.ndarray,
                    rule: JacobiRule | None = None) -> "ZonalProfile":
        rule = _checked_rule(d, band_limit, rule)
        values = np.asarray(values, dtype=float)
        if values.shape != rule.nodes.shape:
            raise ValueError("values do not match the rule's nodes")
        if rule.order == 2 * band_limit + 8:
            coeffs = _storage_table(rule, band_limit) @ (rule.weights * values)
        else:  # f(h) and f(-h) at the nodes h >= 0
            n = rule.order // 2
            coeffs = _folded_analysis(rule, band_limit, values[n:], values[::-1][n:])
        return cls(d, band_limit, rule, coeffs)

    @classmethod
    def from_coeffs(cls, d: int, coeffs: np.ndarray,
                    rule: JacobiRule | None = None) -> "ZonalProfile":
        coeffs = np.asarray(coeffs, dtype=float)
        band_limit = coeffs.size - 1
        return cls(d, band_limit, _checked_rule(d, band_limit, rule), coeffs)

    @cached_property
    def values(self) -> np.ndarray:
        """f on the rule's nodes: the band-limited part, synthesized from
        the coefficients at first read."""
        if self.rule.order == 2 * self.band_limit + 8:
            return _storage_table(self.rule, self.band_limit).T @ self.coeffs
        return self.eval_at(self.rule.nodes)

    def eval_at(self, t) -> np.ndarray | float:
        """f at heights t.  A scalar t runs the recurrence in Python floats
        and returns a float; an array builds its basis table a bounded
        chunk of points at a time (see `_series`)."""
        if np.isscalar(t):
            rows = _basis_rows(self.dim, self.band_limit, float(t))
            return sum(c * z for c, z in zip(self.coeffs.tolist(), rows))
        return _series(self.dim, self.coeffs, t)

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
        """f^p at band p K on its work rule (order p K + 8), by `_folded_analysis`;
        f(h) and f(-h) at its nodes h >= 0 come from the head when it reaches K."""
        d, k = self.dim, p * self.band_limit
        work = gauss_jacobi_rule(d, sphere_exponent(d), k + 8)
        head = _work_head(work, k)
        mirrored = np.stack((self.coeffs, (-1.0) ** self.degrees * self.coeffs), axis=1)
        if len(head) > self.band_limit:
            fh = head[:self.band_limit + 1].T @ mirrored
        else:
            fh = _series(d, mirrored, work.nodes[work.order // 2:])
        plus, minus = fh.T ** p  # f(h)^p and f(-h)^p
        return ZonalProfile(d, k, work, _folded_analysis(work, k, plus, minus))

    def energies(self) -> np.ndarray:
        """Per-degree energies e_k = coeffs[k]^2."""
        return self.coeffs**2

    def refined_set(self) -> np.ndarray:
        """Heights of the dense evaluation set (`_refined_heights`)."""
        return _refined_heights(self.rule)

    def refined_values(self) -> np.ndarray:
        """f on `refined_set`, one product with its basis table."""
        if self.rule.order == 2 * self.band_limit + 8:
            return _refined_table(self.rule, self.band_limit).T @ self.coeffs
        return self.eval_at(self.refined_set())

    def _refined_scan(self):
        """(lo, hi, lines): the min and max of `refined_values`, and the two
        polish lines of `analysis.refined_extremes`, f and -f on it."""
        vals, ts = self.refined_values(), self.refined_set()
        i_hi, i_lo = int(np.argmax(vals)), int(np.argmin(vals))
        lines = [(ts, vals, i_hi, self.eval_at), (ts, -vals, i_lo, lambda t: -self.eval_at(t))]
        return float(vals[i_lo]), float(vals[i_hi]), lines


def _checked_rule(d: int, band_limit: int, rule: JacobiRule | None) -> JacobiRule:
    """`rule`, or the default rule of band `band_limit` if None, once checked."""
    rule = default_rule(d, band_limit) if rule is None else rule
    if rule.dim != d:
        raise ValueError(f"rule dimension {rule.dim} does not match d={d}")
    if abs(rule.exponent - sphere_exponent(d)) > 1e-12:
        raise ValueError("profile rules must use the full-sphere exponent (d-3)/2")
    if rule.order < band_limit + 1:
        raise ValueError(
            f"rule order {rule.order} cannot resolve band limit {band_limit}"
        )
    return rule
