"""The four benchmark workloads, each driving the public ibodylab API.

Every workload has a `setup(seed)` that builds its seeded inputs and the
rules, grids and tables the program caches, and a `round(state, rnd)` that
runs the workload's fixed work as a closed loop of operations through
`rnd.op` (each starts when the previous one ends) and checks each result.
A run repeats whole rounds, so every round attempts the same operations.

Program functions are always looked up through the `ib` module object at
call time, so a tracer installed after import sees the benchmark's calls.

The checks compare against computations made here, apart from the program
(numpy.polynomial.legendre, math.lgamma), or against properties the method
must have; none compares against stored output.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npl

import ibodylab as ib

EPSILON = 1e-3
COEFF_DECAY = 1.5  # random coefficients are N(0, 1) (1 + degree)^-COEFF_DECAY


def random_even_zonal_coeffs(rng, band_limit: int) -> np.ndarray:
    k = np.arange(band_limit + 1)
    coeffs = np.where(k % 2 == 0, rng.standard_normal(band_limit + 1), 0.0)
    return coeffs * (1.0 + k) ** -COEFF_DECAY


def radon_closed_form(d: int, k: int) -> float:
    """Signed Radon eigenvalue on even degree k, from Gamma functions."""
    log_v = (math.lgamma((d - 1) / 2.0) + math.lgamma((k + 1) / 2.0)
             - math.lgamma(0.5) - math.lgamma((k + d - 1) / 2.0))
    return (-1.0) ** (k // 2) * math.exp(log_v)


def multiplier_error(d: int, kmax: int) -> float:
    """Largest relative gap of radon_multiplier to the closed form."""
    got = ib.radon_multiplier(d, kmax)
    want = np.array([radon_closed_form(d, k) if k % 2 == 0 else 0.0
                     for k in range(kmax + 1)])
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def step_records(rnd, start, opts, steps: int):
    """Run `steps` corrected steps from `start` as operations; returns
    (op index, step record) for the steps that completed."""
    cur, records = start, []
    for m in range(steps):
        out = rnd.op(ib.iterate_step, cur, opts)
        if out is None:
            rnd.skip(steps - m - 1)
            break
        cur, rec = out
        rnd.feed(cur.profile.coeffs, rec.l2, rec.sup, rec.ratio, rec.u_alpha)
        records.append((rnd.last, rec))
    return records


# ---------------------------------------------------------------------------
# s2-iterate: the corrected iteration on S^2

S2_BAND = 32
S2_ALPHA = 4.0
S2_STEPS = 3
S2_RATIO_CAP = 3.0 / 4.0 + 10.0 * EPSILON


def s2_start_coeffs(rng, band_limit: int, spread_m: bool) -> np.ndarray:
    """Random even perturbation of size EPSILON on top of the ball; with
    spread_m every order m of each degree is filled."""
    coeffs = np.zeros((band_limit + 1) ** 2)
    for k in range(2, band_limit + 1, 2):
        w = float(rng.standard_normal()) / (1.0 + k)
        if spread_m:
            coeffs[k * k:(k + 1) ** 2] = w * rng.standard_normal(2 * k + 1)
        else:
            coeffs[ib.sh_index(k, 0)] = w
    coeffs *= EPSILON / float(np.sqrt((coeffs**2).sum()))
    coeffs[0] = 1.0
    return coeffs


def s2_setup(seed: int) -> dict:
    rng = ib.make_rng(seed)
    start = ib.StarBody(ib.S2Function.from_coeffs(
        s2_start_coeffs(rng, S2_BAND, spread_m=True)))
    grid = start.profile.grid
    # tables of the power step (band 2L on the storage grid) and the refined
    # grid the sup-norm telemetry evaluates on
    ib.analyze_s2(2 * S2_BAND, np.zeros(grid.weights.shape), grid)
    ib.s2_grid(4 * (grid.n_theta - 1))
    axis = s2_start_coeffs(rng, S2_BAND, spread_m=False)
    return {
        "start": start,
        "opts": ib.IterationOptions(track_decay_alpha=S2_ALPHA),
        "axis_coeffs": axis,
    }


def s2_round(state: dict, rnd) -> None:
    records = step_records(rnd, state["start"], state["opts"], S2_STEPS)
    prev = None
    for i, rec in records:
        rnd.check(rec.ratio <= S2_RATIO_CAP, i,
                  f"step ratio {rec.ratio} above {S2_RATIO_CAP}")
        if prev is not None:
            rnd.check(rec.l2 <= prev, i, f"L2 deviation grew from {prev} to {rec.l2}")
        prev = rec.l2


def s2_run_checks(state: dict) -> list[str]:
    """Properties checked once per run, outside the timed rounds."""
    errors = []
    opts = ib.IterationOptions()  # the outputs do not depend on telemetry
    axis = state["axis_coeffs"]
    s2_out, _ = ib.iterate_step(ib.StarBody(ib.S2Function.from_coeffs(axis)), opts)
    zonal = axis[[ib.sh_index(l, 0) for l in range(S2_BAND + 1)]]
    z_out, _ = ib.iterate_step(ib.StarBody(ib.ZonalProfile.from_coeffs(3, zonal)), opts)
    want = np.zeros_like(axis)
    want[[ib.sh_index(l, 0) for l in range(S2_BAND + 1)]] = z_out.profile.coeffs
    gap = float(np.abs(s2_out.profile.coeffs - want).max())
    if not gap <= 1e-12:
        errors.append(f"axisymmetric S^2 step differs from the zonal step by {gap}")
    ball, _ = ib.iterate_step(ib.ball_body(3, S2_BAND, "s2"), opts)
    e0 = np.zeros_like(axis)
    e0[0] = 1.0
    gap = float(np.abs(ball.profile.coeffs - e0).max())
    if not gap <= 1e-12:
        errors.append(f"one step moved the ball by {gap}")
    return errors


# ---------------------------------------------------------------------------
# zonal-iterate: corrected zonal runs in several dimensions

Z_DIMS = (3, 4, 5, 7)
Z_BAND = 256
Z_STEPS = 20
Z_RATIO_TOL = 1e-3


def zonal_setup(seed: int) -> dict:
    rng = ib.make_rng(seed)
    starts = {}
    for d in Z_DIMS:
        # the CLI's z4-mix start (degrees 4..12), with seeded weights
        coeffs = np.zeros(Z_BAND + 1)
        coeffs[4:13:2] = rng.uniform(0.75, 1.25, 5)
        coeffs *= EPSILON / float(np.sqrt((coeffs**2).sum()))
        coeffs[0] = 1.0
        body = ib.StarBody(ib.ZonalProfile.from_coeffs(d, coeffs))
        lam = ib.sphere_exponent(d)
        # the power step's work rule and the refined telemetry rule
        ib.gauss_jacobi_rule(d, lam, (d - 1) * Z_BAND + 8)
        ib.gauss_jacobi_rule(d, lam, 4 * body.profile.rule.order)
        starts[d] = body
    return {"starts": starts, "opts": ib.IterationOptions(max_steps=Z_STEPS)}


def zonal_round(state: dict, rnd) -> None:
    for d, start in state["starts"].items():
        records = step_records(rnd, start, state["opts"], Z_STEPS)
        if len(records) < Z_STEPS:
            continue
        tail = [rec.ratio for _, rec in records[-3:]]
        asym = math.exp(sum(math.log(x) for x in tail) / 3.0)
        want = 3.0 / (d + 1.0)
        rnd.check(abs(asym - want) <= Z_RATIO_TOL, records[-1][0],
                  f"d={d}: asymptotic ratio {asym} is not within "
                  f"{Z_RATIO_TOL} of {want}")


# ---------------------------------------------------------------------------
# dual-route: the geometric Radon route against its counterparts

DR_S2_BAND = 24
DR_DIMS = (3, 5, 7)
DR_ZONAL_BAND = 256
DR_ELLIPSOID = (1.2, 1.0, 0.8)
DR_ELLIPSOID_BAND = 20
ROUTE_TOL = 1e-8
MULTIPLIER_TOL = 1e-11
ELLIPSOID_TOL = 1e-6


def dual_setup(seed: int) -> dict:
    rng = ib.make_rng(seed)
    degs = ib.sh_degrees(DR_S2_BAND)
    coeffs = rng.standard_normal(degs.size) * (1.0 + degs) ** -COEFF_DECAY
    coeffs[degs % 2 == 1] = 0.0
    s2 = ib.S2Function.from_coeffs(coeffs)
    zonal = {}
    for d in DR_DIMS:
        zonal[d] = ib.ZonalProfile.from_coeffs(
            d, random_even_zonal_coeffs(rng, DR_ZONAL_BAND))
        ib.subsphere_rule(d, DR_ZONAL_BAND + 8)
    a = np.diag(DR_ELLIPSOID)
    body = ib.ellipsoid_body(a, band_limit=DR_ELLIPSOID_BAND)
    grid = body.profile.grid
    # tables of the squared radial function (band 2L) on the storage grid
    ib.analyze_s2(2 * DR_ELLIPSOID_BAND, np.zeros(grid.weights.shape), grid)
    return {"s2": s2, "zonal": zonal, "matrix": a, "ellipsoid": body}


def _both_routes(f):
    geometric = ib.radon_geometric_s2 if isinstance(f, ib.S2Function) \
        else ib.radon_geometric_zonal
    return geometric(f), ib.radon_spectral(f)


def _ellipsoid_routes(body, a):
    return (ib.intersection_body(body, method="geometric"),
            ib.ellipsoid_intersection_closed_form(a, band_limit=DR_ELLIPSOID_BAND))


def dual_round(state: dict, rnd) -> None:
    inputs = [(3, DR_S2_BAND, state["s2"])]
    inputs += [(d, DR_ZONAL_BAND, f) for d, f in state["zonal"].items()]
    for d, band, f in inputs:
        out = rnd.op(_both_routes, f)
        if out is None:
            continue
        geo, spec = out
        rnd.feed(geo.coeffs, spec.coeffs)
        i = rnd.last
        gap = float(np.abs(geo.coeffs - spec.coeffs).max())
        rnd.check(gap <= ROUTE_TOL, i, f"d={d}: routes differ by {gap}")
        err = multiplier_error(d, band)
        rnd.check(err <= MULTIPLIER_TOL, i,
                  f"d={d}: radon_multiplier off the closed form by {err}")
    out = rnd.op(_ellipsoid_routes, state["ellipsoid"], state["matrix"])
    if out is not None:
        numeric, exact = out
        rnd.feed(numeric.profile.coeffs, exact.profile.coeffs)
        got, want = numeric.profile.values, exact.profile.values
        rel = float(np.max(np.abs(got - want) / np.abs(want)))
        rnd.check(rel <= ELLIPSOID_TOL, rnd.last,
                  f"ellipsoid intersection body off the closed form by {rel}")


# ---------------------------------------------------------------------------
# cutoff-corpus: the smooth-cutoff family on a random zonal corpus

CC_DIM = 3
CC_BAND = 300
CC_CORPUS = 50
CC_CUTOFFS = (4, 8, 16, 32, 64, 128, 256)
CC_RATIO_CAP = 10.0
CC_SUP_TOL = 2e-5


def cutoff_setup(seed: int) -> dict:
    rng = ib.make_rng(seed)
    corpus = [ib.ZonalProfile.from_coeffs(CC_DIM, random_even_zonal_coeffs(rng, CC_BAND))
              for _ in range(CC_CORPUS)]
    # the refined rule the zonal sup norm evaluates on
    ib.gauss_jacobi_rule(CC_DIM, ib.sphere_exponent(CC_DIM), 4 * corpus[0].rule.order)
    return {"corpus": corpus}


def smooth_step(s: np.ndarray) -> np.ndarray:
    """The cutoff profile from its definition: 1 up to 1, 0 from 2, and
    B(2-s) / (B(2-s) + B(s-1)) with B(u) = exp(-1/u) in between."""
    out = np.where(s <= 1.0, 1.0, 0.0)
    mid = (s > 1.0) & (s < 2.0)
    a, b = np.exp(-1.0 / (2.0 - s[mid])), np.exp(-1.0 / (s[mid] - 1.0))
    out[mid] = a / (a + b)
    return out


def cutoff_prepare(state: dict) -> None:
    """References made apart from the program, once before the timed
    rounds, in the order of the round's operations: each operation's
    expected coefficients and the dense sup norm of that function."""
    k = np.arange(CC_BAND + 1, dtype=float)
    rows = [f.coeffs for f in state["corpus"]]
    rows += [f.coeffs * smooth_step(k / n) for n in CC_CUTOFFS for f in state["corpus"]]
    state["want_coeffs"] = rows
    state["want_sup"] = dense_legendre_sup(np.array(rows))


def _cutoff_image(f, m):
    g = ib.apply_multiplier(f, m)
    return g, ib.sup_norm(g)


def _check_sup(rnd, i: int, got: float, want: float) -> None:
    gap = (want - got) / want
    rnd.check(-1e-12 <= gap <= CC_SUP_TOL, i,
              f"sup norm {got} vs dense Legendre evaluation {want}")


def cutoff_round(state: dict, rnd) -> None:
    corpus, want_coeffs, want_sup = state["corpus"], state["want_coeffs"], state["want_sup"]
    base = []
    for f in corpus:
        s = rnd.op(ib.sup_norm, f)
        base.append(s)
        if s is not None:
            rnd.feed(s)
            _check_sup(rnd, rnd.last, s, want_sup[rnd.last])
    for n in CC_CUTOFFS:
        m = ib.smooth_cutoff(n)
        for f, s in zip(corpus, base):
            out = rnd.op(_cutoff_image, f, m)
            if out is None:
                continue
            g, sup = out
            i = rnd.last
            rnd.feed(g.coeffs, sup)
            rnd.check(np.array_equal(g.coeffs[:n + 1], f.coeffs[:n + 1]), i,
                      f"cutoff {n} changed degrees <= {n}")
            err = float(np.abs(g.coeffs - want_coeffs[i]).max())
            rnd.check(err <= 1e-14 * float(np.abs(f.coeffs).max()), i,
                      f"cutoff {n}: coefficients off the cutoff definition by {err}")
            ratio = sup / s if s else math.inf
            rnd.check(ratio <= CC_RATIO_CAP, i, f"cutoff {n}: sup ratio {ratio}")
            _check_sup(rnd, i, sup, want_sup[i])


# the dense scan: DENSE_GRID colatitude intervals, then DENSE_PASSES local
# rescans around each row's best DENSE_KEEP peaks, each pass 8x finer
DENSE_GRID = 2048
DENSE_KEEP = 4
DENSE_PASSES = 5
DENSE_CHUNK = 2048  # points per numpy.polynomial.legendre call


def dense_legendre_sup(coeffs: np.ndarray) -> np.ndarray:
    """sup |f| for d=3 zonal coefficient rows, Z_k = sqrt(2k+1) P_k, by a
    uniform colatitude scan and repeated local rescans of the best peaks.

    Independent of the program: the series is summed by
    numpy.polynomial.legendre.  Work is chunked to keep memory small.
    """
    rows, width = coeffs.shape
    leg = coeffs * np.sqrt(2.0 * np.arange(width) + 1.0)
    theta = np.linspace(0.0, np.pi, DENSE_GRID + 1)
    step = theta[1] - theta[0]
    vander = npl.legvander(np.cos(theta), width - 1)
    best = np.empty(rows)
    centers = np.empty((rows, DENSE_KEEP))
    for lo in range(0, rows, 16):
        vals = np.abs(leg[lo:lo + 16] @ vander.T)
        best[lo:lo + 16] = vals.max(axis=1)
        # the highest local maxima of the scan bracket the true maximum
        padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=-1.0)
        peak = (vals >= padded[:, :-2]) & (vals >= padded[:, 2:])
        ranked = np.argsort(np.where(peak, -vals, np.inf), axis=1)[:, :DENSE_KEEP]
        centers[lo:lo + 16] = theta[ranked]
    offsets = np.linspace(-1.0, 1.0, 17)
    half = step
    for _ in range(DENSE_PASSES):
        pts = np.clip(centers[:, :, None] + half * offsets, 0.0, np.pi)
        flat = pts.reshape(rows, -1)
        vals = np.empty_like(flat)
        owner = np.repeat(np.arange(rows), flat.shape[1])
        xs = np.cos(flat).ravel()
        out = vals.reshape(-1)
        for lo in range(0, xs.size, DENSE_CHUNK):
            part = slice(lo, lo + DENSE_CHUNK)
            out[part] = np.abs(npl.legval(xs[part], leg[owner[part]].T, tensor=False))
        best = np.maximum(best, vals.max(axis=1))
        pick = vals.reshape(rows, DENSE_KEEP, -1).argmax(axis=2)
        centers = np.take_along_axis(pts, pick[:, :, None], axis=2)[:, :, 0]
        half /= 8.0
    return best


WORKLOADS = {
    "s2-iterate": (s2_setup, s2_round),
    "zonal-iterate": (zonal_setup, zonal_round),
    "dual-route": (dual_setup, dual_round),
    "cutoff-corpus": (cutoff_setup, cutoff_round),
}

# untimed work before the rounds, and checks once per run after them
PREPARE = {"cutoff-corpus": cutoff_prepare}
RUN_CHECKS = {"s2-iterate": s2_run_checks}
