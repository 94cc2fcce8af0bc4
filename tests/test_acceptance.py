"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with -v to get a pass/fail line per criterion.  Each test prints the
measured quantity next to its bound so a failure is directly actionable.
"""

import math
import time

import numpy as np

from ibodylab import (
    IterationOptions,
    S2Function,
    ZonalProfile,
    analyze_s2,
    apply_multiplier,
    ball_body,
    cap_scaling_exponents,
    ellipsoid_body,
    ellipsoid_intersection_closed_form,
    intersection_body,
    iterate_step,
    radon_geometric_s2,
    radon_geometric_zonal,
    radon_multiplier,
    run_iteration,
    smooth_cutoff,
    smoothing_gain_experiment,
    sup_norm,
)
from helpers import random_even_s2, random_even_zonal, random_points_on_sphere, zonal_body


def test_criterion_01_eigenvalue_oracle():
    # geometric transform reproduces the spectral eigenvalues, all even
    # degrees <= 20 in dimensions 3, 4, 5, 7, within 1e-8, under 10 seconds
    t0 = time.time()
    worst = 0.0
    for d in (3, 4, 5, 7):
        mu = radon_multiplier(d, 20)
        for k in range(0, 21, 2):
            c = np.zeros(21)
            c[k] = 1.0
            f = ZonalProfile.from_coeffs(d, c)
            got = float(radon_geometric_zonal(f).coeffs[k])
            worst = max(worst, abs(got - mu[k]))
    elapsed = time.time() - t0
    print(f"criterion 1: worst abs error {worst:.3e} (bound 1e-8), {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_normalization_identities():
    # R fixes constants to 1e-13 on both routes; the degree-2 and degree-4
    # eigenvalue identities hold to 1e-15
    f = ZonalProfile.from_coeffs(3, np.array([1.0, 0.0, 0.0, 0.0]))
    dev_z = float(np.max(np.abs(radon_geometric_zonal(f).values - 1.0)))
    g = S2Function.from_coeffs(np.array([1.0]))
    dev_s = float(np.max(np.abs(radon_geometric_s2(g).values - 1.0)))
    worst2 = max(abs((d - 1) * abs(radon_multiplier(d, 2)[2]) - 1.0) for d in range(3, 51))
    worst4 = max(abs((d - 1) * abs(radon_multiplier(d, 4)[4]) - 3.0 / (d + 1))
                 for d in range(3, 51))
    print(f"criterion 2: constants {max(dev_z, dev_s):.3e} (1e-13), "
          f"degree-2 identity {worst2:.3e}, degree-4 identity {worst4:.3e} (1e-15)")
    assert dev_z <= 1e-13 and dev_s <= 1e-13
    assert worst2 <= 1e-15
    assert worst4 <= 1e-15


def test_criterion_03_ball_is_fixed_for_twenty_steps():
    body = ball_body(3, 16)
    worst = 0.0
    for _ in range(20):
        body, rec = iterate_step(body, IterationOptions())
        worst = max(worst, rec.sup)
    print(f"criterion 3: max sup deviation over 20 steps {worst:.3e} (bound 1e-12)")
    assert worst <= 1e-12


def test_criterion_04_ellipsoid_closed_form():
    A = np.diag([1.2, 1.0, 0.8])
    got = intersection_body(ellipsoid_body(A))
    want = ellipsoid_intersection_closed_form(A)
    pts = random_points_on_sphere(500, 3, seed=44)
    g = got.profile.eval_at_points(pts)
    w = want.profile.eval_at_points(pts)
    rel = float(np.max(np.abs(g - w) / np.abs(w)))
    print(f"criterion 4: relative sup error {rel:.3e} (bound 1e-6)")
    assert rel <= 1e-6


def test_criterion_05_contraction_rates():
    # mixed even perturbation of size 1e-3 on degrees 4..12 with the
    # degree-2 correction active: observed rate 0.75 +/- 0.02 in d = 3 and
    # 0.60 +/- 0.02 in d = 4, within 10 steps and 30 seconds each
    for d, want in ((3, 0.75), (4, 0.60)):
        t0 = time.time()
        eps = 1e-3 / np.sqrt(5.0)
        body = zonal_body(d, 16, {k: eps for k in (4, 6, 8, 10, 12)})
        rep = run_iteration(body, IterationOptions(max_steps=10))
        elapsed = time.time() - t0
        print(f"criterion 5 (d={d}): ratio {rep.asymptotic_ratio:.4f} "
              f"(want {want} +/- 0.02), {elapsed:.2f}s")
        assert abs(rep.asymptotic_ratio - want) <= 0.02
        assert elapsed < 30.0


def test_criterion_06_degree_two_handling():
    eps = 1e-4
    body = zonal_body(3, 8, {2: eps})
    out_plain, _ = iterate_step(body, IterationOptions(mode="uncorrected"))
    c2 = float(out_plain.profile.coeffs[2])
    out_kill, _ = iterate_step(body, IterationOptions(mode="corrected"))
    e2 = math.sqrt(float(out_kill.profile.energies()[2]))
    print(f"criterion 6: uncorrected c2/eps {c2 / eps:.6f} (want -1 +/- 1e-2), "
          f"corrected residual {e2:.3e} (bound 10 eps^2 = {10 * eps**2:.1e})")
    assert abs(c2 / eps + 1.0) <= 1e-2
    assert e2 <= 10.0 * eps**2


def test_criterion_07_smoothing_slopes():
    for d, kw in ((3, dict(band_limit=1024, tail_indices=[8, 16, 32, 64])),
                  (4, dict(band_limit=1024, tail_indices=[8, 16, 32, 64])),
                  (5, {})):
        res = smoothing_gain_experiment(d, **kw)
        want = -(d - 2.0)
        print(f"criterion 7 (d={d}): energy slope {res.energy_slope:.4f} "
              f"(want {want} +/- 0.3)")
        assert abs(res.energy_slope - want) <= 0.3


def test_criterion_08_cutoff_family_bounds():
    n_list = [4, 8, 16, 32, 64, 128, 256]
    ratios = np.empty((50, len(n_list)))
    fix_err = 0.0
    for i in range(50):
        f = random_even_zonal(3, 300, seed=100 + i, decay=1.5)
        base = sup_norm(f)
        for j, n in enumerate(n_list):
            g = apply_multiplier(f, smooth_cutoff(n))
            ratios[i, j] = sup_norm(g) / base
            fix_err = max(fix_err, float(np.max(np.abs(g.coeffs[: n + 1] - f.coeffs[: n + 1]))))
    col_max = ratios.max(axis=0)
    print(f"criterion 8: max ratio {ratios.max():.4f} (bound 10), "
          f"fixed-range error {fix_err:.1e} (exact), col maxes {np.round(col_max, 4)}")
    assert ratios.max() <= 10.0
    assert fix_err == 0.0
    assert np.any(np.diff(col_max) < 0)  # no monotone growth in n


def test_criterion_09_cap_scaling_exponents():
    res = cap_scaling_exponents(3)
    want_sup, want_grad = 4.0 / 6.0, 2.0 / 6.0
    print(f"criterion 9: exponents ({res.exponent_sup:.4f}, {res.exponent_grad:.4f}) "
          f"(want ({want_sup:.4f}, {want_grad:.4f}) +/- 0.1)")
    assert abs(res.exponent_sup - want_sup) <= 0.1
    assert abs(res.exponent_grad - want_grad) <= 0.1


def test_criterion_10_transforms_and_envelope():
    # round trips at band 64 within 1e-12, Parseval within 1e-10, and the
    # raw power iteration keeps the radial function in the predicted
    # envelope (1 +/- eps)^((d-1)^k) for k <= 4 at eps = 0.05
    worst_rt = 0.0
    for d in (3, 4, 5, 7):
        f = random_even_zonal(d, 64, seed=d, decay=1.5)
        g = ZonalProfile.from_values(d, 64, f.values, f.rule)
        worst_rt = max(worst_rt, float(np.max(np.abs(g.coeffs - f.coeffs))))
    fs = random_even_s2(64, seed=64)
    cs = analyze_s2(64, fs.values, fs.grid)
    worst_rt = max(worst_rt, float(np.max(np.abs(cs - fs.coeffs))))

    u = fs.coeffs / np.linalg.norm(fs.coeffs)
    fu = S2Function.from_coeffs(u)
    parseval = abs(float((fu.values**2 * fu.grid.weights).sum()) - 1.0)

    eps = 0.05
    body = zonal_body(3, 16, {4: eps / 3.0})
    opts = IterationOptions(mode="raw", max_steps=4)
    rep = run_iteration(body, opts)
    env_ok = True
    for k, rec in enumerate(rep.records):
        lo = (1.0 - eps) ** ((3 - 1) ** k) - 1e-9
        hi = (1.0 + eps) ** ((3 - 1) ** k) + 1e-9
        env_ok = env_ok and lo <= rec.min_radial and rec.max_radial <= hi
    print(f"criterion 10: round trip {worst_rt:.3e} (1e-12), "
          f"Parseval {parseval:.3e} (1e-10), envelope ok {env_ok}")
    assert worst_rt <= 1e-12
    assert parseval <= 1e-10
    assert env_ok
