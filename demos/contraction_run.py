"""Iterating the normalized operator near the ball.

Without help, the degree-2 part of a perturbation survives forever: the
operator flips its sign each step and leaves its size alone.  The corrected
iteration fits a traceless quadratic form to that component and removes it
with a linear map, after which everything that remains contracts.  The
dominant surviving rate is the degree-4 eigenvalue times (d - 1).
"""

import numpy as np

from ibodylab import IterationOptions, StarBody, ZonalProfile, run_iteration

def start_body(d: int, eps: float) -> StarBody:
    coeffs = np.zeros(17)
    coeffs[0] = 1.0
    for k in (2, 4, 6, 8):
        coeffs[k] = eps / 2.0
    return StarBody(ZonalProfile.from_coeffs(d, coeffs))

for d, predicted in ((3, 0.75), (4, 0.60)):
    rep = run_iteration(start_body(d, 1e-3), IterationOptions(max_steps=12))
    print(f"\nd = {d}: predicted dominant rate {predicted}")
    print(f"{'step':>4} {'l2':>12} {'sup':>12} {'ratio':>8} {'|Q|':>9}")
    for m, rec in enumerate(rep.records):
        ratio = "" if np.isnan(rec.ratio) else f"{rec.ratio:.4f}"
        print(f"{m:>4} {rec.l2:>12.3e} {rec.sup:>12.3e} {ratio:>8} {rec.q_norm:>9.2e}")
    print(f"asymptotic ratio {rep.asymptotic_ratio:.4f}"
          f"  ({rep.stopped_reason}, monotone after first: {rep.monotone_after_first})")

# without the correction the degree-2 component just oscillates
rep = run_iteration(start_body(3, 1e-3), IterationOptions(max_steps=8, mode="uncorrected"))
print("\nd = 3 without the degree-2 correction:")
print("  ratios:", " ".join(f"{r.ratio:.4f}" for r in rep.records[1:]))
print("  the ratio pins near 1 because the degree-2 part refuses to die")
