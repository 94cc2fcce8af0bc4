"""Sup and gradient norms of small cap bumps against their L2 norm.

A smooth bump supported on the polar cap theta <= w is scaled so that the
largest second derivative of its homogeneous extension (the largest
|eigenvalue| of its ambient Hessian) is 1.  As w shrinks, its sup norm then
scales like its L2 norm to the power 4/(d+3), and the sup norm of its
gradient like the L2 norm to the power 2/(d+3).  `cap_scaling_exponents`
fits both exponents by log-log lines against the L2 norm across a
geometric ladder of widths.  The operator is never applied: this is a
statement about the norms alone.
"""

from ibodylab import cap_scaling_exponents

for d in (3, 4):
    res = cap_scaling_exponents(d)
    print(f"\nd = {d}")
    print(f"{'width':>8} {'sup':>12} {'grad':>12}")
    for w, s, g in zip(res.widths, res.sup_values, res.grad_values):
        print(f"{w:>8.4f} {s:>12.5e} {g:>12.5e}")
    print(f"sup exponent  {res.exponent_sup:.4f}   expect {4 / (d + 3):.4f}")
    print(f"grad exponent {res.exponent_grad:.4f}   expect {2 / (d + 3):.4f}")
