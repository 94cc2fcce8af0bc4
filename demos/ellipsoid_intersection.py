"""Intersection body of an ellipsoid against the closed form.

In three dimensions the intersection body of a centered ellipsoid is again an
ellipsoid, with an explicit radial function.  This script compares the
numerical operator against that formula and then confirms the linear-image
law on a rotated copy.
"""

import numpy as np

from ibodylab import (
    apply_linear_map,
    ellipsoid_body,
    ellipsoid_intersection_closed_form,
    intersection_body,
    make_rng,
)

A = np.diag([1.2, 1.0, 0.8])
got = intersection_body(ellipsoid_body(A))
want = ellipsoid_intersection_closed_form(A)

rng = make_rng(0)
pts = rng.standard_normal((2000, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
g, w = got.profile.eval_at_points(pts), want.profile.eval_at_points(pts)
rel = np.max(np.abs(g - w) / w)
print(f"axes 1.2, 1.0, 0.8: relative sup error vs closed form = {rel:.2e}")

# same comparison after rotating the ellipsoid off axis
theta = 0.6
R = np.array([[np.cos(theta), -np.sin(theta), 0.0],
              [np.sin(theta), np.cos(theta), 0.0],
              [0.0, 0.0, 1.0]])
A_rot = R @ A @ R.T
got_rot = intersection_body(ellipsoid_body(A_rot))
want_rot = ellipsoid_intersection_closed_form(A_rot)
g, w = got_rot.profile.eval_at_points(pts), want_rot.profile.eval_at_points(pts)
rel_rot = np.max(np.abs(g - w) / w)
print(f"rotated by {theta} rad:  relative sup error vs closed form = {rel_rot:.2e}")

# the mean-normalized operator transforms predictably under any linear map
T = np.eye(3)
T[0, 1] = 0.05
lhs = intersection_body(apply_linear_map(ellipsoid_body(A), T))
rhs = apply_linear_map(intersection_body(ellipsoid_body(A)), np.linalg.inv(T).T)
dev = np.max(np.abs(lhs.profile.coeffs - rhs.profile.coeffs / rhs.profile.coeffs[0]))
print(f"linear-image law at shear 0.05:  max coeff deviation = {dev:.2e}")
