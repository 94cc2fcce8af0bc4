"""Numerical laboratory for the intersection-body map on star bodies
near the unit ball.

Layers, bottom up: quadrature rules (`quadrature`), zonal and full
spherical harmonic representations (`zonal`, `sphharm`), norms and
spectral multipliers (`analysis`), the spherical Radon transform with
independent spectral and geometric routes (`radon`), star bodies and
the intersection-body operator (`bodies`), the corrected fixed-point
iteration and its experiments (`iteration`), and a command line driver
(`cli`).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analysis import (
    apply_multiplier,
    approx_decay_norm,
    cutoff_profile,
    l2_norm,
    smooth_cutoff,
    sup_norm,
)
from .bodies import (
    PositivityError,
    StarBody,
    apply_linear_map,
    ball_body,
    ellipsoid_body,
    ellipsoid_intersection_closed_form,
    intersection_body,
)
from .iteration import (
    CapScalingResult,
    IterationOptions,
    IterationReport,
    StepRecord,
    cap_scaling_exponents,
    fit_degree2_correction,
    iterate_step,
    run_iteration,
)
from .quadrature import JacobiRule, S2Grid, gauss_jacobi_rule, s2_grid
from .radon import (
    SmoothingGainResult,
    radon_geometric_s2,
    radon_geometric_zonal,
    radon_multiplier,
    radon_spectral,
    smoothing_gain_experiment,
)
from .seeding import make_rng
from .sphharm import (
    S2Function,
    analyze_s2,
    default_s2_grid,
    eval_s2_at_points,
    sh_degrees,
    sh_index,
    synthesize_s2,
)
from .zonal import (
    ZonalProfile,
    default_rule,
    sphere_exponent,
    subsphere_rule,
    zonal_basis_matrix,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
