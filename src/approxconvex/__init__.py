"""approxconvex: extremal approximately convex sets in normed spaces.

A set is approximately convex when every segment between two of its
points stays within unit distance of the set.  This package constructs
the extremal examples (entropy graphs over simplices, and a
combinatorial tree-like Banach space), computes the sharp stability
constants attached to them, and certifies the distance and diameter
bounds they satisfy, down to explicit LP duality certificates.
"""

from .constructions import (
    BoundReport,
    ConstructionSpec,
    build_entropy_set,
    critical_scale,
    euclid_witness_distance,
    general_bound,
    l1_bound,
    lowbound3,
    typep_bound,
    witness,
)
from .core import NormSpec, Vector, simplex_grid_array, weighted_l1_norm
from .entropy import KappaReport, affine_defect, entropy_E, kappa, phi, power2_condition
from .entropy_opt import I_eval, StepFunction, minimize_I
from .hulls import (
    DefectReport,
    SampledSet,
    convexity_defect,
    dist_to_hull,
    dist_to_set,
    diameter,
    hausdorff_lb,
)
from .optim import (
    ConvergenceError,
    LPInstance,
    LPSolution,
    lp_solve,
    min_quadratic_over_simplex,
)
from .simplexgeo import FaceResult, alpha, best_subset, face_chain, near_face
from .treespace import (
    DualFunctional,
    TreeLabel,
    apply_S_inv,
    apply_T,
    build_phi,
    downward_closure,
    extend_phi,
    functional_eval,
    haus_experiment,
    jensen_defect,
    leaf,
    order_classes,
    pair,
    tree_norm,
)

__version__ = "0.1.0"
