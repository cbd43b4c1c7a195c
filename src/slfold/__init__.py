"""Numerical toolkit for torus-invariant special Lagrangian n-folds.

Planar solutions of the reduced quasilinear Cauchy-Riemann system are
solved on rectangles, lifted to embedded samples in C^n, and verified
against the calibration conditions (vanishing Kaehler form, vanishing
imaginary volume form, cross-product identities) and winding-number
diagnostics.
"""

from .branch import (
    BranchState,
    ReductionParams,
    branch_sensitivity,
    branch_w_array,
    ellipticity_array,
    eval_p,
    eval_p_prime,
    params_from_levels,
    solve_branch,
)
from .calibration import (
    CrossProductVector,
    DecompositionFit,
    ImplicitDerivs,
    TangentFrame,
    VerifyReport,
    cross_product_closed_form,
    cross_product_det,
    decomposition_check,
    im_omega_residual,
    implicit_derivatives,
    omega_form,
    omega_residual,
    tangent_frame,
    verify_fields,
)
from .embedding import (
    EmbeddedSample,
    SurfaceSamples,
    lift_point,
    moment_residual,
    product_residual,
    sample_fields,
    total_phase,
)
from .families import (
    AffineSolution,
    HLColumns,
    HLConfig,
    affine_fields,
    affine_potential,
    affine_uv,
    hl_partials,
    hl_residual,
    hl_triple,
    hl_triples,
)
from .grid import BoundaryData, GridDomain, ScalarField2D
from .pde import (
    PdeSolution,
    SolverConfig,
    ellipticity_field,
    recover_uv,
    residual_first_order,
    residual_potential,
    solve_dirichlet,
)
from .winding import (
    LoopTrace,
    difference_trace,
    multiplicity_at_zero,
    total_turn,
    winding_number,
)

from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
