"""Bound states of the 2-D Helmholtz equation on a semicircle+rectangle
domain, computed by Dirichlet-to-Neumann / Neumann-to-Dirichlet interface
embedding with an independent finite-difference cross-check."""

from .assembly import (
    AssemblyContext,
    MatrixPair,
    Method,
    QuadratureConfig,
    TrialPair,
    assemble,
    build_context,
    evaluate_discontinuous_functional,
)
from .basis import BasisSpec, Parity
from .config import RunConfig, mode_seeds
from .geometry import (
    CompositeDomain,
    QuadratureRule1D,
    QuadratureRule2D,
    cartesian_to_polar,
    gauss_legendre,
    interface_rule,
    make_domain,
    semicircle_rule,
)
from .oracle import Rectangle, fdm_eigen, richardson_eigen
from .reconstruct import (
    FieldGrid,
    GridSpec,
    ModeEstimate,
    export_grid,
    gamma2_coefficients,
    sample_field,
)
from .solver import (
    EigenSolution,
    IterationTrace,
    iterate_mode,
    select_mode,
    solve_generalized,
)
from .steklov import (
    rectangle_volume_norm,
    steklov_eigenvalue,
    steklov_eigenvalue_derivative,
    steklov_mode_field,
    steklov_table,
    steklov_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
