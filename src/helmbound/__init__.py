"""Bound states of the 2-D Helmholtz equation on a semicircle+rectangle
domain, computed by Dirichlet-to-Neumann / Neumann-to-Dirichlet interface
embedding with an independent finite-difference cross-check.

The cross-check lives in ``helmbound.oracle`` and is not re-exported here:
it is the one module that imports scipy, so importing the package does not."""

from .assembly import (
    AssemblyContext,
    MatrixPair,
    Method,
    QuadratureConfig,
    assemble,
    build_context,
)
from .basis import BasisSpec, Parity
from .config import RunConfig, mode_seeds
from .geometry import (
    CompositeDomain,
    QuadratureRule1D,
    cartesian_to_polar,
    gauss_legendre,
    interface_rule,
    make_domain,
    semicircle_rule,
)
from .reconstruct import (
    FieldGrid,
    GridSpec,
    ModeEstimate,
    export_grid,
    gamma2_coefficients,
    sample_field,
)
from .solver import IterationTrace, iterate_mode
from .steklov import steklov_profile, steklov_table, steklov_trace

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
