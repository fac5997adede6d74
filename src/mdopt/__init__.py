"""Global optimization of continuous functions on compact sets via annealed
densities, shrinking significant sets, and a uniform-sequence optimizer."""

from .integrate import IntegratorConfig, default_config, log_integrate_exp
from .nmd import DensityLevel, Exponential, NascentMD, Rational
from .objective import Objective, catalog_get, catalog_names, evaluate_batch, gradient
from .region import CompactRegion, Estimate, GridMesh, box
from .schedule import ContinuationConfig, MinimizeResult, TraceRecord, run_continuation
from .sets import (
    BasinReport, SetKind, SignificantSet, basin_masses, boundary_points,
    containment_check, descent_rate, equivalence_check_dtau, extract_set,
    shrink_rate_empirical, shrink_rate_theoretical, solve_boundary_move,
)
from .useq import UniformSeqState, useq_init, useq_run, useq_step

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
