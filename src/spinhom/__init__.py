"""Homogenization of periodic double-porosity spin systems.

A lattice model couples rigid spin clusters (strong bonds, surface
scaling) to a soft background (weak bonds and external forcing, bulk
scaling).  This package classifies the periodic geometry, computes the
directional surface tensions of the strong clusters and the effective
bulk coupling of the background, assembles the limit functional on
sharp-interface configurations, and checks discrete energies of
recovery configurations against it.
"""

from .bulk_density import (
    PhiRow,
    PhiTable,
    build_phi_instance,
    island_error_constant,
    phi_bracket,
    phi_estimate,
    phi_m,
    phi_solution,
)
from .connectivity import (
    CLASS_FINITE,
    CLASS_MULTIPLE,
    CLASS_UNIQUE,
    ConnectivitySummary,
    PeriodicComponent,
    classify,
    coarsening_side,
    excluded_set,
)
from .gamma_limit import (
    Box,
    Boxes,
    Constant,
    ConvergenceReport,
    ConvergenceRow,
    DomainSpec,
    ExtensionResult,
    MultiphaseField,
    Slab,
    SpinField,
    converge_report,
    count_broken_strong,
    extend,
    f_eps,
    f_hom,
    load_field,
    load_target,
    recovery_config,
    save_field,
)
from .ground_state import (
    CellTerms,
    FrustratedInstance,
    GroundStateInstance,
    Solution,
    TooManyFreeGroups,
    fold_instance,
    minimize,
    minimize_cut,
    minimize_enum,
)
from .model import (
    LatticeModel,
    SchemaError,
    ValidationReport,
    Violation,
    load_model,
    parse_model,
    serialize_model,
    validate,
)
from .surface_tension import (
    SurfaceRow,
    SurfaceTable,
    canonical_direction,
    cell_value,
    check_cells,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Boxes",
    "CLASS_FINITE",
    "CLASS_MULTIPLE",
    "CLASS_UNIQUE",
    "CellTerms",
    "Constant",
    "ConnectivitySummary",
    "ConvergenceReport",
    "ConvergenceRow",
    "DomainSpec",
    "ExtensionResult",
    "FrustratedInstance",
    "GroundStateInstance",
    "LatticeModel",
    "MultiphaseField",
    "PeriodicComponent",
    "PhiRow",
    "PhiTable",
    "SchemaError",
    "Slab",
    "Solution",
    "SpinField",
    "SurfaceRow",
    "SurfaceTable",
    "TooManyFreeGroups",
    "ValidationReport",
    "Violation",
    "build_phi_instance",
    "canonical_direction",
    "cell_value",
    "check_cells",
    "classify",
    "coarsening_side",
    "converge_report",
    "count_broken_strong",
    "excluded_set",
    "extend",
    "f_eps",
    "f_hom",
    "fold_instance",
    "island_error_constant",
    "load_field",
    "load_model",
    "load_target",
    "minimize",
    "minimize_cut",
    "minimize_enum",
    "parse_model",
    "phi_bracket",
    "phi_estimate",
    "phi_m",
    "phi_solution",
    "recovery_config",
    "save_field",
    "serialize_model",
    "validate",
]
