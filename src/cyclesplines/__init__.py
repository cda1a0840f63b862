"""Exact arithmetic for integer splines on edge-labeled cycles.

A spline assigns an integer to every vertex of an edge-labeled graph so
that adjacent values agree modulo the edge label.  For cycles this package
constructs flow-up bases of the resulting module (triangulation, king, and
smallest, all closed forms at any size), verifies candidate bases,
decomposes splines exactly, and computes multiplication tables, all in
arbitrary-precision integer arithmetic.  An oracle that never consults the
closed forms certifies them, and the ``cyclesplines`` command exposes
everything on the command line.
"""

from .bases import (
    BASIS_KINDS,
    BasisCheck,
    BasisDefect,
    FlowUpBasis,
    check_flow_up_basis,
    king_basis,
    smallest_basis,
    smallest_flow_up_class,
    smallest_leading_entry,
    triangulation_basis,
    triangulation_spline,
)
from .errors import (
    BasisStructureError,
    BudgetExceededError,
    CycleSplinesError,
    DimensionError,
    InvariantViolationError,
    KingPreconditionError,
    NoSolutionError,
    NotInSpanError,
    NotInvertibleError,
)
from .numtheory import lcm, mod_inverse, solve_congruence_pair
from .oracle import (
    DEFAULT_MAX_STATES,
    EnumerationBudget,
    brute_force_smallest,
    check_basis_by_definition,
    default_budget,
    enumerate_flow_up_splines,
    lattice_smallest,
    smallest_class_bound,
    triangulated_graph,
    verify_triangulated_extension,
)
from .ring_algebra import (
    ProductDecomposition,
    decompose,
    king_multiplication_table,
    king_product,
    product_in_basis,
    reconstruct,
    triangulation_table_3cycle,
)
from .spline_core import (
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    EdgeViolation,
    Spline,
    SplineCheck,
    add,
    is_spline,
    labeled_edges,
    leading_zeros,
    pointwise_mul,
    scalar_mul,
    trivial_spline,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_KINDS",
    "BasisCheck",
    "BasisDefect",
    "BasisStructureError",
    "BudgetExceededError",
    "CycleSplinesError",
    "DEFAULT_MAX_STATES",
    "DimensionError",
    "EdgeLabeledCycle",
    "EdgeLabeledGraph",
    "EdgeViolation",
    "EnumerationBudget",
    "FlowUpBasis",
    "InvariantViolationError",
    "KingPreconditionError",
    "NoSolutionError",
    "NotInSpanError",
    "NotInvertibleError",
    "ProductDecomposition",
    "Spline",
    "SplineCheck",
    "add",
    "brute_force_smallest",
    "check_basis_by_definition",
    "check_flow_up_basis",
    "decompose",
    "default_budget",
    "enumerate_flow_up_splines",
    "is_spline",
    "king_basis",
    "king_multiplication_table",
    "king_product",
    "labeled_edges",
    "lattice_smallest",
    "lcm",
    "leading_zeros",
    "mod_inverse",
    "pointwise_mul",
    "product_in_basis",
    "reconstruct",
    "scalar_mul",
    "smallest_basis",
    "smallest_class_bound",
    "smallest_flow_up_class",
    "smallest_leading_entry",
    "solve_congruence_pair",
    "triangulated_graph",
    "triangulation_basis",
    "triangulation_spline",
    "triangulation_table_3cycle",
    "trivial_spline",
    "verify_triangulated_extension",
]
