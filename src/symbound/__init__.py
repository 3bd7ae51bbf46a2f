"""symbound: when does a symplectic one-step method keep bounded orbits bounded?

The package linearizes one-degree-of-freedom Hamiltonian systems at their
equilibria, builds the exact 2x2 propagators of four symplectic schemes,
applies trace/rank preservation criteria, evaluates closed-form step-size
limits, and confirms them by spectral bisection and long-orbit simulation.
"""

from .analyzer import (
    BoundedSubspace,
    ContainmentNote,
    InconsistentPredicate,
    NotUnimodular,
    PreservationReport,
    PreservationVerdict,
    TauLimit,
    check_preservation,
    dim_bounded_continuous,
    dim_bounded_discrete,
    empirical_tau_max,
    preservation_report,
    tau_max,
    tau_max_from_matrix,
)
from .errorprop import (
    BoundednessResult,
    ErrorModel,
    SingularResolvent,
    closed_form_error,
    error_bounded,
    iterate_error,
)
from .expr import (
    DomainError,
    Expr,
    NonDifferentiableNode,
    ParseError,
    UnboundVariable,
    compile_expr,
    differentiate,
    parse,
    simplify,
    to_string,
)
from .mat2 import Mat2
from .orbit import (
    Bounded,
    Escaped,
    LeftDomain,
    OrbitTrace,
    SolverFailed,
    simulate,
)
from .schemes import (
    ImplicitSolveFailed,
    NonFiniteLinearization,
    NotApplicable,
    Scheme,
    ShapeMismatch,
    SingularCayley,
    propagator,
    scheme_from_name,
    step,
    symplecticity_defect,
)
from .systems import (
    Equilibrium,
    EquilibriumKind,
    HamiltonianSystem,
    NotTraceFree,
    State,
    SystemClass,
    classify_equilibrium,
    find_equilibria,
)

__version__ = "0.1.0"
