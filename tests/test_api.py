"""The public API, pinned: the parameters of every function and exception
class the package exports, and the fields of every record (named tuple or
dataclass) it exports.  Adding a knob or a field, or removing a parameter
or a field, changes a line here, so the change shows up as a reviewed test
diff."""

import dataclasses
import inspect

import symbound

SIGNATURES = {
    "DomainError": "(*args)",
    "ImplicitSolveFailed": "(*args)",
    "InconsistentPredicate": "(*args)",
    "NonDifferentiableNode": "(*args)",
    "NonFiniteLinearization": "(*args)",
    "NotApplicable": "(*args)",
    "NotTraceFree": "(*args)",
    "NotUnimodular": "(*args)",
    "ParseError": "(message, position)",
    "ShapeMismatch": "(*args)",
    "SingularCayley": "(*args)",
    "SingularResolvent": "(*args)",
    "UnboundVariable": "(*args)",
    "check_preservation": "(a, s)",
    "classify_equilibrium": "(a)",
    "closed_form_error": "(model, n)",
    "compile_expr": "(expr, args)",
    "differentiate": "(expr, var)",
    "dim_bounded_continuous": "(a)",
    "dim_bounded_discrete": "(s)",
    "empirical_tau_max": "(scheme, eq, tau_hi=10.0, tol=1e-06)",
    "error_bounded": "(model)",
    "find_equilibria": "(sys, box=((-5.0, 5.0), (-5.0, 5.0)), grid=32, tol=1e-10)",
    "iterate_error": "(model, n)",
    "parse": "(text)",
    "preservation_report": (
        "(sys, scheme, tau_list, equilibria, tau_hi=10.0, bisect_tol=1e-06)"
    ),
    "propagator": "(scheme, a, tau)",
    "scheme_from_name": "(name)",
    "simplify": "(expr)",
    "simulate": (
        "(sys, scheme, x0, tau, n_max=100000, escape_radius=1000000.0, stride=None)"
    ),
    "step": "(scheme, sys, x, tau)",
    "symplecticity_defect": "(scheme, sys, x, tau)",
    "tau_max": "(scheme, eq)",
    "tau_max_from_matrix": "(scheme, a)",
    "to_string": "(expr)",
}

FIELDS = {
    "Bounded": "(n_steps, max_radius)",
    "BoundedSubspace": "(dim, basis, whole_space)",
    "BoundednessResult": "(bounded, reason)",
    "Equilibrium": "(point, a, kind, residual, continuum_suspected)",
    "ErrorModel": "(s, eta, y0)",
    "Escaped": "(step, radius)",
    "Expr": "()",
    "LeftDomain": "(step, reason)",
    "Mat2": "(a11, a12, a21, a22)",
    "OrbitTrace": "(initial, scheme, tau, steps, states, verdict)",
    "PreservationReport": "(system, scheme, taus, entries)",
    "PreservationVerdict": (
        "(case, condition_holds, marginal, dim_b_a, dim_b_s, containment)"
    ),
    "SolverFailed": "(step)",
    "State": "(p, q)",
    "TauLimit": "(value, singular)",
}


def _parameters(obj) -> str:
    """The signature less its annotations; an exception class that keeps
    BaseException's constructor has none inspect can read, and takes *args."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return "(*args)"
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_exported_signatures_are_pinned():
    exported = {
        name: _parameters(obj)
        for name, obj in vars(symbound).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(obj)
            or (inspect.isclass(obj) and issubclass(obj, BaseException))
        )
    }
    assert exported == SIGNATURES


def _fields(cls) -> str | None:
    """The field names of a dataclass or a named tuple, else None."""
    if dataclasses.is_dataclass(cls):
        names = [f.name for f in dataclasses.fields(cls)]
    elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
        names = list(cls._fields)
    else:
        return None
    return f"({', '.join(names)})"


def test_exported_record_fields_are_pinned():
    exported = {
        name: _fields(obj)
        for name, obj in vars(symbound).items()
        if not name.startswith("_") and inspect.isclass(obj)
    }
    assert {k: v for k, v in exported.items() if v is not None} == FIELDS
