"""Propagation of a constant per-step perturbation through a linear map.

The global error of a one-step method on a linear system obeys the
inhomogeneous recurrence

    Y_{n+1} = S Y_n + eta

whose closed form, when I - S is invertible, is

    Y_n = S^n (Y_0 - c) + c,    c = (I - S)^{-1} eta,

so the sequence is bounded exactly when Y_0 - c lies in the bounded-orbit
subspace of the unimodular S: the subspace whose dimension analyze reports
as dimBS, from analyzer.dim_bounded_discrete with its DECISION_TOL band
about |tr S| = 2.  That is the whole plane for an elliptic S or S = -I,
and else one line: the contracting eigenline of a hyperbolic S, or the
kernel of S + I for a shear about -I.
"""

import math
from dataclasses import dataclass

from .analyzer import dim_bounded_discrete
from .mat2 import DECISION_TOL, Mat2, Vec2, unimodularity_lost


class SingularResolvent(Exception):
    """I - S is singular (trace 2 for unimodular S); the closed form does
    not apply and callers must iterate instead."""


@dataclass(frozen=True)
class ErrorModel:
    s: Mat2
    eta: Vec2
    y0: Vec2

    def __post_init__(self):
        det, lost = unimodularity_lost(*self.s, DECISION_TOL)
        if lost:
            raise ValueError(f"propagation matrix has det {det!r}, not 1")


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    reason: str

    def __bool__(self) -> bool:
        return self.bounded


def iterate_error(model: ErrorModel, n: int) -> Vec2:
    """n-fold application of Y <- S Y + eta.  The brute-force reference."""
    if n < 0:
        raise ValueError("step count must be non-negative")
    s, (e1, e2) = model.s, model.eta
    y1, y2 = model.y0
    for _ in range(n):
        y1, y2 = (
            s.a11 * y1 + s.a12 * y2 + e1,
            s.a21 * y1 + s.a22 * y2 + e2,
        )
    return (y1, y2)


def _resolvent_offset(model: ErrorModel) -> Vec2:
    """c = (I - S)^{-1} eta, or SingularResolvent."""
    m = Mat2.identity() - model.s
    if abs(m.det) <= 1e-12:
        raise SingularResolvent(
            f"I - S has determinant {m.det!r}; trace S is 2 within tolerance"
        )
    return m.solve(model.eta)


def closed_form_error(model: ErrorModel, n: int) -> Vec2:
    """Y_n evaluated from the closed form with a fast matrix power."""
    if n < 0:
        raise ValueError("step count must be non-negative")
    c = _resolvent_offset(model)
    xi = (model.y0[0] - c[0], model.y0[1] - c[1])
    propagated = model.s.power(n).apply(xi)
    return (propagated[0] + c[0], propagated[1] + c[1])


def error_bounded(model: ErrorModel) -> BoundednessResult:
    """Decide sup_n ||Y_n|| < inf: is Y0 - c in dim_bounded_discrete(S)?"""
    c = _resolvent_offset(model)
    xi = (model.y0[0] - c[0], model.y0[1] - c[1])
    bounded_subspace = dim_bounded_discrete(model.s)
    if bounded_subspace.whole_space:
        return BoundednessResult(
            True, "elliptic or S = -I: dimBS = 2, every orbit stays bounded"
        )
    ((u1, u2),) = bounded_subspace.basis
    off_line = u1 * xi[1] - u2 * xi[0]  # u is a unit vector
    if abs(off_line) <= 1e-12 * (1.0 + math.hypot(*xi)):
        return BoundednessResult(
            True,
            "dimBS = 1: Y0 - (I-S)^-1 eta lies on the bounded line (the "
            "contracting eigenline, or the kernel of a shear)",
        )
    return BoundednessResult(
        False,
        f"dimBS = 1: Y0 - (I-S)^-1 eta has a component {off_line!r} off the "
        f"bounded line {(u1, u2)!r}",
    )
