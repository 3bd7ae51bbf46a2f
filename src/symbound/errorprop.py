"""Propagation of a constant per-step perturbation through a linear map.

The global error of a one-step method on a linear system obeys the
inhomogeneous recurrence

    Y_{n+1} = S Y_n + eta

whose closed form, when I - S is invertible, is

    Y_n = S^n (Y_0 - c) + c,    c = (I - S)^{-1} eta.

Boundedness of the sequence is decided structurally from the spectrum of
the unimodular S: elliptic maps (|tr S| < 2) keep every trajectory bounded;
hyperbolic maps (|tr S| > 2) keep exactly those whose expanding component
of Y_0 - c vanishes.
"""

import math
from dataclasses import dataclass

from .mat2 import DECISION_TOL, Mat2, Vec2, eigenvector, unimodularity_lost


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
    """Decide sup_n ||Y_n|| < inf structurally from the spectrum of S."""
    tol = 1e-12  # the relative zero of a component of Y0 - c and of S + I
    c = _resolvent_offset(model)
    xi = (model.y0[0] - c[0], model.y0[1] - c[1])
    tr = model.s.trace
    if abs(tr) < 2.0:
        return BoundednessResult(
            True, f"elliptic: |trace S| = {abs(tr)!r} < 2, S^n stays bounded"
        )
    if abs(tr) > 2.0:
        disc = math.sqrt(tr * tr - 4.0 * model.s.det)
        lam_expand = 0.5 * (tr + math.copysign(disc, tr))
        lam_contract = 0.5 * (tr - math.copysign(disc, tr))
        ve = eigenvector(model.s, lam_expand)
        vc = eigenvector(model.s, lam_contract)
        basis = Mat2(ve[0], vc[0], ve[1], vc[1])
        coeff_expand, _ = basis.solve(xi)
        scale = 1.0 + math.hypot(*xi)
        if abs(coeff_expand) <= tol * scale:
            return BoundednessResult(
                True,
                "hyperbolic: the expanding component of Y0 - (I-S)^-1 eta "
                "vanishes; the trajectory lies on the contracting line",
            )
        return BoundednessResult(
            False,
            f"hyperbolic: expanding eigenvalue {lam_expand!r} acts on a "
            f"non-zero component {coeff_expand!r}",
        )
    # |tr| == 2 with I - S invertible means tr == -2 (tr == 2 is singular)
    m = model.s + Mat2.identity()
    if m.max_norm <= tol:
        return BoundednessResult(True, "S = -I: the orbit alternates, bounded")
    k = m.apply(xi)
    if math.hypot(*k) <= tol * (1.0 + math.hypot(*xi)):
        return BoundednessResult(
            True, "parabolic about -I: Y0 - c lies in the kernel of S + I"
        )
    return BoundednessResult(
        False, "parabolic about -I: the shear component grows linearly"
    )
