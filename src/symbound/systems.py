"""One-degree-of-freedom Hamiltonian systems and their equilibria.

Three system classes are supported, one row each of the SystemClass
table, which names the expressions that define a system of the class:

  * general     h        dp/dt = -dH/dq,  dq/dt = dH/dp  for an energy H(p, q)
  * separable   t, v     H = T(p) + V(q), so dp/dt = -V'(q), dq/dt = T'(p)
  * newtonian   g        dp/dt = g(q),    dq/dt = p   (kinetic part fixed p^2/2)

Every class maps once to one set of derivative trees of H, all functions
of (p, q): H_p, H_q and the second derivatives H_pp, H_pq, H_qq.  A
newtonian system has H_p = p and H_q = -g(q) and no explicit H.  The trees
are produced symbolically and compiled at construction time, so
linearizations carry no differencing error, and the vector field, the
Jacobian and the step kernels are built from the same set for every class.
Systems are immutable after construction, except for a cache of step
kernels that schemes.step fills the first time it steps a scheme on the
system.  They are safe to share between threads: a race on the cache only
builds one kernel twice.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .mat2 import Mat2


class NotAnEquilibrium(Exception):
    pass


class NotTraceFree(Exception):
    pass


class NotApplicable(Exception):
    """An operation was requested for a system class that does not support it."""


class SystemClass(enum.Enum):
    """The class table: (name, expression keys) per row."""

    GENERAL = ("general", ("h",))
    SEPARABLE = ("separable", ("t", "v"))
    NEWTONIAN = ("newtonian", ("g",))

    def __new__(cls, value, keys):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.keys = keys  # the expressions that define a system, in order
        return kind


class State(NamedTuple):
    p: float
    q: float


class EquilibriumKind(enum.Enum):
    CENTER = "center"
    SADDLE = "saddle"
    RANK1_DEGENERATE = "rank1-degenerate"
    RANK0_ZERO = "rank0-zero"


def _as_expr(e) -> ex.Expr:
    return ex.parse(e) if isinstance(e, str) else e


def _check_vars(e: ex.Expr, allowed: set[str], what: str) -> None:
    extra = ex.variables(e) - allowed
    if extra:
        raise ValueError(
            f"{what} may only use variables {sorted(allowed)}, got {sorted(extra)}"
        )


def _diff(e: ex.Expr, var: str) -> ex.Expr:
    return ex.simplify(ex.differentiate(e, var))


_ZERO = ex.Const(0.0)
_PQ = ("p", "q")  # the arguments of every compiled tree


def _energy_trees(kind: SystemClass, *exprs: ex.Expr):
    """(H, H_p, H_q, H_pq) of a class after its variable checks; H is None
    for a newtonian system, whose potential is not reconstructed."""
    if kind is SystemClass.GENERAL:
        (h,) = exprs
        _check_vars(h, {"p", "q"}, "H")
        h_p = _diff(h, "p")
        return h, h_p, _diff(h, "q"), _diff(h_p, "q")
    if kind is SystemClass.SEPARABLE:
        t, v = exprs
        _check_vars(t, {"p"}, "T")
        _check_vars(v, {"q"}, "V")
        return ex.Add(t, v), _diff(t, "p"), _diff(v, "q"), _ZERO
    (g,) = exprs
    _check_vars(g, {"q"}, "g")
    return None, ex.Var("p"), ex.Neg(g), _ZERO


class HamiltonianSystem:
    """A system of one of the three classes, with its compiled derivatives.

    ``h_p``, ``h_q``, ``h_pp``, ``h_pq`` and ``h_qq`` are compiled callables
    of (p, q), the same accessors for every class, and ``derivatives`` holds
    their trees in that order.  A system is built from its class and one
    expression (a tree or its text) per key of the class; ``exprs`` maps
    each key to its parsed tree.  ``kernels`` is the step-kernel cache of
    schemes.step, keyed by scheme name.
    """

    def __init__(self, kind: SystemClass, *exprs: ex.Expr | str):
        trees = tuple(map(_as_expr, exprs))
        self.kind = kind
        self.exprs = dict(zip(kind.keys, trees, strict=True))
        h, h_p, h_q, h_pq = _energy_trees(kind, *trees)
        self.derivatives = (h_p, h_q, _diff(h_p, "p"), h_pq, _diff(h_q, "q"))
        self._h_tree = h
        self._h = None if h is None else ex.compile_expr(h, _PQ)
        self.h_p, self.h_q, self.h_pp, self.h_pq, self.h_qq = (
            ex.compile_expr(tree, _PQ) for tree in self.derivatives
        )
        self.kernels = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def general(h) -> "HamiltonianSystem":
        return HamiltonianSystem(SystemClass.GENERAL, h)

    @staticmethod
    def separable(t, v) -> "HamiltonianSystem":
        return HamiltonianSystem(SystemClass.SEPARABLE, t, v)

    @staticmethod
    def newtonian(g) -> "HamiltonianSystem":
        return HamiltonianSystem(SystemClass.NEWTONIAN, g)

    def as_general(self) -> "HamiltonianSystem":
        """Reduce a separable system to the general class via H = T + V."""
        if self.kind is SystemClass.GENERAL:
            return self
        if self._h_tree is not None:
            return HamiltonianSystem.general(self._h_tree)
        raise ValueError(
            "a newtonian system has no explicit potential; construct the "
            "separable form with T = p^2/2 and a V satisfying V' = -g"
        )

    # -- evaluation --------------------------------------------------------

    def vector_field(self, x: State) -> tuple[float, float]:
        """(dp/dt, dq/dt) = (-H_q, H_p) at x."""
        return (-self.h_q(x.p, x.q), self.h_p(x.p, x.q))

    def energy(self, x: State) -> float:
        """H(p, q); unavailable for the newtonian class (no explicit V)."""
        if self._h is not None:
            return self._h(x.p, x.q)
        raise NotApplicable(
            "energy is not evaluable for a newtonian system without its potential"
        )

    def residual(self, x: State) -> float:
        dp, dq = self.vector_field(x)
        return math.hypot(dp, dq)

    def jacobian(self, x: State) -> Mat2:
        """Jacobian of the vector field at any phase point (trace-free)."""
        hpp = self.h_pp(x.p, x.q)
        hpq = self.h_pq(x.p, x.q)
        hqq = self.h_qq(x.p, x.q)
        return Mat2(-hpq, -hqq, hpp, hpq)

    def describe(self) -> str:
        parts = [f"{key}={ex.to_string(e)}" for key, e in self.exprs.items()]
        return " ".join([self.kind.value, *parts])


@dataclass(frozen=True)
class Equilibrium:
    point: State
    a: Mat2
    kind: EquilibriumKind
    residual: float
    continuum_suspected: bool = False


def collapse_continuum(eqs: list[Equilibrium]) -> list[Equilibrium]:
    """The equilibria a report covers: all of them, or only the first grid
    representative of a suspected continuum."""
    return eqs[:1] if eqs and eqs[0].continuum_suspected else eqs


def classify_equilibrium(a: Mat2, tol: float = 1e-9) -> EquilibriumKind:
    """Classify a trace-free linearization by its determinant and rank.

    Scale-aware thresholds: the determinant test uses tol * (1 + ||A||_F^2)
    so that degeneracy decisions survive rescaling of the system.
    """
    a11, a12, a21, a22 = a
    scale = 1.0 + (a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22)
    trace = a11 + a22
    if abs(trace) > tol * math.sqrt(scale):
        raise NotTraceFree(f"trace {trace!r} is not zero within tolerance")
    d = a11 * a22 - a12 * a21
    det_tol = tol * scale
    if d > det_tol:
        return EquilibriumKind.CENTER
    if d < -det_tol:
        return EquilibriumKind.SADDLE
    if max(abs(a11), abs(a12), abs(a21), abs(a22)) <= tol:
        return EquilibriumKind.RANK0_ZERO
    return EquilibriumKind.RANK1_DEGENERATE


def linearize(
    sys: HamiltonianSystem, x0: State, residual_tol: float = 1e-8
) -> Mat2:
    """Exact linearization at an equilibrium point."""
    if sys.residual(x0) > residual_tol:
        raise NotAnEquilibrium(
            f"vector field at {tuple(x0)} has residual {sys.residual(x0):.3e}"
        )
    return sys.jacobian(x0)


def _newton_root(
    sys: HamiltonianSystem, seed: State, tol: float, max_iter: int = 50
) -> State | None:
    """Damped Newton iteration on the vector field from one grid seed.

    Iterates past ``tol`` down to the rounding floor so accepted roots are
    fixed points of the schemes to full precision, not merely within tol.
    """
    x = seed
    try:
        r = sys.residual(x)
    except ex.DomainError:
        return None
    for _ in range(max_iter):
        if r <= 1e-15 * (1.0 + math.hypot(*x)):
            break
        try:
            f = sys.vector_field(x)
            j = sys.jacobian(x)
        except ex.DomainError:
            return None
        scale = 1.0 + j.frobenius_sq
        if abs(j.det) > 1e-14 * scale:
            step = j.solve((-f[0], -f[1]))
        else:
            # singular Jacobian: minimum-norm least-squares direction
            jm = np.array([[j.a11, j.a12], [j.a21, j.a22]])
            sol = np.linalg.lstsq(jm, np.array([-f[0], -f[1]]), rcond=None)[0]
            step = (float(sol[0]), float(sol[1]))
        if math.hypot(*step) < 1e-15 * (1.0 + math.hypot(*x)):
            break
        # halve the step while the residual grows
        lam = 1.0
        for _ in range(25):
            cand = State(x.p + lam * step[0], x.q + lam * step[1])
            try:
                rc = sys.residual(cand)
            except ex.DomainError:
                rc = math.inf
            if rc < r:
                x, r = cand, rc
                break
            lam *= 0.5
        else:
            break  # no improving step left; the residual is at its floor
    return x if r < tol else None


def find_equilibria(
    sys: HamiltonianSystem,
    box: tuple[tuple[float, float], tuple[float, float]] = ((-5.0, 5.0), (-5.0, 5.0)),
    grid: int = 32,
    tol: float = 1e-10,
) -> list[Equilibrium]:
    """Locate equilibria by Newton iteration seeded on a grid over ``box``.

    Converged points are deduplicated within distance 1e-6 and sorted by
    (q, p).  When more than ``grid`` distinct points converge the set is
    likely a continuum and every result carries ``continuum_suspected``.
    """
    (p_lo, p_hi), (q_lo, q_hi) = box
    if grid < 4:
        raise ValueError("grid must be at least 4")
    width, height = p_hi - p_lo, q_hi - q_lo
    if not (width > 0.0 and height > 0.0 and math.isfinite(width + height)):
        raise ValueError("degenerate search box")
    ps = [p_lo + (p_hi - p_lo) * i / (grid - 1) for i in range(grid)]
    qs = [q_lo + (q_hi - q_lo) * i / (grid - 1) for i in range(grid)]
    margin = 1e-9 * (1.0 + max(abs(p_lo), abs(p_hi), abs(q_lo), abs(q_hi)))
    found: list[State] = []
    for q0 in qs:
        for p0 in ps:
            root = _newton_root(sys, State(p0, q0), tol)
            if root is None:
                continue
            # Newton may wander out of the box; only report roots inside it
            if not (
                p_lo - margin <= root.p <= p_hi + margin
                and q_lo - margin <= root.q <= q_hi + margin
            ):
                continue
            for existing in found:
                if math.hypot(root.p - existing.p, root.q - existing.q) < 1e-6:
                    break
            else:
                found.append(root)
    found.sort(key=lambda s: (s.q, s.p))
    continuum = len(found) > grid
    out = []
    for x in found:
        a = sys.jacobian(x)
        out.append(
            Equilibrium(
                point=x,
                a=a,
                kind=classify_equilibrium(a),
                residual=sys.residual(x),
                continuum_suspected=continuum,
            )
        )
    return out
