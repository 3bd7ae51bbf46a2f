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
Systems are immutable after construction, except for a cache of
kernels generated from the same trees: the step kernel of each scheme,
which schemes.step fills the first time it steps the scheme on the system,
and the damped-Newton kernel find_equilibria runs from every grid seed.
They are safe to share between threads: a race on the cache only builds
one kernel twice.
"""

import enum
import math
import string
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
    each key to its parsed tree.  ``kernels`` caches the generated kernels:
    schemes.step's, keyed by scheme name, and find_equilibria's Newton
    kernel, under a key that is not a string.
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


# The damped Newton iteration of find_equilibria on the vector field, from one
# grid seed (xp, xq).  p, q are the point the derivative texts are evaluated
# at; (xp, xq) is the iterate and (f0, f1) the field there, the one its
# residual r was computed from.  The residual, Mat2.det, frobenius_sq and
# solve are spelled out in their operation order.  It iterates past tol down
# to the rounding floor, so accepted roots are fixed points of the schemes to
# full precision, not merely within tol.
_NEWTON = string.Template("""\
def _newton_root(xp, xq, tol):
    p, q = xp, xq
    try:
        f0, f1 = -$h_q, $h_p
    except DomainError:
        return None
    r = _hypot(f0, f1)
    for _ in range(50):
        floor = 1e-15 * (1.0 + _hypot(xp, xq))
        if r <= floor:
            break
        try:  # p, q == xp, xq here
            a21 = $h_pp
            a22 = $h_pq
            a12 = -$h_qq
        except DomainError:
            return None
        a11 = -a22
        det = a11 * a22 - a12 * a21
        if abs(det) > 1e-14 * (
            1.0 + (a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22)
        ):
            b0, b1 = -f0, -f1
            s0, s1 = (b0 * a22 - a12 * b1) / det, (a11 * b1 - b0 * a21) / det
        else:
            step = _least_squares_step(a11, a12, a21, a22, f0, f1)
            if step is None:
                break  # a non-finite entry: no improving step left
            s0, s1 = step
        if _hypot(s0, s1) < floor:
            break
        # halve the step while the residual grows
        lam = 1.0
        for _ in range(25):
            p, q = xp + lam * s0, xq + lam * s1
            try:
                c0, c1 = -$h_q, $h_p
                rc = _hypot(c0, c1)
            except DomainError:
                rc = _inf
            if rc < r:
                xp, xq, r, f0, f1 = p, q, rc, c0, c1
                break
            lam *= 0.5
        else:
            break  # no improving step left; the residual is at its floor
    return State(xp, xq) if r < tol else None
""")
_NEWTON_KEY = ("newton",)  # its key in kernels: no scheme name, a str, equals it


def _least_squares_step(a11, a12, a21, a22, f0, f1):
    """The Newton step at a singular Jacobian: the minimum-norm least-squares
    direction, or None when an entry of the Jacobian or the field is not
    finite, which lstsq cannot take."""
    # x * 0.0 is 0.0 for every finite x and NaN for an infinity or a NaN
    if not a11 * 0.0 + a12 * 0.0 + a21 * 0.0 + a22 * 0.0 + f0 * 0.0 + f1 * 0.0 == 0.0:
        return None
    jm = np.array([[a11, a12], [a21, a22]])
    sol = np.linalg.lstsq(jm, np.array([-f0, -f1]), rcond=None)[0]
    return float(sol[0]), float(sol[1])


def _newton_kernel(sys: HamiltonianSystem):
    """The system's Newton kernel (p0, q0, tol) -> State | None, generated
    from its derivative trees the first time and cached in sys.kernels."""
    kernel = sys.kernels.get(_NEWTON_KEY)
    if kernel is None:
        consts: list[float] = []
        h_p, h_q, h_pp, h_pq, h_qq = (ex.emit(t, consts) for t in sys.derivatives)
        source = _NEWTON.substitute(h_p=h_p, h_q=h_q, h_pp=h_pp, h_pq=h_pq, h_qq=h_qq)
        kernel = ex.define(
            source, "_newton_root", consts,
            State=State, DomainError=ex.DomainError, _hypot=math.hypot,
            _inf=math.inf, _least_squares_step=_least_squares_step,
        )
        sys.kernels[_NEWTON_KEY] = kernel
    return kernel


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
    newton_root = _newton_kernel(sys)
    found: list[State] = []
    for q0 in qs:
        for p0 in ps:
            root = newton_root(p0, q0, tol)
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
