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
Jacobian and the generated kernels are built from the same set for every
class.  HamiltonianSystem.kernel turns a template of the derivative texts
into a kernel and caches it on the system; the kernels and the texts,
emitted once for all of them, are the only state a system changes after
construction.  A race on either only builds it twice, so systems are safe
to share between threads.  Nothing here imports numpy: the Newton
search's least-squares step at a singular Jacobian is a closed form of the
2x2 SVD (_least_squares_step).
"""

import enum
import functools
import math
import string
from dataclasses import dataclass
from typing import NamedTuple

from . import expr as ex
from .mat2 import DECISION_TOL, Mat2


class ShapeMismatch(Exception):
    """A linearization lacks the shape an operation needs."""


class NotTraceFree(ShapeMismatch):
    pass


class NonFiniteLinearization(ValueError):
    """The linearization A has an infinite or NaN entry."""


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
    """The case table of a trace-free linearization: (printed name, the
    paper's case number) per row."""

    CENTER = ("center", 1)
    SADDLE = ("saddle", 2)
    RANK1_DEGENERATE = ("rank1-degenerate", 3)
    RANK0_ZERO = ("rank0-zero", 4)

    def __new__(cls, value, case):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.case = case
        return kind


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
# the template names of the derivative texts, in the order of derivatives
_DERIVATIVE_NAMES = ("h_p", "h_q", "h_pp", "h_pq", "h_qq")
# the texts the implicit midpoint kernel evaluates at one point, in order:
# its residual's H_q and H_p, then its Newton matrix's H_pq, H_qq and H_pp
_POINT_ORDER = ("h_q", "h_p", "h_pq", "h_qq", "h_pp")


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
        return ex.Binary("+", t, v), _diff(t, "p"), _diff(v, "q"), _ZERO
    (g,) = exprs
    _check_vars(g, {"q"}, "g")
    return None, ex.Var("p"), ex.Neg(g), _ZERO


class HamiltonianSystem:
    """A system of one of the three classes, with its compiled derivatives.

    ``h_p``, ``h_q``, ``h_pp``, ``h_pq`` and ``h_qq`` are compiled callables
    of (p, q), the same accessors for every class, and ``derivatives`` holds
    their trees in that order.  A system is built from its class and one
    expression (a tree or its text) per key of the class; ``exprs`` maps
    each key to its parsed tree.  ``kernels`` caches what ``kernel``
    generates, keyed by template.
    """

    def __init__(self, kind: SystemClass, *exprs: ex.Expr | str):
        trees = tuple(map(_as_expr, exprs))
        self.kind = kind
        self.exprs = dict(zip(kind.keys, trees, strict=True))
        h, h_p, h_q, h_pq = _energy_trees(kind, *trees)
        self.derivatives = (h_p, h_q, _diff(h_p, "p"), h_pq, _diff(h_q, "q"))
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

    @functools.cached_property
    def _texts(self):
        """The template mapping, the def-line defaults that bind its
        constants, and the constants: emitted once per system.  The mapping
        holds each derivative text by its template name; under at_<name>,
        the texts of _POINT_ORDER emitted as one group, each call that
        repeats among them bound to a local where it is first evaluated and
        read from it after (ex.SharedCalls); and under constant, the value
        of each derivative tree that is a constant, by template name."""
        consts: list[float] = []
        trees = dict(zip(_DERIVATIVE_NAMES, self.derivatives))
        texts, starts = {}, {}
        for name, tree in trees.items():
            starts[name] = len(consts)
            texts[name] = ex.emit(tree, consts, "_k{}")
        shared = ex.SharedCalls(trees[name] for name in _POINT_ORDER)
        for name in _POINT_ORDER:
            # from the tree's own first slot, so that it reads the same slots;
            # with no call to share it is the derivative text
            texts[f"at_{name}"] = ex.emit(
                trees[name], consts[:starts[name]], "_k{}", shared
            ) if shared.names else texts[name]
        texts["constant"] = {
            name: tree.value for name, tree in trees.items()
            if isinstance(tree, ex.Const)
        }
        defaults = "".join(f", _k{i}=_c[{i}]" for i in range(len(consts)))
        return texts, defaults, consts

    def kernel(self, template: string.Template, name: str, **names):
        """The function that template's source binds to name, with the
        mapping of _texts substituted (template.substitute(texts)): the
        derivative texts for $h_p $h_q $h_pp $h_pq $h_qq, their point texts
        for $at_h_q $at_h_p $at_h_pq $at_h_qq $at_h_pp, in that order of
        evaluation at one point.  State, _tuple_new (tuple.__new__, which
        builds a State without its Python-level __new__) and names are its
        globals.  The texts read constant i as the local _ki, a parameter
        default _ki=_c[i] added to the def line that opens template: bound
        once per kernel, so the source depends only on the shapes of the
        trees, with each power of a variable to an integral constant of at
        least 1 a shape of its own (emit), on which calls repeat among the
        point texts and on what a template makes of the constant trees.
        Generated the first time, then cached in kernels under template."""
        kernel = self.kernels.get(template)
        if kernel is None:
            texts, defaults, consts = self._texts
            head, body = template.substitute(texts).split("):\n", 1)
            kernel = ex.define(
                f"{head}{defaults}):\n{body}", name, consts,
                State=State, _tuple_new=tuple.__new__, **names,
            )
            self.kernels[template] = kernel
        return kernel

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


_SINGULAR_KINDS = (EquilibriumKind.RANK1_DEGENERATE, EquilibriumKind.RANK0_ZERO)


def collapse_continuum(eqs: list[Equilibrium]) -> list[Equilibrium]:
    """The equilibria a report covers: all of them, or only the first grid
    representative of a suspected continuum."""
    return eqs[:1] if eqs and eqs[0].continuum_suspected else eqs


def require_linearization(a: Mat2) -> float:
    """The one check on a linearization A: NonFiniteLinearization unless
    every entry is finite, then NotTraceFree unless |tr A| <= DECISION_TOL *
    sqrt(1 + ||A||_F^2).  Returns the scale 1 + ||A||_F^2."""
    a11, a12, a21, a22 = a
    # x * 0.0 is 0.0 for every finite x and NaN for an infinity or a NaN
    if not a11 * 0.0 + a12 * 0.0 + a21 * 0.0 + a22 * 0.0 == 0.0:
        raise NonFiniteLinearization(
            f"linearization has a non-finite entry: {tuple(a)!r}"
        )
    scale = 1.0 + (a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22)
    trace = a11 + a22
    if abs(trace) > DECISION_TOL * math.sqrt(scale):
        raise NotTraceFree(f"linearization is not trace-free: trace={trace!r}")
    return scale


def classify_equilibrium(a: Mat2) -> EquilibriumKind:
    """Classify a linearization that passes require_linearization by its
    determinant and rank.

    Scale-aware thresholds: the determinant test uses DECISION_TOL *
    (1 + ||A||_F^2), so that degeneracy decisions survive rescaling.
    """
    det_tol = DECISION_TOL * require_linearization(a)
    a11, a12, a21, a22 = a
    d = a11 * a22 - a12 * a21
    if d > det_tol:
        return EquilibriumKind.CENTER
    if d < -det_tol:
        return EquilibriumKind.SADDLE
    if max(abs(a11), abs(a12), abs(a21), abs(a22)) <= DECISION_TOL:
        return EquilibriumKind.RANK0_ZERO
    return EquilibriumKind.RANK1_DEGENERATE


# The damped Newton iteration of find_equilibria on the vector field, from one
# grid seed (xp, xq).  p, q are the point the derivative texts are evaluated
# at; (xp, xq) is the iterate and (f0, f1) the field there, the one its
# residual r was computed from.  The residual, Mat2.det, frobenius_sq and
# solve are spelled out in their operation order.  It iterates past tol down
# to the rounding floor, so accepted roots are fixed points of the schemes to
# full precision, not merely within tol.  A point outside the expressions'
# domain is a DomainError, or a ValueError from math.sin, cos or tan at +-inf.
# basins holds (p, q, rho^2) per ball of a root already found (_basin); an
# iterate inside one returns None, as it would only find that root again.
_NEWTON = string.Template("""\
def _newton_root(xp, xq, tol, basins=()):
    p, q = xp, xq
    try:
        f0, f1 = -$h_q, $h_p
    except (DomainError, ValueError):
        return None
    r = _hypot(f0, f1)
    for _ in range(50):
        for bp, bq, rho_sq in basins:
            dp, dq = xp - bp, xq - bq
            if dp * dp + dq * dq < rho_sq:
                return None
        floor = 1e-15 * (1.0 + _hypot(xp, xq))
        if r <= floor:
            break
        try:  # p, q == xp, xq here
            a21 = $h_pp
            a22 = $h_pq
            a12 = -$h_qq
        except (DomainError, ValueError):
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
            except (DomainError, ValueError):
                rc = _inf
            if rc < r:
                xp, xq, r, f0, f1 = p, q, rc, c0, c1
                break
            lam *= 0.5
        else:
            break  # no improving step left; the residual is at its floor
    return _tuple_new(State, (xp, xq)) if r < tol else None
""")


# numpy's rcond=None rank rule for a 2x2 J: a singular value s counts as zero
# when s <= 2 eps s_max, that is when s * 2^51 <= s_max, a product that is
# exact short of overflow, where inf is still the right answer
_INV_RCOND = 2.0**51


def _least_squares_step(a11, a12, a21, a22, f0, f1):
    """The Newton step at a singular Jacobian J = [[a11, a12], [a21, a22]]:
    the minimum-norm least-squares solution x of J x = b = (-f0, -f1), in
    closed form from the SVD of J with numpy's rcond=None rank rule, or
    None when an entry of J or of the field is not finite.

    A zero diagonal, the shape of every separable and newtonian Jacobian,
    has the axes for singular vectors and |a21|, |a12| for singular values,
    so x is (b1 / a21, b0 / a12): each quotient correctly rounded, and +0.0
    where its singular value is dropped, (0.0, 0.0) for J = 0.

    Any other J and b are first scaled by powers of two, exactly, so that no
    product below over- or underflows; x is scaled back at the end, to +-inf
    where it overflows.  sigma_1^2 is the larger root of s^2 - |J|_F^2 s +
    det(J)^2 and sigma_2 = |det J| / sigma_1.  With both kept, x is the exact
    solve, by Cramer's rule.  With sigma_2 dropped, x is J^T b / |J|_F^2 =
    (sigma_1 v_1 (u_1 . b) + sigma_2 v_2 (u_2 . b)) / (sigma_1^2 + sigma_2^2):
    as sigma_2 <= 2 eps sigma_1, that is v_1 (u_1 . b) / sigma_1 to within
    2 eps |b| / sigma_1, the size of the rounding of u_1 . b.
    """
    # x * 0.0 is 0.0 for every finite x and NaN for an infinity or a NaN
    if not a11 * 0.0 + a12 * 0.0 + a21 * 0.0 + a22 * 0.0 + f0 * 0.0 + f1 * 0.0 == 0.0:
        return None
    b0, b1 = -f0, -f1
    if a11 == 0.0 and a22 == 0.0:  # J x = (a12 x1, a21 x0)
        top = max(abs(a12), abs(a21))
        return (
            b1 / a21 if abs(a21) * _INV_RCOND > top else 0.0,
            b0 / a12 if abs(a12) * _INV_RCOND > top else 0.0,
        )
    _, ea = math.frexp(max(abs(a11), abs(a12), abs(a21), abs(a22)))
    _, eb = math.frexp(max(abs(b0), abs(b1)))
    a11, a12, a21, a22 = (math.ldexp(a, -ea) for a in (a11, a12, a21, a22))
    b0, b1 = math.ldexp(b0, -eb), math.ldexp(b1, -eb)
    norm_sq = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22
    det = a11 * a22 - a12 * a21
    # max(, 0.0): the discriminant (sigma_1^2 - sigma_2^2)^2 can round below 0
    sigma1_sq = 0.5 * (
        norm_sq + math.sqrt(max(norm_sq * norm_sq - 4.0 * det * det, 0.0))
    )
    if abs(det) * _INV_RCOND > sigma1_sq:  # sigma_2 * 2^51 > sigma_1
        x0, x1 = (b0 * a22 - a12 * b1) / det, (a11 * b1 - b0 * a21) / det
    else:
        x0, x1 = (a11 * b0 + a21 * b1) / norm_sq, (a12 * b0 + a22 * b1) / norm_sq
    return _ldexp(x0, eb - ea), _ldexp(x1, eb - ea)


def _ldexp(x, e):
    """x * 2^e, correctly rounded, and +-inf where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _newton_kernel(sys: HamiltonianSystem):
    """The system's Newton kernel (p0, q0, tol, basins=()) -> State | None."""
    return sys.kernel(
        _NEWTON, "_newton_root", DomainError=ex.DomainError,
        _hypot=math.hypot, _inf=math.inf, _least_squares_step=_least_squares_step,
    )


def _basin(sys: HamiltonianSystem, x: State, a: Mat2, tol: float):
    """(p, q, rho^2) of a ball about the centre or saddle x, with Jacobian
    a, that no Newton iterate leaves once inside, or None.

    beta = ||a||_F / |det a| is ||a^-1||_F.  rho starts at 0.1 (1 + |x|) and
    is accepted when theta = beta * max ||J(y) - a||_F over the ball is at
    most 1/8, else rho <- 0.1 rho / theta, at most three times.  The max is
    bounded from above by enclosing H_pp, H_pq and H_qq over the square
    about the ball (ex.enclose), so it holds at every point of the ball,
    not only at samples.  With theta <= 1/8, J is invertible on the ball,
    a damped Newton step inside it contracts towards the one root there,
    and a point with residual below tol lies within (8/7) beta tol <=
    1.2e-7 of that root: a seed that enters the ball ends merged into x,
    outside the box or at no root.  A box that leaves the domain, or
    beta * tol > 1e-7, gives no ball.
    """
    a11, a12, a21, a22 = a
    beta = math.sqrt(a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22) / abs(
        a11 * a22 - a12 * a21
    )
    if not beta * tol <= 1e-7:
        return None
    rho = 0.1 * (1.0 + math.hypot(x.p, x.q))
    for _ in range(4):
        # a hair wider than the ball, for the rounding of the kernel's test
        w = rho * (1.0 + 1e-9)
        box = {
            name: (math.nextafter(c - w, -math.inf), math.nextafter(c + w, math.inf))
            for name, c in zip(_PQ, x)
        }
        try:
            (pp_lo, pp_hi), (pq_lo, pq_hi), (qq_lo, qq_hi) = (
                ex.enclose(tree, box) for tree in sys.derivatives[2:]
            )
        except ex.DomainError:
            return None
        # a = (-H_pq, -H_qq, H_pp, H_pq) at x
        dpp = max(pp_hi - a21, a21 - pp_lo)
        dpq = max(pq_hi - a22, a22 - pq_lo)
        dqq = max(qq_hi + a12, -a12 - qq_lo)
        theta = beta * math.sqrt(dpp * dpp + 2.0 * dpq * dpq + dqq * dqq)
        if theta <= 0.125:
            return x.p, x.q, rho * rho
        if not theta < math.inf:
            return None
        rho = 0.1 * rho / theta
    return None


def find_equilibria(
    sys: HamiltonianSystem,
    box: tuple[tuple[float, float], tuple[float, float]] = ((-5.0, 5.0), (-5.0, 5.0)),
    grid: int = 32,
    tol: float = 1e-10,
) -> list[Equilibrium]:
    """Locate equilibria by Newton iteration seeded on a grid over ``box``.

    Converged points are deduplicated within distance 1e-6 and sorted by
    (q, p).  Each new root is linearized and classified when it is found,
    and a centre or saddle gets a ball (_basin): a later seed whose iterate
    enters it stops, as it would only find that root again.  When at least
    ``grid`` distinct points converge and every one has a singular
    Jacobian, as all along a curve of equilibria, the set is likely a
    continuum and every result carries ``continuum_suspected``.
    A root whose Jacobian or residual leaves the expressions' domain, or
    whose Jacobian has a non-finite entry, has no linearization and is
    skipped.
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
    # (root, (a, kind, residual) or None where it has no linearization)
    found: list[tuple] = []
    basins: list[tuple[float, float, float]] = []
    for q0 in qs:
        for p0 in ps:
            root = newton_root(p0, q0, tol, basins)
            if root is None:
                continue
            # Newton may wander out of the box; only report roots inside it
            if not (
                p_lo - margin <= root.p <= p_hi + margin
                and q_lo - margin <= root.q <= q_hi + margin
            ):
                continue
            for existing, _ in found:
                if math.hypot(root.p - existing.p, root.q - existing.q) < 1e-6:
                    break
            else:
                try:
                    a, residual = sys.jacobian(root), sys.residual(root)
                    kind = classify_equilibrium(a)
                except (ex.DomainError, ValueError):
                    found.append((root, None))  # not linearizable, still found
                    continue
                found.append((root, (a, kind, residual)))
                if kind.case <= 2:
                    basin = _basin(sys, root, a, tol)
                    if basin is not None:
                        basins.append(basin)
    found.sort(key=lambda f: (f[0].q, f[0].p))
    linearized = [(x, *lin) for x, lin in found if lin is not None]
    continuum = len(found) >= grid and all(
        kind in _SINGULAR_KINDS for _, _, kind, _ in linearized
    )
    return [Equilibrium(*eq, continuum_suspected=continuum) for eq in linearized]
