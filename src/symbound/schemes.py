"""The four symplectic one-step methods and their linear propagators.

Each scheme is one row of the Scheme table: its name, the system classes it
applies to and, for the explicit schemes, its stages, applied in order.  A
kick moves p and a drift moves q by a fraction c of the step:

  euler-b         kick 1, drift 1
  yoshida2        drift 1/2, kick 1, drift 1/2 (order 2 leapfrog)
  stormer-verlet  kick 1/2, drift 1, kick 1/2, newtonian systems only

  kick: p <- p - c*tau*H_q(p, q)    drift: q <- q + c*tau*H_p(p, q)

with the system's derivatives, so one fold serves every class: H_q = V'(q),
H_p = T'(p) for a separable system, H_q = -g(q), H_p = p for a newtonian
one.

Each row builds its step template from its stages when it is defined: one
straight line per kick or drift, holding $h_q or $h_p.  step runs the kernel
HamiltonianSystem.kernel makes of it for the system, which reads the
system's constants as locals bound once and builds the new State with
tuple.__new__, skipping the named tuple's Python-level __new__.  At a
trace-free linearization A of the separable shape [[0, a12], [a21, 0]] the
stages are the exact matrices

    kick(c)  = [[1, c*tau*a12], [0, 1]]
    drift(c) = [[1, 0], [c*tau*a21, 1]]

and their product S(tau), last stage leftmost, is the row's s_lines, the
straight-line code each row builds from its stages when it is defined:
each stage is one line of the 2x2 product, every 0.0 term kept, so the
propagator entries carry no differencing error.  Every row so far has
tr S = 2 - tau^2 det A, hence the one explicit limit 2 / sqrt(det A).

The implicit midpoint rule has no stages:

  implicit-midpoint  P = p - tau*H_q(mid), Q = q + tau*H_p(mid), mid = (x+X)/2,
                     solved by damped Newton

Its step template, _MIDPOINT, is that solve with the 2x2 Newton matrix
spelled out in Mat2's operation order, so it gives the same bits and raises
the same errors at the same points as the solve written on the compiled
accessors and Mat2.  It evaluates a guarded call that repeats among the
texts read at one Newton point once there, and the Newton matrix entries
that come from constant trees once a step (_newton_block).  Where H_pq is
the constant 0.0, the diagonal is 1.0 exactly for every 0 < tau < inf, the
only step sizes step admits, and its products fold away.

Its s_lines are the Cayley transform (I - (tau/2)A)^-1 (I + (tau/2)A);
it ceases to exist at the first tau where the denominator determinant
reaches zero, and is reported singular from that point on (the one-step
family is not continued past the singularity).

Every row's s_entries is generated from its s_lines when the row is
defined.  shaped_propagator and the analyzer's verdicts are generated from
them on first use, between the step-size check and the unimodularity
guard, one text for both (guarded_s_body).
s_entries(a, tau) gives (S, Cayley det, singular), unguarded, with the
same bits for a float tau and an ndarray of taus (then S is a Mat2 of
arrays); a stage row's last two are None and False.  A singular
float tau gives no S, as float division by a zero determinant raises;
array rows are divided anyway, and the caller masks them.

Schemes are stateless: step and propagator are pure functions, safe to
call concurrently (two threads may build the same kernel, or the same
shaped propagator, once each).
"""

import enum
import math
import string

from . import expr as ex
from .mat2 import DECISION_TOL, UNIMODULARITY, Mat2
from .systems import (
    HamiltonianSystem,
    NonFiniteLinearization,  # noqa: F401 - re-exported
    NotApplicable,
    ShapeMismatch,
    State,
    SystemClass,
    require_linearization,
)


class ImplicitSolveFailed(Exception):
    """The implicit midpoint solve hit a (near-)singular Newton matrix or
    failed to converge; the step size is at or beyond the solvability limit."""


class SingularCayley(Exception):
    pass


KICK, DRIFT = True, False  # a stage is (move, fraction c of the step)

_EXPLICIT = frozenset({SystemClass.SEPARABLE, SystemClass.NEWTONIAN})

UNIMODULAR_TOL = 1e-10  # propagator's bound on |det S - 1| / (1 + |S|_F^2)


def _times(x: str, y: str) -> str:
    """The source of x * y, with a factor 1.0 left out: 1.0 * y == y for
    every float y."""
    return y if x == "1.0" else x if y == "1.0" else f"{x} * {y}"


def _newton_block(texts) -> dict[str, str]:
    """_MIDPOINT's Newton block for one system, from the kernel mapping
    texts (HamiltonianSystem.kernel): the matrix [[a11, a12], [a21, a22]] =
    I + (tau/2) [[H_pq, H_qq], [-H_pp, -H_pq]] at the midpoint, its det and
    singular test, and the solve's numerators $dp and $dq.

    An entry from a constant tree is computed once a step ($per_step), and
    so is a square, det or the singular test where all its entries are;
    the rest is computed once a Newton iteration ($matrix), evaluating the
    point texts of H_pq, H_qq and H_pp in that order.  Where H_pq is the
    constant 0.0 (either sign), the diagonal 1.0 + ht * 0.0 is 1.0 exactly
    for every 0 < tau < inf, the step sizes step admits, and the products
    by it fold away (_times)."""
    constant = texts["constant"]
    step, point = [], []
    once = {"1.0"}  # the sources computed once a step

    def assign(name: str, source: str, per_step: bool) -> str:
        (step if per_step else point).append(f"{name} = {source}")
        if per_step:
            once.add(name)
        return name

    folded = constant.get("h_pq") == 0.0
    if not folded:
        assign("h_pq", texts["at_h_pq"], "h_pq" in constant)
    a12 = assign("a12", f"ht * {texts['at_h_qq']}", "h_qq" in constant)
    a21 = assign("a21", f"nht * {texts['at_h_pp']}", "h_pp" in constant)
    if folded:
        a11 = a22 = "1.0"
    else:
        a11 = assign("a11", "1.0 + ht * h_pq", "h_pq" in constant)
        a22 = assign("a22", "1.0 - ht * h_pq", "h_pq" in constant)
    entries = (a11, a12, a21, a22)
    linear = once.issuperset(entries)
    assign("det", f"{_times(a11, a22)} - {_times(a12, a21)}", linear)
    squares = []
    for e in entries:
        square = _times(e, e)
        if e in once and square != "1.0" and not linear:  # s12 = a12 * a12
            square = assign(f"s{e[1:]}", square, True)
        squares.append(square)
    singular = f"abs(det) <= DECISION_TOL * (1.0 + ({' + '.join(squares)}))"
    if linear:
        singular = assign("singular", singular, True)
    return dict(
        per_step=ex.indent("\n".join(step), 1),
        matrix=ex.indent("\n".join(point), 2),
        singular=singular,
        dp=f"{_times('b0', a22)} - {_times(a12, 'b1')}",
        dq=f"{_times(a11, 'b1')} - {_times('b0', a21)}",
    )


class _NewtonTemplate(string.Template):
    """_MIDPOINT: a step template whose Newton block _newton_block builds
    for each system, before the texts are substituted."""

    def substitute(self, texts):
        return super().substitute(texts, **_newton_block(texts))


# The implicit midpoint rule's damped Newton solve.  p, q are the midpoint,
# at which the point texts are evaluated: the residual's $at_h_q and
# $at_h_p, then the next Newton matrix's ($matrix), so that a call they
# repeat is bound to a local at its first use and read from it after.
# (pn, qn) is the iterate, and p, q stay its midpoint from one Newton
# iteration to the next.  The full step (lam = 1.0, as 1.0 * d == d) is
# tried before the halving loop.  The Newton matrix is spelled out in
# Mat2's det, frobenius_sq and solve order; ht and nht are its factors
# 0.5 * tau and -0.5 * tau, computed once a step, as are rx, orx = 1.0 + rx,
# lo = 1e-12 * orx and what $per_step computes from the constant trees.
# The starting iterate is tested against its target before the loop, and
# each accepted iterate (cp, cq) once, at the end of its iteration: first
# against lo, then, only where its residual rcn exceeds lo, against its
# target 1e-12 * (orx + |(cp, cq)|).  The norm is never negative and
# rounding is monotone, so the target is at least lo and the first test
# returns only where the second would; a NaN or infinite rcn fails both.
# The iteration cap is _ITERATIONS, range(100), bound once per kernel.
_MIDPOINT = _NewtonTemplate("""\
def _step(x, tau):
    xp, xq = x
    ht, nht = 0.5 * tau, -0.5 * tau
    # absolute 1e-12 is unreachable at large amplitudes; scale accordingly
    rx = _hypot(xp, xq)
    orx = 1.0 + rx
    lo = 1e-12 * orx
$per_step
    pn, qn = xp, xq
    p, q = 0.5 * (xp + pn), 0.5 * (xq + qn)
    r0, r1 = pn - xp + tau * $at_h_q, qn - xq - tau * $at_h_p
    rn = _hypot(r0, r1)
    target = 1e-12 * (orx + rx)  # pn, qn == xp, xq here
    if rn <= target:
        return _tuple_new(State, (pn, qn))
    for _ in _ITERATIONS:
$matrix
        if $singular:
            raise ImplicitSolveFailed(f"singular Newton matrix at tau={tau!r}")
        # Mat2.solve's zero check cannot fire here: the test above catches a zero
        # det unless its bound is NaN, which takes a NaN entry, and then
        # det is NaN too
        b0, b1 = -r0, -r1
        dp, dq = ($dp) / det, ($dq) / det
        cp, cq = pn + dp, qn + dq
        p, q = 0.5 * (xp + cp), 0.5 * (xq + cq)
        c0, c1 = cp - xp + tau * $at_h_q, cq - xq - tau * $at_h_p
        rcn = _hypot(c0, c1)
        if not (rcn < rn or rcn <= target):
            lam = 0.5
            for _ in range(59):
                cp, cq = pn + lam * dp, qn + lam * dq
                p, q = 0.5 * (xp + cp), 0.5 * (xq + cq)
                c0, c1 = cp - xp + tau * $at_h_q, cq - xq - tau * $at_h_p
                rcn = _hypot(c0, c1)
                if rcn < rn or rcn <= target:
                    break
                lam *= 0.5
            else:
                raise ImplicitSolveFailed(
                    f"damped Newton stalled at residual {rn:.3e} (tau={tau!r})"
                )
        if rcn <= lo:
            return _tuple_new(State, (cp, cq))
        target = 1e-12 * (orx + _hypot(cp, cq))
        if rcn <= target:
            return _tuple_new(State, (cp, cq))
        pn, qn = cp, cq
        r0, r1 = c0, c1
        rn = rcn
    raise ImplicitSolveFailed(
        f"no convergence after 100 iterations (tau={tau!r})"
    )
""")


def _stage_step(stages) -> string.Template:
    """The step template of a stage row: one straight line per kick or
    drift, by (c * tau), or by tau itself for c = 1.0, as 1.0 * tau == tau."""
    moves = []
    for move, c in stages:
        factor = "tau" if c == 1.0 else f"({c!r} * tau)"
        moves.append(f"    p = p - {factor} * $h_q" if move is KICK
                     else f"    q = q + {factor} * $h_p")
    return string.Template("\n".join(
        ["def _step(x, tau):", "    p, q = x", *moves,
         "    return _tuple_new(State, (p, q))"]
    ))


# builds a Mat2 from the tuple of its entries, as Mat2's own __new__ does,
# one Python call faster
_tuple_new = tuple.__new__

# one stage of the fold: S @ [[1, k], [0, 1]] for a kick, S @ [[1, 0], [d, 1]]
# for a drift
_KICK_LINES = """\
k = ({c!r} * tau) * a12
s11, s12, s21, s22 = s11 + s12 * 0.0, s11 * k + s12, s21 + s22 * 0.0, s21 * k + s22"""
_DRIFT_LINES = """\
d = ({c!r} * tau) * a21
s11, s12, s21, s22 = s11 + s12 * d, s11 * 0.0 + s12, s21 + s22 * d, s21 * 0.0 + s22"""


def _stage_lines(stages) -> str:
    """The s_lines of a stage row: start from the last stage's matrix and
    right-multiply by each earlier one, as Mat2.__matmul__ does less its
    x * 1.0 == x factors; the 0.0 terms stay, because they decide signed
    zeros, infinities and NaNs."""
    move, c = stages[-1]
    if move is KICK:
        first = f"1.0, ({c!r} * tau) * a12, 0.0, 1.0"
    else:
        first = f"1.0, 0.0, ({c!r} * tau) * a21, 1.0"
    return "\n".join([
        f"s11, s12, s21, s22 = {first}",
        *(
            (_KICK_LINES if move is KICK else _DRIFT_LINES).format(c=c)
            for move, c in stages[-2::-1]
        ),
    ])


# The s_lines of the implicit midpoint row: the Cayley transform
# (I - B)^-1 (I + B), B = tau A / 2, with $on_singular run where its
# denominator determinant det is singular.
_CAYLEY_LINES = """\
h = 0.5 * tau
b11, b12, b21, b22 = h * a11, h * a12, h * a21, h * a22
d11, d12, d21, d22 = 1.0 - b11, 0.0 - b12, 0.0 - b21, 1.0 - b22
det = d11 * d22 - d12 * d21
singular = det <= DECISION_TOL * (
    1.0 + (d11 * d11 + d12 * d12 + d21 * d21 + d22 * d22)
)
if singular is True:
    $on_singular
i11, i12, i21, i22 = d22 / det, -d12 / det, -d21 / det, d11 / det
p11, p12, p21, p22 = 1.0 + b11, 0.0 + b12, 0.0 + b21, 1.0 + b22
s11, s12, s21, s22 = (
    i11 * p11 + i12 * p21,
    i11 * p12 + i12 * p22,
    i21 * p11 + i22 * p21,
    i21 * p12 + i22 * p22,
)"""


def _s_code(scheme: "Scheme", on_singular: str) -> str:
    """The row's s_lines as straight-line code from the locals a11, a12,
    a21, a22 and tau to s11, s12, s21, s22, running on_singular, which
    leaves the function, where the Cayley form is singular."""
    return string.Template(scheme.s_lines).substitute(on_singular=on_singular)


def _new_s_entries(scheme: "Scheme"):
    """Generate the row's s_entries from its s_lines."""
    tail = "None, False" if scheme.stages else "det, singular"
    source = (
        "def _s_entries(a, tau):\n"
        "    a11, a12, a21, a22 = a\n"
        f"{ex.indent(_s_code(scheme, 'return None, det, True'), 1)}\n"
        f"    return _tuple_new(Mat2, (s11, s12, s21, s22)), {tail}"
    )
    return ex.define(
        source, "_s_entries", (),
        Mat2=Mat2, _tuple_new=_tuple_new, DECISION_TOL=DECISION_TOL,
    )


class Scheme(enum.Enum):
    """The scheme table: (name, applicable classes, stages) per row."""

    EULER_B = ("euler-b", _EXPLICIT, ((KICK, 1.0), (DRIFT, 1.0)))
    YOSHIDA2 = ("yoshida2", _EXPLICIT, ((DRIFT, 0.5), (KICK, 1.0), (DRIFT, 0.5)))
    STORMER_VERLET = (
        "stormer-verlet",
        frozenset({SystemClass.NEWTONIAN}),
        ((KICK, 0.5), (DRIFT, 1.0), (KICK, 0.5)),
    )
    IMPLICIT_MIDPOINT = ("implicit-midpoint", frozenset(SystemClass), ())

    def __new__(cls, value, classes, stages):
        scheme = object.__new__(cls)
        scheme._value_ = value
        scheme.classes = classes  # frozenset of SystemClass
        scheme.stages = stages  # empty for the implicit midpoint rule
        scheme.template = _stage_step(stages) if stages else _MIDPOINT
        # S(tau) as straight-line code, from which s_entries and the
        # analyzer's verdicts are generated
        scheme.s_lines = _stage_lines(stages) if stages else _CAYLEY_LINES
        # (a, tau) -> (S(tau), Cayley det, singular)
        scheme.s_entries = _new_s_entries(scheme)
        # (a, tau) -> S(tau), guarded: shaped_propagator, generated on first use
        scheme.shaped = None
        return scheme

    def applicable_to(self, sys: HamiltonianSystem) -> bool:
        return sys.kind in self.classes


# the schemes that apply to each system class, in table order
SCHEMES_BY_CLASS = {
    kind: tuple(s for s in Scheme if kind in s.classes) for kind in SystemClass
}


def scheme_from_name(name: str) -> Scheme:
    for scheme in Scheme:
        if scheme.value == name:
            return scheme
    raise ValueError(f"unknown scheme {name!r}; expected one of "
                     f"{[s.value for s in Scheme]}")


# ---------------------------------------------------------------------------
# Nonlinear stepping

def step_size_error(tau: float) -> ValueError:
    """The ValueError for a step size tau outside (0, inf)."""
    if tau <= 0.0:
        return ValueError("step size must be positive")
    return ValueError(f"step size must be finite, got {tau!r}")


def step(scheme: Scheme, sys: HamiltonianSystem, x: State, tau: float) -> State:
    """Advance one step of size tau, 0 < tau < inf, with the scheme's kernel
    for sys; a step outside an expression's domain (sin at inf too) raises
    DomainError."""
    # tau * 0.0 + tau is tau for a finite tau and NaN for an infinity or a
    # NaN: one comparison per step, against a constant
    if not tau * 0.0 + tau > 0.0:
        raise step_size_error(tau)
    try:
        kernel = sys.kernels[scheme.template]
    except KeyError:
        kernel = _new_kernel(scheme, sys)
    try:
        return kernel(x, tau)
    except ValueError as err:
        raise ex.DomainError(str(err)) from err


def _new_kernel(scheme: Scheme, sys: HamiltonianSystem):
    """The scheme's step function (x, tau) -> State for sys: the kernel
    sys.kernel makes of the row's template."""
    if not scheme.applicable_to(sys):
        raise NotApplicable(
            f"scheme {scheme.value} does not apply to a {sys.kind.value} system"
        )
    return sys.kernel(
        scheme.template, "_step", ImplicitSolveFailed=ImplicitSolveFailed,
        _hypot=math.hypot, DECISION_TOL=DECISION_TOL, _ITERATIONS=range(100),
    )


def explicit_euler_step(sys: HamiltonianSystem, x: State, tau: float) -> State:
    """Classical explicit Euler.  Non-symplectic; kept as a control so the
    symplecticity test has a known failure case."""
    dp, dq = sys.vector_field(x)
    return State(x.p + tau * dp, x.q + tau * dq)


# ---------------------------------------------------------------------------
# Closed-form propagators

# The guards and the closed forms below unpack the entries once and spell out
# Mat2's trace / det / frobenius_sq / max_norm / @ in the same operation
# order, so every float equals its Mat2 expression bit for bit.

def require_shape(scheme: Scheme, a: Mat2) -> None:
    """require_linearization (NonFiniteLinearization, then NotTraceFree),
    then for the explicit schemes ShapeMismatch unless A is [[0, *], [*, 0]].
    It checks A only; it does not classify it."""
    require_linearization(a)
    if not scheme.stages:
        return
    a11, a12, a21, a22 = a
    tol = 1e-12 * (1.0 + max(abs(a11), abs(a12), abs(a21), abs(a22)))
    if abs(a11) > tol or abs(a22) > tol:
        raise ShapeMismatch(
            "explicit schemes need a separable linearization [[0, *], [*, 0]]"
        )


def propagator(scheme: Scheme, a: Mat2, tau: float) -> Mat2:
    """Exact S(tau) for the scheme applied to the linear system y' = A y:
    require_shape on A, then shaped_propagator, so a bad A is reported
    before a bad tau."""
    require_shape(scheme, a)
    return shaped_propagator(scheme, a, tau)


def shaped_propagator(scheme: Scheme, a: Mat2, tau: float) -> Mat2:
    """propagator for an A that require_shape has passed: the step-size
    checks, S(tau), SingularCayley and the unimodularity guard."""
    return (scheme.shaped or _new_shaped(scheme))(a, tau)


def guarded_s_body(scheme: Scheme, on_singular: str, level: int) -> str:
    """Function-body code, indented by level blocks, from the locals a11,
    a12, a21, a22 and tau to the row's S(tau) in s11, s12, s21, s22: the
    step-size check, the row's s_lines (on_singular where the Cayley form
    is singular) and the unimodularity guard.  shaped_propagator and the
    analyzer's verdicts run it, with GUARD_NAMES among their globals."""
    return ex.indent("\n".join([
        "if not 0.0 < tau < _inf:",
        "    raise step_size_error(tau)",
        _s_code(scheme, on_singular),
        UNIMODULARITY.substitute(tol="UNIMODULAR_TOL"),
        "if lost:",
        '    raise AssertionError(f"propagator lost unimodularity: det={det!r}")',
    ]), level)


# the names guarded_s_body's code reads
GUARD_NAMES = dict(
    _inf=math.inf, step_size_error=step_size_error,
    UNIMODULAR_TOL=UNIMODULAR_TOL,
    DECISION_TOL=DECISION_TOL,
)


def _new_shaped(scheme: Scheme):
    """Generate the row's shaped_propagator, (a, tau) -> S(tau), and keep
    it on the row."""
    singular = (
        'raise SingularCayley(f"Cayley denominator determinant {det!r} at tau={tau!r}")'
    )
    source = "\n".join([
        "def _shaped(a, tau):",
        "    a11, a12, a21, a22 = a",
        guarded_s_body(scheme, singular, 1),
        "    return _tuple_new(Mat2, (s11, s12, s21, s22))",
    ])
    scheme.shaped = ex.define(
        source, "_shaped", (), SingularCayley=SingularCayley, Mat2=Mat2,
        _tuple_new=_tuple_new, **GUARD_NAMES,
    )
    return scheme.shaped


# ---------------------------------------------------------------------------
# Symplecticity diagnostics

_J = Mat2(0.0, 1.0, -1.0, 0.0)
_FD_H = 1e-5  # the central-difference step of the defects below


def _fd_jacobian(step_fn, x: State, h: float) -> Mat2:
    pp = step_fn(State(x.p + h, x.q))
    pm = step_fn(State(x.p - h, x.q))
    qp = step_fn(State(x.p, x.q + h))
    qm = step_fn(State(x.p, x.q - h))
    return Mat2(
        (pp.p - pm.p) / (2.0 * h),
        (qp.p - qm.p) / (2.0 * h),
        (pp.q - pm.q) / (2.0 * h),
        (qp.q - qm.q) / (2.0 * h),
    )


def symplecticity_defect(
    scheme: Scheme, sys: HamiltonianSystem, x: State, tau: float
) -> float:
    """max-norm of M^T J M - J for the finite-difference one-step Jacobian M.

    For one degree of freedom this equals |det M - 1|; an exactly symplectic
    map leaves only the O(h^2) differencing residue.
    """
    m = _fd_jacobian(lambda y: step(scheme, sys, y, tau), x, _FD_H)
    return (m.transpose() @ _J @ m - _J).max_norm


def explicit_euler_defect(sys: HamiltonianSystem, x: State, tau: float) -> float:
    """Same defect metric for the non-symplectic explicit Euler control."""
    m = _fd_jacobian(lambda y: explicit_euler_step(sys, y, tau), x, _FD_H)
    return (m.transpose() @ _J @ m - _J).max_norm

