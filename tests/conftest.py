"""Shared test helpers: the tree evaluator that compile_expr is held to,
random expression trees, finite differences, per-class reference formulas
for the systems' compiled accessors, and the generic references for the
generated kernels: the step of schemes.step, the stage product S(tau) of
a stage row's s_entries, the Cayley transform of the midpoint row's, the
guarded propagator of shaped_propagator, the damped Newton root of
find_equilibria and the verdict predicate of the bisection; the orbit loop of orbit.simulate, on the reference step; and
the grid scan of find_equilibria with no basins."""

import functools
import math
import os
from pathlib import Path

import numpy as np

import symbound
from symbound import catalog
from symbound import expr as ex
from symbound.mat2 import DECISION_TOL, Mat2, unimodularity_lost
from symbound.orbit import (
    Bounded,
    Escaped,
    LeftDomain,
    OrbitTrace,
    SolverFailed,
    default_stride,
)
from symbound.schemes import (
    KICK,
    UNIMODULAR_TOL,
    ImplicitSolveFailed,
    SingularCayley,
    require_shape,
    step_size_error,
)
from symbound.systems import (
    _SINGULAR_KINDS,
    Equilibrium,
    HamiltonianSystem,
    NotApplicable,
    State,
    _least_squares_step,
    _newton_kernel,
    classify_equilibrium,
)


def pytest_configure(config):
    """Make the child processes of the CLI tests (python -m symbound) import
    the source tree these tests import, also where PYTHONPATH does not name it."""
    src = str(Path(symbound.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path
    )


# the reference's own arithmetic per operator, apart from _BINARY's value column
_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": ex._div,
    "^": ex._pow,
}


def evaluate(expr: ex.Expr, bindings: dict[str, float]) -> float:
    """The value of a tree by direct recursion, through the same guarded
    kernels as compile_expr: the reference compiled code must equal bitwise."""
    match expr:
        case ex.Const(value):
            return value
        case ex.Var(name):
            try:
                return bindings[name]
            except KeyError:
                raise ex.UnboundVariable(f"unbound variable {name!r}") from None
        case ex.Neg(arg):
            return -evaluate(arg, bindings)
        case ex.Binary(op, left, right):
            return _ARITHMETIC[op](evaluate(left, bindings), evaluate(right, bindings))
        case ex.Func(name, arg):
            return ex._FUNCS[name].value(evaluate(arg, bindings))
    raise TypeError(f"not an expression node: {expr!r}")


SAFE_FUNCS = ("sin", "cos", "tanh", "exp", "sinh", "cosh", "sqrt", "log")

# systems of the three classes, with domain edges, that the generated
# kernels are held to their references on
KERNEL_SYSTEMS = (
    catalog.pendulum(),
    catalog.shear(),
    HamiltonianSystem.general("p^2/2 + q^4/4 - q^2/2 + 0.3*p*q"),
    HamiltonianSystem.general("sqrt(1 + p^2) + log(2 + sin(q)) + p*q^2/5"),
    HamiltonianSystem.general("exp(p*q/4) + p^2/2 + q^2/2"),
    HamiltonianSystem.general("cosh(p) - 1.3*cos(q) + 0.4*p*sin(q)"),
    HamiltonianSystem.separable("p^4/4 + p^2/2", "q^3/3 - cos(q)"),
    HamiltonianSystem.separable("sqrt(1 + p^2)", "log(q + 3) - q/2"),
    catalog.pendulum_newtonian(),
    HamiltonianSystem.newtonian("q - q^3"),
    HamiltonianSystem.newtonian("q - q^9"),
    HamiltonianSystem.newtonian("1 - sqrt(q + 1)"),
    HamiltonianSystem.newtonian("-q/(1 + q^2)"),
)
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e300)


def random_tree(rng: np.random.Generator, depth: int, var_names=("x", "y")) -> ex.Expr:
    """Random expression tree of bounded depth over the given variables.

    Constants stay small and pow exponents are small integers so that most
    draws evaluate without domain errors; callers reject the rest.
    """
    if depth <= 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.5:
            return ex.Const(float(np.round(rng.uniform(-3.0, 3.0), 3)))
        return ex.Var(str(rng.choice(var_names)))
    kind = rng.integers(0, 8)
    if kind < 4:
        return ex.Binary("+-*/"[kind], random_tree(rng, depth - 1, var_names),
                         random_tree(rng, depth - 1, var_names))
    if kind == 4:
        return ex.Neg(random_tree(rng, depth - 1, var_names))
    if kind == 5:
        return ex.Binary("^", random_tree(rng, depth - 1, var_names),
                         ex.Const(float(rng.integers(0, 4))))
    name = str(rng.choice(SAFE_FUNCS))
    return ex.Func(name, random_tree(rng, depth - 1, var_names))


def random_bindings(rng: np.random.Generator, var_names=("x", "y")) -> dict:
    return {name: float(rng.uniform(-2.0, 2.0)) for name in var_names}


def try_eval(tree: ex.Expr, bindings: dict) -> float | None:
    """Evaluate, returning None on domain errors or wild magnitudes."""
    try:
        value = evaluate(tree, bindings)
    except ex.DomainError:
        return None
    if not math.isfinite(value) or abs(value) > 1e6:
        return None
    return value


def central_diff(tree: ex.Expr, bindings: dict, var: str, h: float = 1e-5):
    """Central finite difference of an expression, None when ill-posed."""
    up = dict(bindings)
    dn = dict(bindings)
    up[var] = bindings[var] + h
    dn[var] = bindings[var] - h
    fu = try_eval(tree, up)
    fd = try_eval(tree, dn)
    if fu is None or fd is None:
        return None
    return (fu - fd) / (2.0 * h)


def outcome_type(fn, *args):
    """fn's value, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the failure is part of the outcome
        return type(err)


def same_float(x: float, y: float) -> bool:
    """Bit equality, except that every NaN equals every other NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _d(e: ex.Expr, var: str) -> ex.Expr:
    return ex.simplify(ex.differentiate(e, var))


class ClassFormulas:
    """A system's derivatives compiled on their own from ``sys.exprs``, one
    class at a time, in each class's own terms: H and its derivatives for a
    general system, T, T', T'', V, V', V'' for a separable one, g and g' for
    a newtonian one.  The reference the one accessor set is checked against.
    """

    def __init__(self, sys):
        self.kind = sys.kind.value
        e = sys.exprs
        if self.kind == "general":
            h = e["h"]
            hp, hq = _d(h, "p"), _d(h, "q")
            self.h, self.hp, self.hq, self.hpp, self.hpq, self.hqq = (
                ex.compile_expr(tree, ("p", "q"))
                for tree in (h, hp, hq, _d(hp, "p"), _d(hp, "q"), _d(hq, "q"))
            )
        elif self.kind == "separable":
            t, v = e["t"], e["v"]
            self.t, self.t1, self.t2 = (
                ex.compile_expr(tree, ("p",)) for tree in (t, _d(t, "p"), _d(_d(t, "p"), "p"))
            )
            self.v, self.v1, self.v2 = (
                ex.compile_expr(tree, ("q",)) for tree in (v, _d(v, "q"), _d(_d(v, "q"), "q"))
            )
        else:
            self.g = ex.compile_expr(e["g"], ("q",))
            self.g1 = ex.compile_expr(_d(e["g"], "q"), ("q",))

    def vector_field(self, p: float, q: float) -> tuple[float, float]:
        if self.kind == "general":
            return (-self.hq(p, q), self.hp(p, q))
        if self.kind == "separable":
            return (-self.v1(q), self.t1(p))
        return (self.g(q), p)

    def jacobian(self, p: float, q: float) -> Mat2:
        if self.kind == "general":
            hpp, hpq, hqq = self.hpp(p, q), self.hpq(p, q), self.hqq(p, q)
        elif self.kind == "separable":
            hpp, hpq, hqq = self.t2(p), 0.0, self.v2(q)
        else:
            hpp, hpq, hqq = 1.0, 0.0, -self.g1(q)
        return Mat2(-hpq, -hqq, hpp, hpq)

    def energy(self, p: float, q: float) -> float:
        if self.kind == "general":
            return self.h(p, q)
        if self.kind == "separable":
            return self.t(p) + self.v(q)
        raise NotApplicable("a newtonian system has no explicit energy")


@functools.lru_cache(maxsize=None)
def class_formulas(sys) -> ClassFormulas:
    return ClassFormulas(sys)


def reference_step(scheme, sys, x: State, tau: float) -> State:
    """One step through the system's compiled accessors: the fold of the
    scheme's stages, or the damped-Newton midpoint solve on Mat2.  The
    generic path the generated kernels of schemes.step must equal bitwise."""
    if tau <= 0.0:
        raise ValueError("step size must be positive")
    if not tau < math.inf:
        raise ValueError(f"step size must be finite, got {tau!r}")
    if not scheme.applicable_to(sys):
        raise NotApplicable(
            f"scheme {scheme.value} does not apply to a {sys.kind.value} system"
        )
    try:
        return _fold_or_solve(scheme, sys, x, tau)
    except ValueError as err:  # math.sin, cos or tan at +-inf
        raise ex.DomainError(str(err)) from err


def _fold_or_solve(scheme, sys, x: State, tau: float) -> State:
    stages = scheme.stages
    if not stages:
        return _implicit_midpoint(sys, x, tau)
    p, q = x
    for move, c in stages:
        if move is KICK:
            p = p - (c * tau) * sys.h_q(p, q)
        else:
            q = q + (c * tau) * sys.h_p(p, q)
    return State(p, q)


def reference_simulate(
    sys,
    scheme,
    x0: State,
    tau: float,
    n_max: int = 100_000,
    escape_radius: float = 1e6,
    stride: int | None = None,
) -> OrbitTrace:
    """The orbit loop orbit.simulate must equal, verdict and recorded
    states bit for bit, with every step taken by reference_step."""
    if tau <= 0.0:
        raise ValueError("step size must be positive")
    if not tau < math.inf:
        raise ValueError(f"step size must be finite, got {tau!r}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if stride is None:
        stride = default_stride(n_max)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    r0 = math.hypot(x0.p, x0.q)
    if not escape_radius > r0:
        raise ValueError("escape radius must exceed the initial radius")
    steps = [0]
    states = [x0]
    x = x0
    max_radius = r0

    def record(n: int, y: State) -> None:
        if steps[-1] != n:
            steps.append(n)
            states.append(y)

    for n in range(1, n_max + 1):
        try:
            y = reference_step(scheme, sys, x, tau)
        except ImplicitSolveFailed:
            return OrbitTrace(x0, scheme, tau, steps, states, SolverFailed(n - 1))
        except ex.DomainError as err:
            record(n - 1, x)
            verdict = LeftDomain(n - 1, str(err))
            return OrbitTrace(x0, scheme, tau, steps, states, verdict)
        r = math.hypot(y.p, y.q)
        if not math.isfinite(r):
            if math.isnan(y.p) or math.isnan(y.q):  # hypot(inf, nan) is inf
                record(n - 1, x)
                verdict = LeftDomain(n - 1, "the step gave a NaN state")
                return OrbitTrace(x0, scheme, tau, steps, states, verdict)
            record(n, y)
            return OrbitTrace(x0, scheme, tau, steps, states, Escaped(n, math.inf))
        x = y
        if r > max_radius:
            max_radius = r
        if r > escape_radius:
            record(n, x)
            return OrbitTrace(x0, scheme, tau, steps, states, Escaped(n, r))
        if n % stride == 0:
            record(n, x)
    record(n_max, x)
    return OrbitTrace(x0, scheme, tau, steps, states, Bounded(n_max, max_radius))


def reference_stage_product(stages, a: Mat2, tau) -> Mat2:
    """S(tau) folded from a stage row for a float or an ndarray tau: start
    from the last stage's matrix and right-multiply by each earlier one, as
    Mat2.__matmul__ does less its x * 1.0 == x factors, every 0.0 term kept.
    The generic path the generated stage products must equal bitwise."""
    _, a12, a21, _ = a
    move, c = stages[-1]
    if move is KICK:
        m11, m12, m21, m22 = 1.0, (c * tau) * a12, 0.0, 1.0
    else:
        m11, m12, m21, m22 = 1.0, 0.0, (c * tau) * a21, 1.0
    for move, c in stages[-2::-1]:
        if move is KICK:  # M @ [[1, k], [0, 1]]
            k = (c * tau) * a12
            m11, m12, m21, m22 = (
                m11 + m12 * 0.0, m11 * k + m12, m21 + m22 * 0.0, m21 * k + m22
            )
        else:  # M @ [[1, 0], [d, 1]]
            d = (c * tau) * a21
            m11, m12, m21, m22 = (
                m11 + m12 * d, m11 * 0.0 + m12, m21 + m22 * d, m21 * 0.0 + m22
            )
    return Mat2(m11, m12, m21, m22)


def _implicit_midpoint(sys, x, tau, tol=1e-12, max_iter=100):
    p_new, q_new = x.p, x.q

    def residual(pn, qn):
        mp, mq = 0.5 * (x.p + pn), 0.5 * (x.q + qn)
        return (
            pn - x.p + tau * sys.h_q(mp, mq),
            qn - x.q - tau * sys.h_p(mp, mq),
        )

    r = residual(p_new, q_new)
    rn = math.hypot(*r)
    target = tol * (1.0 + math.hypot(x.p, x.q) + math.hypot(p_new, q_new))
    for _ in range(max_iter):
        if rn <= target:
            return State(p_new, q_new)
        mp, mq = 0.5 * (x.p + p_new), 0.5 * (x.q + q_new)
        jac = Mat2(
            1.0 + 0.5 * tau * sys.h_pq(mp, mq),
            0.5 * tau * sys.h_qq(mp, mq),
            -0.5 * tau * sys.h_pp(mp, mq),
            1.0 - 0.5 * tau * sys.h_pq(mp, mq),
        )
        if abs(jac.det) <= 1e-9 * (1.0 + jac.frobenius_sq):
            raise ImplicitSolveFailed(f"singular Newton matrix at tau={tau!r}")
        dp, dq = jac.solve((-r[0], -r[1]))
        lam = 1.0
        for _ in range(60):
            cand_p, cand_q = p_new + lam * dp, q_new + lam * dq
            rc = residual(cand_p, cand_q)
            rcn = math.hypot(*rc)
            if rcn < rn or rcn <= target:
                p_new, q_new, r, rn = cand_p, cand_q, rc, rcn
                break
            lam *= 0.5
        else:
            raise ImplicitSolveFailed(
                f"damped Newton stalled at residual {rn:.3e} (tau={tau!r})"
            )
        target = tol * (1.0 + math.hypot(x.p, x.q) + math.hypot(p_new, q_new))
    if rn <= target:
        return State(p_new, q_new)
    raise ImplicitSolveFailed(
        f"no convergence after {max_iter} iterations (tau={tau!r})"
    )


def reference_newton_root(sys, seed: State, tol: float, max_iter: int = 50):
    """Damped Newton iteration on the vector field from one grid seed,
    through the system's compiled accessors and Mat2, with the singular
    step of systems._least_squares_step (tested on its own against lstsq
    and exact quotients).  The generic path the
    generated Newton kernel of find_equilibria must equal bitwise.  A point
    outside the domain is a DomainError, or a ValueError from math.sin, cos
    or tan at +-inf."""
    x = seed
    try:
        r = sys.residual(x)
    except (ex.DomainError, ValueError):
        return None
    for _ in range(max_iter):
        if r <= 1e-15 * (1.0 + math.hypot(*x)):
            break
        try:
            f = sys.vector_field(x)
            j = sys.jacobian(x)
        except (ex.DomainError, ValueError):
            return None
        scale = 1.0 + j.frobenius_sq
        if abs(j.det) > 1e-14 * scale:
            step = j.solve((-f[0], -f[1]))
        else:
            # singular Jacobian: minimum-norm least-squares direction, unless
            # an entry is not finite, which leaves no improving step
            step = _least_squares_step(*j, *f)
            if step is None:
                break
        if math.hypot(*step) < 1e-15 * (1.0 + math.hypot(*x)):
            break
        # halve the step while the residual grows
        lam = 1.0
        for _ in range(25):
            cand = State(x.p + lam * step[0], x.q + lam * step[1])
            try:
                rc = sys.residual(cand)
            except (ex.DomainError, ValueError):
                rc = math.inf
            if rc < r:
                x, r = cand, rc
                break
            lam *= 0.5
        else:
            break  # no improving step left; the residual is at its floor
    return x if r < tol else None


def reference_cayley(a: Mat2, tau):
    """(I - B)^-1 (I + B), B = tau A / 2, with its denominator determinant
    and whether it is singular, for a float or an ndarray tau; None for S at
    a singular float tau.  The reference the midpoint row's s_entries must
    equal bitwise."""
    h = 0.5 * tau
    b11, b12, b21, b22 = h * a.a11, h * a.a12, h * a.a21, h * a.a22
    d11, d12, d21, d22 = 1.0 - b11, 0.0 - b12, 0.0 - b21, 1.0 - b22
    det = d11 * d22 - d12 * d21
    singular = det <= DECISION_TOL * (
        1.0 + (d11 * d11 + d12 * d12 + d21 * d21 + d22 * d22)
    )
    if singular is True:
        return None, det, True
    i11, i12, i21, i22 = d22 / det, -d12 / det, -d21 / det, d11 / det
    p11, p12, p21, p22 = 1.0 + b11, 0.0 + b12, 0.0 + b21, 1.0 + b22
    return Mat2(
        i11 * p11 + i12 * p21,
        i11 * p12 + i12 * p22,
        i21 * p11 + i22 * p21,
        i21 * p12 + i22 * p22,
    ), det, singular


def reference_condition_holds(case, s11, s12, s21, s22):
    """The trace/rank preservation test of S for the case of A (1 center, 2
    saddle, 3 rank 1, 4 zero), on floats, written as a branch per case."""
    tr = s11 + s22
    if case == 1:
        return abs(tr) < 2.0
    if case == 2:
        return abs(tr) > 2.0
    # S - I, entry by entry as Mat2.__sub__ computes it
    m11, m12, m21, m22 = s11 - 1.0, s12 - 0.0, s21 - 0.0, s22 - 1.0
    if case == 3:
        rank1 = (Mat2(m11, m12, m21, m22).max_norm > DECISION_TOL) & (
            abs(m11 * m22 - m12 * m21)
            <= DECISION_TOL * (1.0 + (m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22))
        )
        tr_is_2 = abs(tr - 2.0) <= DECISION_TOL * (1.0 + Mat2(s11, s12, s21, s22).max_norm)
        return tr_is_2 & rank1
    return Mat2(m11, m12, m21, m22).max_norm <= DECISION_TOL


def reference_shaped_propagator(scheme, a: Mat2, tau: float) -> Mat2:
    """The step-size check, S from reference_stage_product or
    reference_cayley, SingularCayley and the unimodularity guard.  The
    reference the generated shaped_propagator must equal, in value and in
    what it raises."""
    if not 0.0 < tau < math.inf:
        raise step_size_error(tau)
    if scheme.stages:
        s = reference_stage_product(scheme.stages, a, tau)
    else:
        s, det, singular = reference_cayley(a, tau)
        if singular:
            raise SingularCayley(f"Cayley denominator determinant {det!r} at tau={tau!r}")
    det, lost = unimodularity_lost(*s, UNIMODULAR_TOL)
    if lost:
        raise AssertionError(f"propagator lost unimodularity: det={det!r}")
    return s


def reference_verdict_predicate(scheme, a: Mat2):
    """tau -> whether S(tau) passes the trace/rank test of A's case, False
    where the Cayley form is singular: reference_shaped_propagator, then
    reference_condition_holds.  The reference the generated verdicts of the
    bisection must equal, in value and in what they raise."""
    require_shape(scheme, a)
    case = classify_equilibrium(a).case

    def holds(tau: float) -> bool:
        try:
            s = reference_shaped_propagator(scheme, a, tau)
        except SingularCayley:
            return False
        return reference_condition_holds(case, *s)

    return holds


def reference_find_equilibria(
    sys: HamiltonianSystem,
    box: tuple[tuple[float, float], tuple[float, float]] = ((-5.0, 5.0), (-5.0, 5.0)),
    grid: int = 32,
    tol: float = 1e-10,
) -> list[Equilibrium]:
    """The grid scan of find_equilibria without basins: every seed runs the
    Newton kernel to its end, and converged points are deduplicated within
    1e-6.  The reference find_equilibria must equal bit for bit."""
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
    linearized = []
    for x in found:
        try:
            a, residual = sys.jacobian(x), sys.residual(x)
            kind = classify_equilibrium(a)
        except (ex.DomainError, ValueError):
            continue  # a root the linearization is not defined at
        linearized.append((x, a, kind, residual))
    continuum = len(found) >= grid and all(
        kind in _SINGULAR_KINDS for _, _, kind, _ in linearized
    )
    return [Equilibrium(*eq, continuum_suspected=continuum) for eq in linearized]
