"""Shared test helpers: random expression trees, finite differences,
per-class reference formulas for the systems' compiled accessors, and the
generic references for the generated kernels: the step of schemes.step and
the damped Newton root of find_equilibria."""

import functools
import math
import os
from pathlib import Path

import numpy as np

import symbound
from symbound import catalog
from symbound import expr as ex
from symbound.mat2 import Mat2
from symbound.schemes import KICK, ImplicitSolveFailed
from symbound.systems import HamiltonianSystem, NotApplicable, State


def pytest_configure(config):
    """Make the child processes of the CLI tests (python -m symbound) import
    the source tree these tests import, also where PYTHONPATH does not name it."""
    src = str(Path(symbound.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path
    )


SAFE_FUNCS = ("sin", "cos", "tanh", "exp", "sinh", "cosh", "sqrt", "log")

# systems of the three classes, with domain edges, that the generated
# kernels are held to their references on
KERNEL_SYSTEMS = (
    catalog.pendulum(),
    catalog.shear(),
    HamiltonianSystem.general("p^2/2 + q^4/4 - q^2/2 + 0.3*p*q"),
    HamiltonianSystem.general("sqrt(1 + p^2) + log(2 + sin(q)) + p*q^2/5"),
    HamiltonianSystem.general("exp(p*q/4) + p^2/2 + q^2/2"),
    HamiltonianSystem.separable("p^4/4 + p^2/2", "q^3/3 - cos(q)"),
    HamiltonianSystem.separable("sqrt(1 + p^2)", "log(q + 3) - q/2"),
    catalog.pendulum_newtonian(),
    HamiltonianSystem.newtonian("q - q^3"),
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
    if kind == 0:
        return ex.Add(random_tree(rng, depth - 1, var_names),
                      random_tree(rng, depth - 1, var_names))
    if kind == 1:
        return ex.Sub(random_tree(rng, depth - 1, var_names),
                      random_tree(rng, depth - 1, var_names))
    if kind == 2:
        return ex.Mul(random_tree(rng, depth - 1, var_names),
                      random_tree(rng, depth - 1, var_names))
    if kind == 3:
        return ex.Div(random_tree(rng, depth - 1, var_names),
                      random_tree(rng, depth - 1, var_names))
    if kind == 4:
        return ex.Neg(random_tree(rng, depth - 1, var_names))
    if kind == 5:
        return ex.Pow(random_tree(rng, depth - 1, var_names),
                      ex.Const(float(rng.integers(0, 4))))
    name = str(rng.choice(SAFE_FUNCS))
    return ex.Func(name, random_tree(rng, depth - 1, var_names))


def random_bindings(rng: np.random.Generator, var_names=("x", "y")) -> dict:
    return {name: float(rng.uniform(-2.0, 2.0)) for name in var_names}


def try_eval(tree: ex.Expr, bindings: dict) -> float | None:
    """Evaluate, returning None on domain errors or wild magnitudes."""
    try:
        value = ex.evaluate(tree, bindings)
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
    if not scheme.applicable_to(sys):
        raise NotApplicable(
            f"scheme {scheme.value} does not apply to a {sys.kind.value} system"
        )
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
    through the system's compiled accessors and Mat2.  The generic path the
    generated Newton kernel of find_equilibria must equal bitwise."""
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
            # singular Jacobian: minimum-norm least-squares direction, unless
            # an entry is not finite, which leaves no improving step
            if not all(math.isfinite(v) for v in (*j, *f)):
                break
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
