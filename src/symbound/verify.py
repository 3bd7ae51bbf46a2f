"""Built-in property suites, sized for CI, behind the `verify` command.

Every randomized suite takes an explicit seed and reports a deterministic
one-line summary, so two runs with the same seed print byte-identical
output.  Sample counts here are reduced; the test suite runs the same
properties at full scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from . import expr as ex
from .analyzer import check_preservation, empirical_tau_max, tau_max
from .errorprop import ErrorModel, closed_form_error, iterate_error
from .mat2 import Mat2
from .schemes import (
    SCHEMES_BY_CLASS,
    Scheme,
    SingularCayley,
    explicit_euler_defect,
    propagator,
    require_shape,
    shaped_propagator,
    symplecticity_defect,
)
from .systems import State, SystemClass, collapse_continuum, find_equilibria


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


_DERIVATIVE_SAMPLES = (
    "sin(x) * cos(x) + x^3 / (1 + x^2)",
    "exp(-x^2 / 2) * cos(3 * x)",
    "tanh(x) + sinh(x / 2) - cosh(x / 3)",
    "log(2 + sin(x)) * sqrt(1 + x^2)",
    "(x^2 + 1)^3 / (2 + cos(x))",
    "x^2 * exp(x) - tan(x / 4)",
)


def suite_derivative_fd(seed: int) -> SuiteResult:
    """Symbolic derivatives against central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    h = 1e-5
    for text in _DERIVATIVE_SAMPLES:
        tree = ex.parse(text)
        f = ex.compile_expr(tree, ("x",))
        df = ex.compile_expr(ex.simplify(ex.differentiate(tree, "x")), ("x",))
        for _ in range(40):
            x = float(rng.uniform(-2.0, 2.0))
            exact = df(x)
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            rel = abs(exact - fd) / (1.0 + abs(exact))
            worst = max(worst, rel)
            checked += 1
    return SuiteResult(
        "derivative-vs-fd",
        worst <= 1e-5 and checked > 0,
        f"checked={checked} max_rel={worst!r}",
    )


def catalog_equilibria():
    """(name, system, equilibria) per catalog entry, continua collapsed."""
    out = []
    for name, factory in catalog.CATALOG.items():
        sys = factory()
        out.append((name, sys, collapse_continuum(find_equilibria(sys))))
    return out


def suite_det_unimodular(entries) -> SuiteResult:
    """det S(tau) = 1 across the catalog, schemes, and a log grid of tau."""
    taus = [10.0 ** (-3 + 5 * i / 24) for i in range(25)]
    worst_strict = 0.0
    worst_scaled = 0.0
    checked = 0
    for _, sys, eqs in entries:
        for eq in eqs:
            for scheme in SCHEMES_BY_CLASS[sys.kind]:
                for tau in taus:
                    try:
                        s = propagator(scheme, eq.a, tau)
                    except SingularCayley:
                        continue
                    gap = abs(s.det - 1.0)
                    checked += 1
                    if tau <= 10.0:
                        worst_strict = max(worst_strict, gap)
                    # double precision cannot hold det closer than ~eps*|S|^2
                    worst_scaled = max(worst_scaled, gap / (1.0 + s.frobenius_sq))
    passed = worst_strict <= 1e-12 and worst_scaled <= 1e-12
    return SuiteResult(
        "det-s-sweep",
        passed,
        f"checked={checked} max|detS-1|(tau<=10)={worst_strict!r} "
        f"scaled={worst_scaled!r}",
    )


def _random_trace_free(rng, shape: int) -> Mat2:
    if shape == 0:
        a, b, c = map(float, rng.uniform(-5.0, 5.0, 3))
        return Mat2(a, b, c, -a)
    if shape == 1:
        b, c = map(float, rng.uniform(-5.0, 5.0, 2))
        return Mat2(0.0, b, c, 0.0)
    return Mat2(0.0, float(rng.uniform(-5.0, 5.0)), 1.0, 0.0)


# indexed by _random_trace_free's shape: general, separable, newtonian
_SCHEMES_BY_SHAPE = tuple(
    SCHEMES_BY_CLASS[kind]
    for kind in (SystemClass.GENERAL, SystemClass.SEPARABLE, SystemClass.NEWTONIAN)
)


def suite_trace_rank_agreement(seed: int, samples: int = 1200) -> SuiteResult:
    """The trace/rank verdict must equal the bounded-dimension comparison.

    Samples near decision boundaries (|det A| or ||tr S| - 2| below the
    margin) are skipped; everywhere else agreement must be exact.
    """
    taus_per_sample, margin = 20, 1e-6
    rng = np.random.default_rng(seed)
    mismatches = 0
    checked = 0
    for i in range(samples):
        a = _random_trace_free(rng, i % 3)
        if abs(a.det) <= margin:
            continue
        log_taus = rng.uniform(math.log(1e-2), math.log(10.0), taus_per_sample)
        for scheme in _SCHEMES_BY_SHAPE[i % 3]:
            require_shape(scheme, a)  # propagator's check of A, once per scheme
            for lt in log_taus:
                try:
                    s = shaped_propagator(scheme, a, math.exp(lt))
                except SingularCayley:
                    continue
                if abs(abs(s.trace) - 2.0) <= margin:
                    continue
                verdict = check_preservation(a, s)
                agree = verdict.condition_holds == (
                    verdict.dim_b_a == verdict.dim_b_s
                )
                checked += 1
                if not agree:
                    mismatches += 1
    return SuiteResult(
        "trace-rank-agreement",
        mismatches == 0 and checked > 0,
        f"checked={checked} mismatches={mismatches}",
    )


def random_elliptic_model(rng) -> ErrorModel:
    """Unimodular S with |trace| < 2 plus random eta, Y0."""
    while True:
        tr = float(rng.uniform(-1.9, 1.9))
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        if abs(b) < 0.1:
            continue
        d = tr - a
        c = (a * d - 1.0) / b
        if abs(c) > 50.0:
            continue
        s = Mat2(a, b, c, d)
        eta = tuple(map(float, rng.uniform(-1.0, 1.0, 2)))
        y0 = tuple(map(float, rng.uniform(-1.0, 1.0, 2)))
        return ErrorModel(s, eta, y0)


def suite_closed_form_vs_iterate(seed: int) -> SuiteResult:
    """Closed-form error solution against direct iteration."""
    models, n = 150, 2000
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(models):
        model = random_elliptic_model(rng)
        yi = iterate_error(model, n)
        yc = closed_form_error(model, n)
        gap = math.hypot(yc[0] - yi[0], yc[1] - yi[1])
        rel = gap / (1.0 + math.hypot(*yi))
        worst = max(worst, rel)
    return SuiteResult(
        "closed-form-vs-iterate",
        worst <= 1e-9,
        f"models={models} n={n} max_rel={worst!r}",
    )


def suite_tau_max_vs_empirical(entries) -> SuiteResult:
    """Closed-form limits against bisection across the catalog."""
    worst = 0.0
    checked = 0
    agree_inf = True
    for _, sys, eqs in entries:
        for eq in eqs:
            for scheme in SCHEMES_BY_CLASS[sys.kind]:
                closed = tau_max(scheme, eq).value
                empirical = empirical_tau_max(scheme, eq, tau_hi=10.0, tol=1e-6)
                checked += 1
                if math.isinf(closed) or math.isinf(empirical):
                    agree_inf = agree_inf and (
                        math.isinf(closed) == math.isinf(empirical)
                    )
                else:
                    worst = max(worst, abs(closed - empirical))
    return SuiteResult(
        "tau-max-vs-empirical",
        agree_inf and worst <= 1e-5 and checked > 0,
        f"checked={checked} max|closed-empirical|={worst!r} "
        f"inf_agree={'true' if agree_inf else 'false'}",
    )


def suite_symplecticity(seed: int) -> SuiteResult:
    """Finite-difference symplecticity defects, with explicit Euler as the
    non-symplectic control proving the test can fail."""
    rng = np.random.default_rng(seed)
    pend = catalog.pendulum()
    pend_nh = catalog.pendulum_newtonian()
    harm = catalog.harmonic()
    points = [State(*map(float, rng.uniform(-2.0, 2.0, 2))) for _ in range(25)]
    worst = 0.0
    for x in points:
        for tau in (0.01, 0.1, 0.5):
            for scheme in (Scheme.EULER_B, Scheme.YOSHIDA2, Scheme.IMPLICIT_MIDPOINT):
                worst = max(worst, symplecticity_defect(scheme, pend, x, tau))
            worst = max(
                worst, symplecticity_defect(Scheme.STORMER_VERLET, pend_nh, x, tau)
            )
    control = min(explicit_euler_defect(harm, x, 0.1) for x in points)
    passed = worst <= 1e-7 and control > 1e-3
    return SuiteResult(
        "symplecticity-defect",
        passed,
        f"states={len(points)} max_defect={worst!r} control_defect={control!r}",
    )


def run_all(seed: int) -> list[SuiteResult]:
    entries = catalog_equilibria()
    return [
        suite_derivative_fd(seed),
        suite_det_unimodular(entries),
        suite_trace_rank_agreement(seed),
        suite_closed_form_vs_iterate(seed),
        suite_tau_max_vs_empirical(entries),
        suite_symplecticity(seed),
    ]
