"""Acceptance criteria, one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import math
import subprocess
import sys
import time

import numpy as np

from symbound import catalog
from symbound.analyzer import (
    bisect_transition,
    check_preservation,
    dim_bounded_continuous,
    dim_bounded_discrete,
    empirical_tau_max,
    tau_max,
)
from symbound.errorprop import ErrorModel, SingularResolvent, closed_form_error
from symbound.mat2 import Mat2
from symbound.orbit import Bounded, Escaped, simulate
from symbound.schemes import (
    ImplicitSolveFailed,
    Scheme,
    SingularCayley,
    explicit_euler_defect,
    propagator,
    step,
    symplecticity_defect,
)
from symbound.systems import State, find_equilibria
from symbound.verify import random_elliptic_model, suite_trace_rank_agreement


def _report(index: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_explicit_scheme_tau_max():
    """Closed-form tau_max = 2 on the harmonic oscillator for the three
    explicit schemes, confirmed by bisection within 1e-5, in under 1 s."""
    t0 = time.perf_counter()
    # independent oracle: root of |2 - tau^2| = 2 located by bisection
    oracle = bisect_transition(lambda t: abs(2.0 - t * t) < 2.0, 1.0, 4.0, 1e-9)
    sep_eq = find_equilibria(catalog.harmonic())[0]
    nh_eq = find_equilibria(catalog.harmonic_newtonian())[0]
    cases = [
        (Scheme.EULER_B, sep_eq),
        (Scheme.YOSHIDA2, sep_eq),
        (Scheme.STORMER_VERLET, nh_eq),
    ]
    worst = 0.0
    ok = abs(oracle - 2.0) <= 1e-8
    for scheme, eq in cases:
        closed = tau_max(scheme, eq).value
        empirical = empirical_tau_max(scheme, eq, tau_hi=10.0, tol=1e-6)
        ok = ok and closed == 2.0 and abs(empirical - closed) <= 1e-5
        worst = max(worst, abs(empirical - closed))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"tau_max=2 for euler-b/yoshida2/stormer-verlet, "
        f"max|empirical-closed|={worst:.2e}, oracle_root={oracle:.9f}, "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_2_implicit_midpoint_tau_max():
    """Implicit midpoint: unlimited on the harmonic oscillator (bounded
    orbits at tau = 10 and 100 over 1e5 steps), and a solvability limit of
    exactly 2 on H = p q, detected within 1e-9, in under 5 s."""
    t0 = time.perf_counter()
    harm = catalog.harmonic()
    harm_eq = find_equilibria(harm)[0]
    lim = tau_max(Scheme.IMPLICIT_MIDPOINT, harm_eq)
    ok = math.isinf(lim.value) and not lim.singular
    for tau in (10.0, 100.0):
        trace = simulate(
            harm, Scheme.IMPLICIT_MIDPOINT, State(1e-3, 0.0), tau,
            n_max=100_000, escape_radius=1e6, stride=10_000,
        )
        ok = ok and isinstance(trace.verdict, Bounded)

    shear_eq = find_equilibria(catalog.shear())[0]
    lim2 = tau_max(Scheme.IMPLICIT_MIDPOINT, shear_eq)
    ok = ok and lim2.value == 2.0 and lim2.singular
    for tau in (2.0 - 1e-9, 2.0, 2.0 + 1e-9):
        try:
            step(Scheme.IMPLICIT_MIDPOINT, catalog.shear(), State(1.0, 1.0), tau)
            solve_failed = False
        except ImplicitSolveFailed:
            solve_failed = True
        try:
            propagator(Scheme.IMPLICIT_MIDPOINT, shear_eq.a, tau)
            cayley_failed = False
        except SingularCayley:
            cayley_failed = True
        ok = ok and solve_failed and cayley_failed
    empirical = empirical_tau_max(
        Scheme.IMPLICIT_MIDPOINT, shear_eq, tau_hi=10.0, tol=1e-9
    )
    ok = ok and abs(empirical - 2.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        2,
        ok,
        f"harmonic unlimited (bounded at tau=10,100); H=pq limit 2 "
        f"(solve fails at 2+-1e-9), empirical={empirical:.9f}, "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_3_agreement_suite():
    """10,000 random trace-free linearizations x applicable schemes x 20
    random tau: the trace/rank verdict equals the bounded-dimension
    comparison in every case at margin >= 1e-6, in under 10 s."""
    t0 = time.perf_counter()
    result = suite_trace_rank_agreement(seed=20240817, samples=10_000)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 10.0
    _report(3, ok, f"{result.detail}, runtime={elapsed:.2f}s")


def test_criterion_4_symplecticity():
    """All four schemes keep the one-step Jacobian determinant within 1e-7
    of 1 on the pendulum at 100 random states and tau in {0.01, 0.1, 0.5};
    the explicit-Euler control shows defect > 1e-3 at tau = 0.1."""
    rng = np.random.default_rng(101)
    pend = catalog.pendulum()
    pend_nh = catalog.pendulum_newtonian()
    harm = catalog.harmonic()
    states = [State(*map(float, rng.uniform(-2.0, 2.0, 2))) for _ in range(100)]
    worst = 0.0
    for x in states:
        for tau in (0.01, 0.1, 0.5):
            for scheme in (
                Scheme.EULER_B,
                Scheme.YOSHIDA2,
                Scheme.IMPLICIT_MIDPOINT,
            ):
                worst = max(worst, symplecticity_defect(scheme, pend, x, tau))
            worst = max(
                worst, symplecticity_defect(Scheme.STORMER_VERLET, pend_nh, x, tau)
            )
    control = min(explicit_euler_defect(harm, x, 0.1) for x in states[:20])
    ok = worst <= 1e-7 and control > 1e-3
    _report(
        4,
        ok,
        f"max symplectic defect={worst:.2e} (<=1e-7), "
        f"explicit-euler control={control:.2e} (>1e-3)",
    )


def test_criterion_5_closed_form_oracle():
    """Closed form matches a 1e4-step iteration to 1e-9 relative on 1000
    random elliptic models; the singular resolvent is flagged exactly when
    trace S = 2 within 1e-12."""
    rng = np.random.default_rng(404)
    models = [random_elliptic_model(rng) for _ in range(1000)]
    n = 10_000
    s_batch = np.array([[[m.s.a11, m.s.a12], [m.s.a21, m.s.a22]] for m in models])
    eta = np.array([m.eta for m in models])
    y = np.array([m.y0 for m in models], dtype=float)
    for _ in range(n):
        y = np.einsum("kij,kj->ki", s_batch, y) + eta
    worst = 0.0
    for k, m in enumerate(models):
        yc = closed_form_error(m, n)
        gap = math.hypot(yc[0] - y[k, 0], yc[1] - y[k, 1])
        worst = max(worst, gap / (1.0 + math.hypot(*y[k])))
    ok = worst <= 1e-9

    # companion matrices [[t, -1], [1, 0]]: unimodular with trace t
    def singular(delta: float) -> bool:
        m = ErrorModel(Mat2(2.0 + delta, -1.0, 1.0, 0.0), (0.1, 0.2), (0.0, 0.0))
        try:
            closed_form_error(m, 5)
            return False
        except SingularResolvent:
            return True

    ok = ok and singular(0.0) and singular(9e-13) and singular(-9e-13)
    ok = ok and not singular(1.1e-12) and not singular(-1.1e-12)
    _report(
        5,
        ok,
        f"1000 elliptic models, n=1e4, max relative gap={worst:.2e} (<=1e-9); "
        f"singular resolvent flagged exactly within 1e-12 of trace 2",
    )


def test_criterion_6_degenerate_cases():
    """Rank-1 (free particle) gives a trace-2 shear with rank(S-E)=1 and a
    preserved 1-dimensional bounded line; rank-0 (H = 0) gives S = E for
    every scheme and a preserved verdict at every tau."""
    free = catalog.free_particle()
    eq = find_equilibria(free, box=((-1.0, 1.0), (-0.5, 0.5)), grid=8)[0]
    s = propagator(Scheme.EULER_B, eq.a, 1.0)
    shear = s - Mat2.identity()
    rank1 = shear.max_norm > 1e-9 and abs(shear.det) <= 1e-12
    verdict = check_preservation(eq.a, s)
    ok = (
        abs(s.trace - 2.0) <= 1e-12
        and rank1
        and verdict.condition_holds
        and verdict.case == 3
        and verdict.dim_b_a == 1
        and verdict.dim_b_s == 1
        and dim_bounded_continuous(eq.a).dim == 1
        and dim_bounded_discrete(s).dim == 1
    )

    zero = Mat2.zero()
    for scheme in Scheme:
        for tau in (0.1, 1.0, 10.0):
            s0 = propagator(scheme, zero, tau)
            v0 = check_preservation(zero, s0)
            ok = ok and s0 == Mat2.identity() and v0.case == 4 and v0.condition_holds
    _report(
        6,
        ok,
        "free particle: euler-b shear, trace 2, rank(S-E)=1, dims 1/1, "
        "preserved; H=0: S=E and preserved for all schemes and taus",
    )


def test_criterion_7_nonlinear_confirmation():
    """Orbits near the pendulum equilibria behave as the linear verdicts
    predict: bounded at tau = 1.9, escaping at 2.1, and saddle-adjacent
    points escape at every tested tau."""
    pend = catalog.pendulum()
    ok_trace = simulate(
        pend, Scheme.EULER_B, State(1e-3, 0.0), 1.9,
        n_max=100_000, escape_radius=1.0, stride=10_000,
    )
    ok = isinstance(ok_trace.verdict, Bounded)
    bad_trace = simulate(
        pend, Scheme.EULER_B, State(1e-3, 0.0), 2.1,
        n_max=10_000, escape_radius=1.0,
    )
    ok = ok and isinstance(bad_trace.verdict, Escaped)

    eqs = find_equilibria(pend)
    saddle = [e for e in eqs if abs(e.point.q - math.pi) < 1e-6][0]
    v = check_preservation(saddle.a, propagator(Scheme.EULER_B, saddle.a, 0.5))
    ok = ok and v.dim_b_a == 1 and v.dim_b_s == 1
    escapes = 0
    taus = (0.5, 1.0, 2.0, 5.0, 10.0)
    for tau in taus:
        for dp, dq in ((1e-3, 0.0), (0.0, 1e-3), (-7e-4, 7e-4)):
            trace = simulate(
                pend, Scheme.EULER_B,
                State(saddle.point.p + dp, saddle.point.q + dq), tau,
                n_max=10_000, escape_radius=5.0,
            )
            escapes += isinstance(trace.verdict, Escaped)
    ok = ok and escapes == 3 * len(taus)
    _report(
        7,
        ok,
        f"center: bounded at tau=1.9 over 1e5 steps, escaped at 2.1; "
        f"saddle: dims 1/1 and {escapes}/{3 * len(taus)} nearby orbits escaped",
    )


def test_criterion_8_verify_determinism():
    """`verify --seed 42` prints byte-identical summaries on repeat runs."""
    runs = [
        subprocess.run(
            [sys.executable, "-m", "symbound", "verify", "--seed", "42"],
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    ok = runs[0] == runs[1] and b"0 failed" in runs[0]
    _report(8, ok, f"two runs, {len(runs[0])} bytes each, identical={runs[0] == runs[1]}")
