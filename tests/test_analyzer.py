import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbound import catalog
from symbound.analyzer import (
    TAU_HI_MAX,
    ContainmentNote,
    bisect_transition,
    InconsistentPredicate,
    NotUnimodular,
    check_preservation,
    dim_bounded_continuous,
    dim_bounded_discrete,
    empirical_tau_max,
    find_transition,
    preservation_report,
    report_to_csv,
    report_to_text,
    tau_max,
    tau_max_from_matrix,
    verdict_grid,
)
from symbound.analyzer import _max_abs, _verdict_predicate
from symbound.mat2 import Mat2
from symbound.schemes import (
    SCHEMES_BY_CLASS,
    NonFiniteLinearization,
    NotApplicable,
    Scheme,
    ShapeMismatch,
    SingularCayley,
    propagator,
    step,
)
from symbound.systems import Equilibrium, NotTraceFree, State, find_equilibria
from symbound.verify import catalog_equilibria

from conftest import outcome_type


def _eq_from_matrix(a: Mat2, point=State(0.0, 0.0)) -> Equilibrium:
    from symbound.systems import classify_equilibrium

    return Equilibrium(point=point, a=a, kind=classify_equilibrium(a), residual=0.0)


# ---------------------------------------------------------------------------
# bounded subspaces, continuous side

def test_center_fills_the_plane():
    sub = dim_bounded_continuous(Mat2(0, -1, 1, 0))
    assert sub.dim == 2 and sub.whole_space


def test_saddle_has_a_stable_line():
    sub = dim_bounded_continuous(Mat2(0, 1, 1, 0))
    assert sub.dim == 1
    (u,) = sub.basis
    # eigenvector of the negative eigenvalue is (1, -1) normalized
    assert abs(abs(u[0]) - 1 / math.sqrt(2)) <= 1e-12
    assert abs(u[0] + u[1]) <= 1e-12


def test_zero_matrix_is_all_bounded():
    assert dim_bounded_continuous(Mat2.zero()).dim == 2


def test_rank1_kernel_line():
    sub = dim_bounded_continuous(Mat2(0, 0, 1, 0))
    assert sub.dim == 1
    (u,) = sub.basis
    assert abs(u[0]) <= 1e-12 and abs(abs(u[1]) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# bounded subspaces, discrete side

def test_elliptic_fills_the_plane():
    assert dim_bounded_discrete(Mat2(1, -1, 1, 0)).dim == 2


def test_shear_has_kernel_line():
    sub = dim_bounded_discrete(Mat2(1, 1, 0, 1))
    assert sub.dim == 1
    assert sub.basis == ((1.0, -0.0),) or sub.basis == ((1.0, 0.0),)


def test_identity_and_minus_identity_fill_the_plane():
    assert dim_bounded_discrete(Mat2.identity()).dim == 2
    assert dim_bounded_discrete(Mat2.identity().scale(-1.0)).dim == 2


def test_negative_shear_has_a_line():
    s = Mat2(-1.0, 1.0, 0.0, -1.0)
    sub = dim_bounded_discrete(s)
    assert sub.dim == 1


def test_hyperbolic_contracting_direction():
    sub = dim_bounded_discrete(Mat2(2.0, 0.0, 0.0, 0.5))
    assert sub.dim == 1
    (u,) = sub.basis
    assert abs(u[0]) <= 1e-12 and abs(abs(u[1]) - 1.0) <= 1e-12


def test_not_unimodular_rejected():
    with pytest.raises(NotUnimodular):
        dim_bounded_discrete(Mat2(2.0, 0.0, 0.0, 2.0))


def test_discrete_subspace_against_brute_force_iteration():
    """Iterate 50 random vectors for 10^4 steps with escape radius 1e8.

    Elliptic maps keep every sample bounded.  Hyperbolic maps blow up every
    generic sample; membership of the computed basis line is verified
    algebraically (S v = lambda v with |lambda| < 1), since rounding kicks
    iterated on-line points off the line eventually.
    """
    rng = np.random.default_rng(47)
    escape = 1e8
    n_steps = 10_000
    tested_elliptic = tested_hyperbolic = 0
    for _ in range(60):
        tr = float(rng.uniform(-3.5, 3.5))
        if abs(abs(tr) - 2.0) < 0.05:
            continue
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(-2, 2))
        if abs(b) < 0.1:
            continue
        d = tr - a
        c = (a * d - 1.0) / b
        if abs(c) > 20:
            continue
        s = Mat2(a, b, c, d)
        sub = dim_bounded_discrete(s)
        samples = [tuple(map(float, rng.uniform(-1, 1, 2))) for _ in range(50)]
        bounded_flags = []
        for v in samples:
            x, y = v
            ok = True
            for _ in range(n_steps):
                x, y = s.a11 * x + s.a12 * y, s.a21 * x + s.a22 * y
                if x * x + y * y > escape * escape:
                    ok = False
                    break
            bounded_flags.append(ok)
        if sub.dim == 2:
            tested_elliptic += 1
            assert all(bounded_flags)
        else:
            tested_hyperbolic += 1
            assert not any(bounded_flags)  # generic samples all escape
            (u,) = sub.basis
            image = s.apply(u)
            lam = image[0] * u[0] + image[1] * u[1]  # Rayleigh along the line
            cross = image[0] * u[1] - image[1] * u[0]
            assert abs(cross) <= 1e-9  # the line is invariant
            assert abs(lam) < 1.0  # and contracting
    assert tested_elliptic >= 10 and tested_hyperbolic >= 10


# ---------------------------------------------------------------------------
# the preservation criteria

def test_center_elliptic_holds():
    v = check_preservation(Mat2(0, -1, 1, 0), Mat2(1, -1, 1, 0))
    assert v.case == 1 and v.condition_holds
    assert v.dim_b_a == v.dim_b_s == 2
    assert v.containment is ContainmentNote.EXACT


def test_subspace_and_verdict_fields_are_read_only():
    sub = dim_bounded_discrete(Mat2(2.0, 0.0, 0.0, 0.5))
    v = check_preservation(Mat2(0, -1, 1, 0), Mat2(1, -1, 1, 0))
    with pytest.raises(AttributeError):
        sub.dim = 2
    with pytest.raises(AttributeError):
        v.condition_holds = False
    assert (sub.dim, sub.whole_space, v.condition_holds) == (1, False, True)


def test_center_with_large_trace_fails():
    # euler-b on the harmonic oscillator at tau = 3: trace 2 - 9 = -7
    s = propagator(Scheme.EULER_B, Mat2(0, -1, 1, 0), 3.0)
    assert s.trace == -7.0
    v = check_preservation(Mat2(0, -1, 1, 0), s)
    assert v.case == 1 and not v.condition_holds
    assert v.containment is ContainmentNote.NOT_APPLICABLE


def test_rank1_shear_holds():
    # free particle under euler-b at tau = 1
    v = check_preservation(Mat2(0, 0, 1, 0), Mat2(1, 0, 1, 1))
    assert v.case == 3 and v.condition_holds
    assert v.dim_b_a == v.dim_b_s == 1
    assert v.containment is ContainmentNote.EXACT


def test_rank0_requires_identity():
    v = check_preservation(Mat2.zero(), Mat2.identity())
    assert v.case == 4 and v.condition_holds
    v = check_preservation(Mat2.zero(), Mat2(1, 1e-3, 0, 1))
    assert v.case == 4 and not v.condition_holds


def test_rank1_with_off_axis_kernel_under_implicit_midpoint():
    # nilpotent A (trace 0, det 0): Cayley gives S = I + tau A exactly
    a = Mat2(1.0, 1.0, -1.0, -1.0)
    s = propagator(Scheme.IMPLICIT_MIDPOINT, a, 0.7)
    assert (s - (Mat2.identity() + a.scale(0.7))).max_norm <= 1e-12
    v = check_preservation(a, s)
    assert v.case == 3 and v.condition_holds
    assert v.containment is ContainmentNote.EXACT  # kernels coincide exactly


def test_cross_term_center_is_elliptic_at_every_tau():
    # H = p^2/2 + p q + q^2: H_pq != 0 but det A = 1 > 0
    from symbound.systems import HamiltonianSystem, linearize

    sys = HamiltonianSystem.general("p^2/2 + p*q + q^2")
    a = linearize(sys, State(0.0, 0.0))
    assert abs(a.det - 1.0) <= 1e-12 and abs(a.trace) <= 1e-12
    for tau in (0.5, 2.0, 10.0, 200.0):
        v = check_preservation(a, propagator(Scheme.IMPLICIT_MIDPOINT, a, tau))
        assert v.case == 1 and v.condition_holds
    eq = find_equilibria(sys)[0]
    assert math.isinf(tau_max(Scheme.IMPLICIT_MIDPOINT, eq).value)
    assert math.isinf(empirical_tau_max(Scheme.IMPLICIT_MIDPOINT, eq))


def test_saddle_needs_large_trace():
    a = Mat2(0, 1, 1, 0)
    s = propagator(Scheme.EULER_B, a, 0.5)
    v = check_preservation(a, s)
    assert v.case == 2 and v.condition_holds
    assert v.dim_b_a == v.dim_b_s == 1
    assert v.containment is ContainmentNote.DIM_ONLY  # stable lines differ by O(tau)


def test_marginal_flag_near_the_boundary():
    a = Mat2(0, -1, 1, 0)
    s = propagator(Scheme.EULER_B, a, 2.0)  # trace exactly -2
    v = check_preservation(a, s)
    assert v.marginal and not v.condition_holds


# ---------------------------------------------------------------------------
# verdict_grid: the array kernel against propagator + check_preservation

_GRID_KINDS = (
    "center", "saddle", "rank1", "rank0", "near-rank0",
    "not-trace-free", "barely-trace-free", "not-separable", "non-finite",
)


def _grid_matrix(draw, scheme, kind) -> Mat2:
    def mag():
        return draw(st.floats(1e-3, 1e3))

    sign = draw(st.sampled_from((1.0, -1.0)))
    zero = draw(st.sampled_from((0.0, -0.0)))
    x = sign * mag() if scheme is Scheme.IMPLICIT_MIDPOINT else zero
    b, c = mag(), mag()
    if kind == "center":
        return Mat2(x, -b, x * x / b + c, -x)
    if kind == "saddle":
        return Mat2(x, sign * b, sign * c, -x)
    if kind == "rank1":
        if scheme is Scheme.IMPLICIT_MIDPOINT:
            return Mat2(x, b, -x * x / b, -x)
        if draw(st.booleans()):
            return Mat2(zero, sign * b, zero, zero)
        return Mat2(zero, zero, sign * c, zero)
    if kind == "rank0":
        return Mat2(zero, zero, zero, zero)
    if kind == "near-rank0":  # classified rank 0, while S - I grows with tau
        return Mat2(zero, sign * b * 1e-13, c * 1e-13, zero)
    if kind == "not-trace-free":
        return Mat2(b, sign * b, c, b)
    if kind == "non-finite":
        entries = [x, sign * b, c, -x]
        entries[draw(st.integers(0, 3))] = draw(
            st.sampled_from((math.nan, math.inf, -math.inf))
        )
        return Mat2(*entries)
    if kind == "barely-trace-free":
        # a trace that propagator accepts and classify_equilibrium rejects
        frob = b * b + c * c
        t = 1e-9 * 0.5 * (math.sqrt(1.0 + frob) + 1.0 + math.sqrt(frob))
        return Mat2(t, sign * b, c, 0.0)
    d = sign * mag()  # "not-separable": trace-free with a diagonal
    return Mat2(d, b, c, -d)


def _boundary_taus(scheme, a: Mat2) -> list[float]:
    """Subnormal and overflowing steps, and steps next to |tr S| = 2
    (explicit schemes) or in and next to the Cayley singular band."""
    out = [5e-324, 1e-310, 2.2250738585072014e-308]
    out += [1e150, 1e300, 1.7976931348623157e308]
    if scheme is Scheme.IMPLICIT_MIDPOINT:
        x = -a.det
        rel = [k * 1e-10 for k in range(-20, 21, 4)]
        rel += [k * 2.2e-16 for k in range(-3, 4)]
    else:
        x = -a.a12 * a.a21
        rel = [k * 2.2e-16 for k in range(-4, 5)]
    if x > 0.0:
        edge = 2.0 / math.sqrt(x)
        out += [edge * (1.0 + r) for r in rel]
        out += [math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return [t for t in out if 0.0 < t < math.inf]


@st.composite
def _grid_cases(draw):
    scheme = draw(st.sampled_from(tuple(Scheme)))
    a = _grid_matrix(draw, scheme, draw(st.sampled_from(_GRID_KINDS)))
    taus = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6))
    taus += draw(st.lists(st.sampled_from(_boundary_taus(scheme, a)), max_size=10))
    return scheme, a, draw(st.permutations(taus))


def _scalar_rows(scheme, a, taus):
    """(trace, holds, singular) per tau from the scalar path."""
    rows = []
    for tau in taus:
        try:
            s = propagator(scheme, a, tau)
        except SingularCayley:
            rows.append((None, False, True))
            continue
        rows.append((s.trace, check_preservation(a, s).condition_holds, False))
    return rows


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=400, deadline=None)
@given(_grid_cases())
def test_verdict_grid_equals_the_scalar_path(case):
    scheme, a, taus = case
    try:
        want = _scalar_rows(scheme, a, taus)
    except Exception as err:  # noqa: BLE001 - the kernel must raise the same
        with pytest.raises(type(err)):
            verdict_grid(scheme, a, taus)
        return
    grid = verdict_grid(scheme, a, taus)
    got = zip(grid.trace.tolist(), grid.holds.tolist(), grid.singular.tolist())
    for tau, (w_tr, w_holds, w_sing), (g_tr, g_holds, g_sing) in zip(taus, want, got):
        assert (g_sing, g_holds) == (w_sing, w_holds), (scheme, a, tau)
        if w_sing:
            assert math.isnan(g_tr)
        else:
            assert _bits(g_tr) == _bits(w_tr), (scheme, a, tau, g_tr, w_tr)


# rank 1 by classify_equilibrium; S has tr S = 2.0003 and det S rounded to
# 1.0005, above tr^2 / 4
_ROUNDED_A = Mat2(52224.08352291862, -32814.70405008086, 83113.8045811369, -52224.08352291862)
_ROUNDED_TAU = 0.35566745734437893


def _scalar_verdict(scheme, a, tau):
    try:
        s = propagator(scheme, a, tau)
    except SingularCayley:
        return False
    return check_preservation(a, s).condition_holds


@settings(max_examples=400, deadline=None)
@given(_grid_cases())
@example((Scheme.IMPLICIT_MIDPOINT, _ROUNDED_A, [_ROUNDED_TAU]))
def test_verdict_predicate_equals_check_preservation(case):
    # one predicate over the whole tau list, as the bisection calls it
    scheme, a, taus = case
    holds = _verdict_predicate(scheme, a)
    for tau in taus:
        want = outcome_type(_scalar_verdict, scheme, a, tau)
        assert outcome_type(holds, tau) == want, (scheme, a, tau)


def test_rounded_negative_discriminant_still_gives_an_eigenline():
    s = propagator(Scheme.IMPLICIT_MIDPOINT, _ROUNDED_A, _ROUNDED_TAU)
    assert s.trace * s.trace - 4.0 * s.det < 0.0
    assert dim_bounded_discrete(s).dim == 1
    v = check_preservation(_ROUNDED_A, s)
    assert (v.case, v.condition_holds, v.dim_b_s) == (3, False, 1)


def test_verdict_grid_reaches_every_case_and_guard():
    for scheme, a, case in (
        (Scheme.EULER_B, Mat2(0.0, -1.0, 1.0, 0.0), 1),
        (Scheme.STORMER_VERLET, Mat2(0.0, 1.0, 1.0, 0.0), 2),
        (Scheme.YOSHIDA2, Mat2(0.0, 0.0, 1.0, 0.0), 3),
        (Scheme.IMPLICIT_MIDPOINT, Mat2.zero(), 4),
    ):
        taus = [0.5, 1.9, 2.1, 10.0]
        want = [check_preservation(a, propagator(scheme, a, t)) for t in taus]
        assert {v.case for v in want} == {case}
        got = verdict_grid(scheme, a, taus).holds.tolist()
        assert got == [v.condition_holds for v in want]
    with pytest.raises(ShapeMismatch):
        verdict_grid(Scheme.EULER_B, Mat2(1.0, 1.0, 1.0, -1.0), [0.5])
    with pytest.raises(NotTraceFree):
        verdict_grid(Scheme.IMPLICIT_MIDPOINT, Mat2(2e-9, 1.0, 1.0, 0.0), [1e-3])


def test_max_abs_keeps_the_nan_order_of_max_norm():
    nan = math.nan
    rows = [(nan, 1.0, 0.0, 2.0), (1.0, nan, 0.0, 2.0), (0.5, -0.0, nan, 0.25)]
    got = _max_abs(*(np.array(col) for col in zip(*rows))).tolist()
    want = [Mat2(*row).max_norm for row in rows]
    assert list(map(_bits, got)) == list(map(_bits, want))


def test_verdict_grid_masks_the_cayley_band():
    a = Mat2(-1.0, 0.0, 0.0, 1.0)  # singular from tau = 2 on
    grid = verdict_grid(Scheme.IMPLICIT_MIDPOINT, a, [1.0, 2.0, 3.0])
    assert grid.singular.tolist() == [False, True, True]
    assert grid.holds.tolist() == [True, False, False]
    assert math.isnan(grid.trace[1]) and math.isnan(grid.trace[2])


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_non_finite_or_non_positive_tau_is_rejected(tau):
    a = Mat2(0.0, -1.0, 1.0, 0.0)
    for scheme in Scheme:
        with pytest.raises(ValueError):
            propagator(scheme, a, tau)
        with pytest.raises(ValueError):
            verdict_grid(scheme, a, [0.5, tau])


# ---------------------------------------------------------------------------
# closed-form limits

def test_tau_max_euler_b_harmonic():
    eq = find_equilibria(catalog.harmonic())[0]
    lim = tau_max(Scheme.EULER_B, eq)
    assert lim.value == 2.0 and not lim.singular


def test_tau_max_stormer_verlet_at_inverted_pendulum_point():
    eqs = find_equilibria(catalog.pendulum_newtonian())
    saddle = [e for e in eqs if abs(e.point.q - math.pi) < 1e-6][0]
    lim = tau_max(Scheme.STORMER_VERLET, saddle)
    assert math.isinf(lim.value)


def test_tau_max_implicit_midpoint_on_cross_term():
    eq = find_equilibria(catalog.shear())[0]
    lim = tau_max(Scheme.IMPLICIT_MIDPOINT, eq)
    assert lim.value == 2.0 and lim.singular


def test_tau_max_with_non_unit_curvatures():
    # T'' = 4 and V'' = 3 at the origin: limit 2 / sqrt(12)
    from symbound.systems import HamiltonianSystem

    sys = HamiltonianSystem.separable("2*p^2", "3*q^2/2")
    eq = find_equilibria(sys)[0]
    expected = 2.0 / math.sqrt(12.0)
    for scheme in (Scheme.EULER_B, Scheme.YOSHIDA2):
        lim = tau_max(scheme, eq)
        assert abs(lim.value - expected) <= 1e-12
        emp = empirical_tau_max(scheme, eq, tau_hi=10.0, tol=1e-7)
        assert abs(emp - expected) <= 1e-6


def test_tau_max_rejects_wrong_shapes():
    eq = _eq_from_matrix(Mat2(1.0, 0.5, 0.5, -1.0))
    with pytest.raises(NotApplicable):
        tau_max(Scheme.EULER_B, eq)
    a = Mat2(0.0, -1.0, 2.0, 0.0)  # separable but not newtonian-normalized
    with pytest.raises(NotApplicable):
        tau_max_from_matrix(Scheme.STORMER_VERLET, a)
    assert tau_max_from_matrix(Scheme.EULER_B, a).value == 2.0 / math.sqrt(2.0)


@pytest.mark.parametrize(
    "a",
    [Mat2(0.0, math.nan, 1.0, 0.0), Mat2(0.0, -2.5, math.inf, 0.0),
     Mat2(-math.inf, -1.0, 1.0, math.inf)],
)
def test_non_finite_linearization_is_rejected_everywhere(a):
    with pytest.raises(NonFiniteLinearization):
        check_preservation(a, Mat2.identity())
    for scheme in Scheme:
        with pytest.raises(NonFiniteLinearization):
            tau_max_from_matrix(scheme, a)
        with pytest.raises(NonFiniteLinearization):
            verdict_grid(scheme, a, [0.5, 1.0])


# ---------------------------------------------------------------------------
# empirical transition

def test_empirical_matches_trace_polynomial_root():
    eq = find_equilibria(catalog.harmonic())[0]
    got = empirical_tau_max(Scheme.EULER_B, eq, tau_hi=10.0, tol=1e-6)
    assert abs(got - 2.0) <= 1e-6


def test_empirical_unlimited_on_saddle():
    eq = find_equilibria(catalog.saddle())[0]
    assert math.isinf(empirical_tau_max(Scheme.EULER_B, eq, tau_hi=10.0, tol=1e-6))


def test_empirical_yoshida_pendulum_center():
    eqs = find_equilibria(catalog.pendulum())
    center = [e for e in eqs if abs(e.point.q) < 1e-6][0]
    got = empirical_tau_max(Scheme.YOSHIDA2, center, tau_hi=10.0, tol=1e-6)
    assert abs(got - 2.0) <= 1e-6


def test_empirical_finds_cayley_singularity():
    eq = find_equilibria(catalog.shear())[0]
    got = empirical_tau_max(Scheme.IMPLICIT_MIDPOINT, eq, tau_hi=10.0, tol=1e-9)
    assert abs(got - 2.0) <= 1e-6


def test_closed_form_equals_empirical_across_catalog():
    for name, sys, eqs in catalog_equilibria():
        for eq in eqs:
            for scheme in SCHEMES_BY_CLASS[sys.kind]:
                closed = tau_max(scheme, eq).value
                emp = empirical_tau_max(scheme, eq, tau_hi=10.0, tol=1e-6)
                if math.isinf(closed):
                    assert math.isinf(emp), (name, scheme.value)
                else:
                    assert abs(closed - emp) <= 1e-5, (name, scheme.value)


def test_transition_above_requested_bracket():
    # holds at tau_hi but not at 10 tau_hi: refined upward
    got = find_transition(lambda t: t < 30.0, tau_hi=10.0, tol=1e-6)
    assert abs(got - 30.0) <= 1e-6


def test_bracket_top_must_stay_finite():
    # the upward bracket from the ceiling is finite and can be bisected
    got = find_transition(lambda t: t < 5e300, tau_hi=TAU_HI_MAX, tol=1e-6)
    assert abs(got - 5e300) <= 1e-9 * 5e300
    for tau_hi in (0.0, 1e308, math.nan):
        with pytest.raises(ValueError):
            find_transition(lambda t: True, tau_hi=tau_hi, tol=1e-6)


def test_bisection_with_zero_tol_stops_at_adjacent_floats():
    for tol in (0.0, -1.0):
        t = bisect_transition(lambda x: x < 1.0, 0.5, 3.0, tol)
        assert t in (math.nextafter(1.0, 0.0), 1.0)


def test_inconsistent_predicate_is_reported():
    with pytest.raises(InconsistentPredicate):
        find_transition(lambda t: t < 1.0 or 2.0 < t < 3.0, tau_hi=4.0, tol=1e-6)
    with pytest.raises(InconsistentPredicate):
        find_transition(lambda t: False, tau_hi=4.0, tol=1e-6)


# ---------------------------------------------------------------------------
# fixed points of the schemes at equilibria

def test_equilibria_are_fixed_points():
    for name, sys, eqs in catalog_equilibria():
        for eq in eqs:
            for scheme in SCHEMES_BY_CLASS[sys.kind]:
                for tau in (0.1, 1.0):
                    y = step(scheme, sys, eq.point, tau)
                    gap = math.hypot(y.p - eq.point.p, y.q - eq.point.q)
                    assert gap <= 1e-10, (name, scheme.value, tau)


# ---------------------------------------------------------------------------
# reports

def test_pendulum_report_verdict_pattern():
    report = preservation_report(
        catalog.pendulum(), Scheme.EULER_B, [0.5, 1.9, 2.1]
    )
    by_point = {round(e.equilibrium.point.q, 6): e for e in report.entries}
    center = by_point[round(0.0, 6)]
    assert [r.verdict.condition_holds for r in center.rows] == [True, True, False]
    assert center.tau_limit.value == 2.0
    for q in (round(-math.pi, 6), round(math.pi, 6)):
        saddle = by_point[q]
        assert all(r.verdict.condition_holds for r in saddle.rows)
        assert math.isinf(saddle.tau_limit.value)
    assert report.overall_tau_max == 2.0
    assert all(
        r.fixed_point_ok for e in report.entries for r in e.rows
    )


def test_zero_hamiltonian_report_collapses_to_one_row():
    report = preservation_report(
        catalog.zero(), Scheme.IMPLICIT_MIDPOINT, [0.5, 5.0, 50.0], grid=8
    )
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.note is not None and "continuum" in entry.note
    assert all(r.verdict.case == 4 and r.verdict.condition_holds for r in entry.rows)
    assert math.isinf(report.overall_tau_max)


def test_harmonic_implicit_midpoint_unlimited():
    report = preservation_report(
        catalog.harmonic(), Scheme.IMPLICIT_MIDPOINT, [10.0, 100.0]
    )
    (entry,) = report.entries
    assert math.isinf(entry.tau_limit.value)
    assert all(r.verdict.condition_holds for r in entry.rows)


def test_report_rows_record_singular_propagators_as_errors():
    report = preservation_report(catalog.shear(), Scheme.IMPLICIT_MIDPOINT, [1.0, 2.0, 3.0])
    (entry,) = report.entries
    assert entry.rows[0].error is None
    assert entry.rows[1].error is not None  # tau at the singularity
    assert entry.rows[2].error is not None  # beyond it


def test_report_csv_shape():
    report = preservation_report(catalog.harmonic(), Scheme.EULER_B, [0.5, 2.5])
    csv = report_to_csv(report)
    lines = csv.strip().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "p0,q0,case,detA,traceS,dimBA,dimBS,holds,tau_max,empirical_tau_max"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 2
    first = data[0].split(",")
    assert first[2] == "1" and first[7] == "true" and first[8] == "2.0"
    second = data[1].split(",")
    assert second[7] == "false"
    text = report_to_text(report)
    assert "tau_max closed-form = 2.0" in text
