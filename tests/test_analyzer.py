import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbound import catalog
from symbound.analyzer import (
    TAU_HI_MAX,
    TAU_HI_MIN,
    CSV_HEADER,
    ContainmentNote,
    EquilibriumReport,
    PreservationReport,
    TauRow,
    bisect_transition,
    InconsistentPredicate,
    NotUnimodular,
    check_preservation,
    dim_bounded_continuous,
    dim_bounded_discrete,
    empirical_tau_max,
    find_transition,
    fmt_float,
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
from symbound.systems import (
    Equilibrium,
    EquilibriumKind,
    HamiltonianSystem,
    NotTraceFree,
    State,
    classify_equilibrium,
    find_equilibria,
)
from symbound.verify import catalog_equilibria

from conftest import outcome_type, reference_verdict_predicate


def _eq_from_matrix(a: Mat2, point=State(0.0, 0.0)) -> Equilibrium:
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
    expected = Mat2(1.0 + 0.7 * a.a11, 0.7 * a.a12, 0.7 * a.a21, 1.0 + 0.7 * a.a22)
    assert (s - expected).max_norm <= 1e-12
    v = check_preservation(a, s)
    assert v.case == 3 and v.condition_holds
    assert v.containment is ContainmentNote.EXACT  # kernels coincide exactly


def test_cross_term_center_is_elliptic_at_every_tau():
    # H = p^2/2 + p q + q^2: H_pq != 0 but det A = 1 > 0
    from symbound.systems import HamiltonianSystem

    sys = HamiltonianSystem.general("p^2/2 + p*q + q^2")
    a = sys.jacobian(State(0.0, 0.0))
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
        # a trace between the two thresholds that propagator and
        # classify_equilibrium once put apart; both now reject it
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
    # one predicate over the whole tau list, as the bisection calls it; a bad
    # A raises when the predicate is made, as propagator raises it for every tau
    scheme, a, taus = case
    holds = outcome_type(_verdict_predicate, scheme, a)
    for tau in taus:
        want = outcome_type(_scalar_verdict, scheme, a, tau)
        got = holds if isinstance(holds, type) else outcome_type(holds, tau)
        assert got == want, (scheme, a, tau)


_ODD_TAUS = (0.0, -0.0, -1.0, -math.inf, math.inf, math.nan)
# trace-free by require_linearization, yet S(1e-3) of the midpoint row is off
# unimodular by 1.9e-9
_OFF_UNIMODULAR_A = Mat2(0.99e-9 * math.sqrt(1.0 + 2e6), 1e3, 1e3, 0.0)


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the failure is part of the outcome
        return type(err), str(err)


def _assert_verdict_is_the_reference(scheme, a, taus):
    want = _outcome(reference_verdict_predicate, scheme, a)
    got = _outcome(_verdict_predicate, scheme, a)
    if isinstance(want, tuple):
        assert got == want, (scheme, a)
        return
    for tau in taus:
        assert _outcome(got, tau) == _outcome(want, tau), (scheme, a, tau)


@settings(max_examples=400, deadline=None)
@given(_grid_cases(), st.lists(st.sampled_from(_ODD_TAUS), max_size=3))
@example((Scheme.IMPLICIT_MIDPOINT, _OFF_UNIMODULAR_A, [1e-3, 1e-5]), [])
@example((Scheme.IMPLICIT_MIDPOINT, _ROUNDED_A, [_ROUNDED_TAU]), [])
def test_generated_verdict_equals_the_reference_predicate(case, odd_taus):
    # value, exception type and message, for any tau the bisection could pass
    scheme, a, taus = case
    _assert_verdict_is_the_reference(scheme, a, [*taus, *odd_taus])


@pytest.mark.parametrize("scheme", list(Scheme))
def test_every_generated_verdict_equals_the_reference(scheme):
    # each (row, case) pair, past the Cayley singularity and at odd taus
    taus = [1e-3, 0.5, 1.9, 2.0, 2.1, 3.0, 1e3, 1e300, *_ODD_TAUS]
    matrices = [
        Mat2(0.0, -1.0, 1.0, 0.0),
        Mat2(0.0, 1.0, 1.0, 0.0),
        Mat2(0.0, 0.0, 1.0, 0.0),
        Mat2.zero(),
    ]
    if not scheme.stages:
        matrices += [Mat2(0.5, 1.0, -0.25, -0.5), Mat2(1.0, 2.0, 0.5, -1.0)]
        matrices.append(_OFF_UNIMODULAR_A)
    for a in matrices:
        _assert_verdict_is_the_reference(scheme, a, taus)
    with pytest.raises(AssertionError, match="lost unimodularity"):
        reference_verdict_predicate(Scheme.IMPLICIT_MIDPOINT, _OFF_UNIMODULAR_A)(1e-3)


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
    harmonic = catalog.harmonic()
    message = "positive" if tau <= 0.0 else f"finite, got {tau!r}"
    for scheme in Scheme:
        with pytest.raises(ValueError, match=f"step size must be {message}"):
            propagator(scheme, a, tau)
        with pytest.raises(ValueError, match=f"step size must be {message}"):
            verdict_grid(scheme, a, [0.5, tau])
        # step checks tau before it builds or looks up a kernel
        with pytest.raises(ValueError, match=f"step size must be {message}"):
            step(scheme, harmonic, State(1.0, 0.0), tau)


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
    # separable with a21 != 1: require_shape passes it for every stage row,
    # as propagator and the bisection do
    a = Mat2(0.0, -1.0, 2.0, 0.0)
    for scheme in (Scheme.EULER_B, Scheme.YOSHIDA2, Scheme.STORMER_VERLET):
        assert tau_max_from_matrix(scheme, a).value == 2.0 / math.sqrt(2.0)
    # not trace-free: every row rejects it, as propagator does
    a = Mat2(1.0, -2.0, 1.0, 1.0)
    with pytest.raises(NotTraceFree):
        propagator(Scheme.IMPLICIT_MIDPOINT, a, 0.5)
    for scheme in Scheme:
        with pytest.raises(NotApplicable, match="not trace-free"):
            tau_max_from_matrix(scheme, a)


@pytest.mark.parametrize(
    "a",
    [Mat2(0.0, math.nan, 1.0, 0.0), Mat2(0.0, -2.5, math.inf, 0.0),
     Mat2(-math.inf, -1.0, 1.0, math.inf)],
)
def test_non_finite_linearization_is_rejected_everywhere(a):
    with pytest.raises(NonFiniteLinearization):
        classify_equilibrium(a)
    with pytest.raises(NonFiniteLinearization):
        dim_bounded_continuous(a)
    with pytest.raises(NonFiniteLinearization):
        check_preservation(a, Mat2.identity())
    eq = Equilibrium(State(0.0, 0.0), a, EquilibriumKind.RANK1_DEGENERATE, 0.0)
    for scheme in Scheme:
        with pytest.raises(NonFiniteLinearization):
            tau_max_from_matrix(scheme, a)
        with pytest.raises(NonFiniteLinearization):
            verdict_grid(scheme, a, [0.5, 1.0])
        # A is checked before tau: a bad tau does not hide a bad A
        for tau in (0.5, -1.0, math.inf):
            with pytest.raises(NonFiniteLinearization):
                propagator(scheme, a, tau)
        with pytest.raises(NonFiniteLinearization):
            verdict_grid(scheme, a, [-1.0])
        with pytest.raises(NonFiniteLinearization):
            empirical_tau_max(scheme, eq)
    # a root whose Jacobian has a non-finite entry has no linearization
    sys = catalog.harmonic()
    assert len(find_equilibria(sys, grid=4)) == 1
    sys.jacobian = lambda x: a
    assert find_equilibria(sys, grid=4) == []


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


_OFF_DIAGONAL = st.floats(0.1, 10.0).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(tuple(Scheme)), _OFF_DIAGONAL, _OFF_DIAGONAL)
def test_closed_form_equals_empirical_at_every_separable_a(scheme, b, c):
    # the closed form and the bisection read one applicability rule,
    # require_shape, so they agree at every A = [[0, b], [c, 0]], also where
    # the limit lies above tau_hi and |det A| is small
    a = Mat2(0.0, b, c, 0.0)
    closed = tau_max_from_matrix(scheme, a).value
    emp = empirical_tau_max(scheme, _eq_from_matrix(a))
    if math.isinf(closed):
        assert math.isinf(emp), (scheme, a, emp)
    else:
        assert abs(closed - emp) <= 1e-5, (scheme, a, closed, emp)


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


def test_scan_floor_stays_a_normal_float():
    # the scan starts at tau_hi * 1e-8, which must not underflow
    got = find_transition(lambda t: t < 5e-300, tau_hi=TAU_HI_MIN, tol=0.0)
    assert abs(got - 5e-300) <= 1e-9 * 5e-300
    for tau_hi in (9e-300, 1e-320, 5e-324):
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


@pytest.mark.parametrize(
    "predicate, message",
    [
        (lambda t: t < 0.5 or 1.5 < t < 2.0,
         "predicate is not monotone in tau on the scanned grid"),
        # failing at the smallest scanned tau and holding above it is the
        # same pattern: a false before a true on the grid
        (lambda t: 1e-7 < t < 1.0,
         "predicate is not monotone in tau on the scanned grid"),
        (lambda t: t < 1.0 and not 6e-5 < t < 1e-4,
         "predicate fails at tau=9.220574808913482e-05 below the transition "
         "0.9999998710311131"),
        (lambda t: t < 1.0 or 2.0 < t < 3.0,
         "predicate holds at tau=2.0909153724743446 above the transition "
         "0.9999998710311131"),
        (lambda t: False,
         "predicate fails for every scanned tau; no preserving range found"),
    ],
    ids=["grid", "smallest", "below", "above", "never"],
)
def test_each_inconsistent_pattern_names_its_failure(predicate, message):
    with pytest.raises(InconsistentPredicate) as info:
        find_transition(predicate, tau_hi=4.0, tol=1e-6)
    assert str(info.value) == message


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
    sys = catalog.pendulum()
    report = preservation_report(
        sys, Scheme.EULER_B, [0.5, 1.9, 2.1], find_equilibria(sys)
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
    sys = catalog.zero()
    report = preservation_report(
        sys, Scheme.IMPLICIT_MIDPOINT, [0.5, 5.0, 50.0], find_equilibria(sys, grid=8)
    )
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.note is not None and "continuum" in entry.note
    assert all(r.verdict.case == 4 and r.verdict.condition_holds for r in entry.rows)
    assert math.isinf(report.overall_tau_max)


def test_harmonic_implicit_midpoint_unlimited():
    sys = catalog.harmonic()
    report = preservation_report(
        sys, Scheme.IMPLICIT_MIDPOINT, [10.0, 100.0], find_equilibria(sys)
    )
    (entry,) = report.entries
    assert math.isinf(entry.tau_limit.value)
    assert all(r.verdict.condition_holds for r in entry.rows)


def test_report_rows_record_singular_propagators_as_errors():
    sys = catalog.shear()
    report = preservation_report(
        sys, Scheme.IMPLICIT_MIDPOINT, [1.0, 2.0, 3.0], find_equilibria(sys)
    )
    (entry,) = report.entries
    assert entry.rows[0].error is None
    assert entry.rows[1].error is not None  # tau at the singularity
    assert entry.rows[2].error is not None  # beyond it


def test_a_bisection_that_loses_unimodularity_is_an_entry_error():
    # trace-free within tolerance, but the midpoint S of this A drifts off
    # det 1 at the bisection's scanned taus and at tau = 1e-3 alike
    a = Mat2(1.400071776767177e-06, 1e3, 1e3, 0.0)
    eq = Equilibrium(State(0.0, 0.0), a, classify_equilibrium(a), 0.0)
    sys = HamiltonianSystem.general("p*q")
    report = preservation_report(sys, Scheme.IMPLICIT_MIDPOINT, [1e-3], [eq])
    (entry,) = report.entries
    assert entry.error.startswith("AssertionError: propagator lost unimodularity: det=")
    assert entry.tau_limit is not None and entry.empirical is None
    (row,) = entry.rows
    assert row.error.startswith("AssertionError: propagator lost unimodularity: det=")
    assert report_to_csv(report).splitlines()[5:] == [
        f"# p0=0.0 q0=0.0 error: {entry.error}",
        f"# p0=0.0 q0=0.0 tau=0.001 error: {row.error}",
    ]


def test_report_csv_shape():
    sys = catalog.harmonic()
    report = preservation_report(sys, Scheme.EULER_B, [0.5, 2.5], find_equilibria(sys))
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


def test_an_entry_error_is_a_comment_and_its_rows_have_no_limit():
    a = Mat2(0.0, -1.0, 1.0, 0.0)
    eq = Equilibrium(State(0.0, 0.5), a, EquilibriumKind.CENTER, 0.0)
    row = TauRow(0.5, 2.0, check_preservation(a, propagator(Scheme.EULER_B, a, 0.5)), True)
    entry = EquilibriumReport(eq, None, None, [row], error="NotApplicable: no limit")
    report = PreservationReport("H = test", Scheme.EULER_B, [0.5], [entry])
    assert report_to_csv(report).splitlines()[4:] == [
        CSV_HEADER,
        "# p0=0.0 q0=0.5 error: NotApplicable: no limit",
        "0.0,0.5,1,1.0,2.0,2,2,true,nan,nan",
    ]
    assert report_to_text(report).splitlines()[1:3] == [
        "  equilibrium (p=0, q=0.5)  kind=center  detA=1  residual=0.00e+00",
        "    NotApplicable: no limit",
    ]


@pytest.mark.parametrize(
    "x", [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-310, 5e-324, 1.5]
)
def test_fmt_float_is_repr(x):
    assert fmt_float(x) == repr(x)


def test_fmt_float_writes_none_as_nan():
    assert fmt_float(None) == "nan"
