import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symbound import catalog
from symbound import expr as ex
from symbound import systems
from symbound.mat2 import Mat2
from symbound.schemes import SCHEMES_BY_CLASS, step
from symbound.systems import (
    EquilibriumKind,
    HamiltonianSystem,
    NotApplicable,
    NotTraceFree,
    State,
    classify_equilibrium,
    collapse_continuum,
    find_equilibria,
)
from symbound.systems import _NEWTON, _basin, _newton_kernel

from conftest import (
    KERNEL_SYSTEMS,
    SPECIAL_FLOATS,
    class_formulas,
    outcome_type,
    reference_find_equilibria,
    reference_newton_root,
    same_float,
)


def test_vector_field_separable():
    sys = HamiltonianSystem.separable("p^2/2", "q^2/2")
    assert sys.vector_field(State(1.0, 2.0)) == (-2.0, 1.0)


def test_vector_field_newtonian():
    sys = HamiltonianSystem.newtonian("-sin(q)")
    dp, dq = sys.vector_field(State(0.5, 0.0))
    assert dp == 0.0 and dq == 0.5


def test_vector_field_general():
    sys = HamiltonianSystem.general("p*q")
    assert sys.vector_field(State(3.0, 4.0)) == (-3.0, 4.0)


def test_variable_validation():
    with pytest.raises(ValueError):
        HamiltonianSystem.separable("p^2/2", "p*q")  # V may not use p
    with pytest.raises(ValueError):
        HamiltonianSystem.newtonian("p")


# ---------------------------------------------------------------------------
# equilibria

@pytest.mark.parametrize(
    "box",
    [((-1.0, 1.0), (1.0, 1.0)), ((-1.0, 1.0), (-4.0, math.inf)),
     ((math.nan, 1.0), (-4.0, 4.0)), ((-1e308, 1e308), (-4.0, 4.0))],
)
def test_find_equilibria_rejects_a_degenerate_or_infinite_box(box):
    with pytest.raises(ValueError, match="degenerate search box"):
        find_equilibria(catalog.pendulum(), box=box, grid=8)


def test_pendulum_equilibria():
    eqs = find_equilibria(catalog.pendulum(), box=((-1, 1), (-4, 4)), grid=16)
    points = [(e.point.p, e.point.q) for e in eqs]
    assert len(points) == 3
    for (p, q), q_expected in zip(points, (-math.pi, 0.0, math.pi)):
        assert abs(p) <= 1e-9 and abs(q - q_expected) <= 1e-9
    kinds = [e.kind for e in eqs]
    assert kinds == [
        EquilibriumKind.SADDLE,
        EquilibriumKind.CENTER,
        EquilibriumKind.SADDLE,
    ]


def test_harmonic_single_equilibrium():
    eqs = find_equilibria(catalog.harmonic())
    assert len(eqs) == 1
    assert abs(eqs[0].point.p) <= 1e-12 and abs(eqs[0].point.q) <= 1e-12
    assert eqs[0].kind is EquilibriumKind.CENTER


def test_inverted_potential_is_saddle():
    eqs = find_equilibria(catalog.saddle())
    assert len(eqs) == 1
    assert eqs[0].kind is EquilibriumKind.SADDLE
    assert abs(eqs[0].a.det + 1.0) <= 1e-12


def test_continuum_flagged_for_zero_hamiltonian():
    eqs = find_equilibria(catalog.zero(), grid=8)
    assert len(eqs) == 64
    assert all(e.continuum_suspected for e in eqs)
    assert all(e.kind is EquilibriumKind.RANK0_ZERO for e in eqs)


def test_equilibria_sorted_and_residual_small():
    eqs = find_equilibria(catalog.pendulum())
    keys = [(e.point.q, e.point.p) for e in eqs]
    assert keys == sorted(keys)
    assert all(e.residual <= 1e-10 for e in eqs)


def test_empty_result_when_no_roots_in_box():
    eqs = find_equilibria(catalog.harmonic(), box=((1.0, 2.0), (1.0, 2.0)), grid=6)
    assert eqs == []


# ---------------------------------------------------------------------------
# linearization: the Jacobian at an equilibrium

def test_linearize_harmonic():
    a = catalog.harmonic().jacobian(State(0.0, 0.0))
    assert a == Mat2(0.0, -1.0, 1.0, 0.0)


def test_linearize_cross_term():
    a = catalog.shear().jacobian(State(0.0, 0.0))
    assert a == Mat2(-1.0, 0.0, 0.0, 1.0)


def test_linearize_zero_hamiltonian():
    a = catalog.zero().jacobian(State(0.3, -0.7))
    assert a == Mat2(0.0, 0.0, 0.0, 0.0)


def test_linearize_agrees_with_finite_difference_jacobian():
    h = 1e-6
    for name, factory in catalog.CATALOG.items():
        sys = factory()
        eqs = find_equilibria(sys)
        for eq in eqs[:3]:
            p0, q0 = eq.point
            fp_p = sys.vector_field(State(p0 + h, q0))
            fm_p = sys.vector_field(State(p0 - h, q0))
            fp_q = sys.vector_field(State(p0, q0 + h))
            fm_q = sys.vector_field(State(p0, q0 - h))
            fd = Mat2(
                (fp_p[0] - fm_p[0]) / (2 * h),
                (fp_q[0] - fm_q[0]) / (2 * h),
                (fp_p[1] - fm_p[1]) / (2 * h),
                (fp_q[1] - fm_q[1]) / (2 * h),
            )
            assert (eq.a - fd).max_norm <= 1e-6, name


def test_trace_free_invariant_across_catalog():
    for name, factory in catalog.CATALOG.items():
        sys = factory()
        for eq in find_equilibria(sys)[:5]:
            assert abs(eq.a.trace) <= 1e-10, name


# ---------------------------------------------------------------------------
# classification

def test_classify_examples():
    assert classify_equilibrium(Mat2(0, -1, 1, 0)) is EquilibriumKind.CENTER
    assert classify_equilibrium(Mat2(0, 0, 1, 0)) is EquilibriumKind.RANK1_DEGENERATE
    assert classify_equilibrium(Mat2.zero()) is EquilibriumKind.RANK0_ZERO
    assert classify_equilibrium(Mat2(0, 1, 1, 0)) is EquilibriumKind.SADDLE


def test_classify_rejects_trace():
    with pytest.raises(NotTraceFree):
        classify_equilibrium(Mat2(1.0, 0.0, 0.0, 0.5))


# ---------------------------------------------------------------------------
# reductions between classes

def test_separable_reduces_to_general():
    sep = catalog.pendulum()
    gen = HamiltonianSystem.general(ex.Binary("+", sep.exprs["t"], sep.exprs["v"]))
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = State(*map(float, rng.uniform(-3, 3, 2)))
        fs = sep.vector_field(x)
        fg = gen.vector_field(x)
        assert abs(fs[0] - fg[0]) <= 1e-12 and abs(fs[1] - fg[1]) <= 1e-12


@pytest.mark.parametrize(
    "g_text,v_text",
    [("-sin(q)", "-cos(q)"), ("-q", "q^2/2"), ("q", "-q^2/2"), ("0", "0")],
)
def test_newtonian_reduces_to_separable(g_text, v_text):
    # V chosen by hand so that V' = -g
    nh = HamiltonianSystem.newtonian(g_text)
    sep = HamiltonianSystem.separable("p^2/2", v_text)
    rng = np.random.default_rng(29)
    for _ in range(30):
        x = State(*map(float, rng.uniform(-3, 3, 2)))
        fn = nh.vector_field(x)
        fs = sep.vector_field(x)
        assert abs(fn[0] - fs[0]) <= 1e-12 and abs(fn[1] - fs[1]) <= 1e-12
    eq_n = find_equilibria(nh, box=((-1, 1), (-1, 1)), grid=8)
    eq_s = find_equilibria(sep, box=((-1, 1), (-1, 1)), grid=8)
    for en, es in zip(eq_n[:2], eq_s[:2]):
        assert en.kind == es.kind


def test_collapse_continuum_keeps_one_representative_of_a_continuum():
    plane = find_equilibria(catalog.zero(), grid=8)
    assert len(plane) > 8 and plane[0].continuum_suspected
    assert collapse_continuum(plane) == plane[:1]
    points = find_equilibria(catalog.pendulum(), grid=8)
    assert collapse_continuum(points) == points and len(points) > 1
    assert collapse_continuum([]) == []


def test_energy_not_applicable_for_newtonian():
    with pytest.raises(NotApplicable):
        catalog.pendulum_newtonian().energy(State(0.0, 0.0))


# ---------------------------------------------------------------------------
# the one accessor set against the per-class formulas

_ACCESSOR_SYSTEMS = (
    catalog.shear(),
    catalog.zero(),
    HamiltonianSystem.general("cosh(p) - cos(q) + 0.3*p*sin(q)"),
    HamiltonianSystem.general("log(p) + sqrt(q) * p^3 / q"),
    catalog.pendulum(),
    catalog.zero_separable(),
    HamiltonianSystem.separable("p^4/4 + p^2/2", "q^3/3 - cos(q)"),
    HamiltonianSystem.separable("sqrt(p) + exp(p)", "log(q) - 1/q"),
    catalog.pendulum_newtonian(),
    catalog.free_particle(),
    HamiltonianSystem.newtonian("q - q^3"),
    HamiltonianSystem.newtonian("log(q) + sqrt(q) / q"),
)


def _outcome(fn, *args):
    """fn's value as a tuple of floats, or the type of what it raised."""
    try:
        value = fn(*args)
    except Exception as err:  # noqa: BLE001 - the failure is part of the outcome
        return type(err)
    return (value,) if isinstance(value, float) else tuple(value)


_EDGES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e300])


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(_ACCESSOR_SYSTEMS),
    st.one_of(st.floats(min_value=-1e4, max_value=1e4), _EDGES),
    st.one_of(st.floats(min_value=-1e4, max_value=1e4), _EDGES),
)
def test_accessors_equal_the_class_formulas_bitwise(sys, p, q):
    ref = class_formulas(sys)
    x = State(p, q)
    for got, want in (
        (_outcome(sys.vector_field, x), _outcome(ref.vector_field, p, q)),
        (_outcome(sys.jacobian, x), _outcome(ref.jacobian, p, q)),
        (_outcome(sys.energy, x), _outcome(ref.energy, p, q)),
    ):
        if isinstance(want, type):
            assert got is want, (sys.describe(), x)
        else:
            assert all(map(same_float, got, want)), (sys.describe(), x, got, want)


# g = 2^(q^2) - 2 overflows to an infinite Jacobian for |q| above about 32
_STEEP = HamiltonianSystem.newtonian("2^(q*q) - 2")
# the coordinates of find_equilibria's default seed grid
_GRID_SEEDS = tuple(-5.0 + 10.0 * i / 31 for i in range(32))
_SEED = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from(SPECIAL_FLOATS),
    st.sampled_from(_GRID_SEEDS),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(KERNEL_SYSTEMS + (_STEEP,)),
    _SEED,
    _SEED,
    st.sampled_from((1e-10, 1e-3)),
)
@example(catalog.pendulum(), 0.3, math.pi / 2, 1e-10)  # det J = cos(q) ~ 6e-17
@example(_STEEP, 0.0, 40.0, 1e-10)  # an infinite Jacobian entry
@example(catalog.pendulum(), 0.0, math.inf, 1e-10)  # sin(inf) is a ValueError
def test_newton_kernel_equals_the_reference(sys, p, q, tol):
    # roots bit for bit (any NaN equals any NaN), failures by exception type
    got = outcome_type(_newton_kernel(sys), p, q, tol)
    want = outcome_type(reference_newton_root, sys, State(p, q), tol)
    if isinstance(want, State):
        assert isinstance(got, State), (sys.describe(), p, q, got, want)
        assert all(map(same_float, got, want)), (sys.describe(), p, q, got, want)
    else:
        assert got == want, (sys.describe(), p, q, got, want)


def test_find_equilibria_skips_a_root_it_cannot_linearize():
    # (0, 0) is an exact root of g = q*sqrt(q), and g' divides by sqrt(0)
    sys = HamiltonianSystem.newtonian("q*sqrt(q)")
    assert sys.residual(State(0.0, 0.0)) == 0.0
    assert find_equilibria(sys, box=((-1.0, 1.0), (0.0, 2.0)), grid=5) == []


def test_find_equilibria_builds_one_newton_kernel_per_system(monkeypatch):
    slow = HamiltonianSystem.newtonian("-2*sin(q)")
    fast = HamiltonianSystem.newtonian("-3*sin(q)")
    built = []
    define = ex.define

    def counted(source, name, *args, **kwargs):
        built.append(name)
        return define(source, name, *args, **kwargs)

    monkeypatch.setattr(ex, "define", counted)
    found = [find_equilibria(sys, grid=8) for sys in (slow, fast, slow, fast)]
    assert built == ["_newton_root", "_newton_root"]
    assert found[0] == found[2] and found[1] == found[3] and found[0] != found[1]
    kernels = slow.kernels[_NEWTON], fast.kernels[_NEWTON]
    assert kernels[0] is not kernels[1]
    assert kernels[0].__code__ is kernels[1].__code__


def test_stepping_and_find_equilibria_define_one_kernel_per_template(monkeypatch):
    sys = catalog.pendulum_newtonian()
    built = []
    define = ex.define

    def counted(source, name, *args, **kwargs):
        built.append(name)
        return define(source, name, *args, **kwargs)

    monkeypatch.setattr(ex, "define", counted)
    schemes = SCHEMES_BY_CLASS[sys.kind]
    for _ in range(2):
        find_equilibria(sys, grid=8)
        for scheme in schemes:
            step(scheme, sys, State(0.1, 0.2), 0.5)
    assert sorted(built) == sorted(["_newton_root"] + ["_step"] * len(schemes))
    assert set(sys.kernels) == {_NEWTON, *(scheme.template for scheme in schemes)}


def test_find_equilibria_takes_the_least_squares_step_bit_for_bit(monkeypatch):
    # a pendulum from the bench family whose Newton search meets exactly
    # singular Jacobians; the reprs were recorded before numpy's import moved
    # into _least_squares_step
    calls = []
    least_squares_step = systems._least_squares_step

    def counted(*args):
        calls.append(args)
        return least_squares_step(*args)

    # _newton_kernel binds the module global when it builds the kernel
    monkeypatch.setattr(systems, "_least_squares_step", counted)
    sys = HamiltonianSystem.newtonian("-0.7095*sin(0.7012*q)")
    box = ((-1.0, 1.0), (-6.720463463184098, 6.720463463184098))
    eqs = find_equilibria(sys, box=box, grid=12)
    assert calls
    saddle = "Mat2(a11=-0.0, a12=0.49750140000000004, a21=1.0, a22=0.0)"
    center = "Mat2(a11=-0.0, a12=-0.49750140000000004, a21=1.0, a22=0.0)"
    assert [repr(e) for e in eqs] == [
        f"Equilibrium(point=State(p=0.0, q=-4.480308975456065), a={saddle}, "
        "kind=<EquilibriumKind.SADDLE: 'saddle'>, residual=8.688869039950471e-17, "
        "continuum_suspected=False)",
        f"Equilibrium(point=State(p=0.0, q=2.0426368929626904e-16), a={center}, "
        "kind=<EquilibriumKind.CENTER: 'center'>, residual=1.0162147139405888e-16, "
        "continuum_suspected=False)",
        f"Equilibrium(point=State(p=0.0, q=4.480308975456065), a={saddle}, "
        "kind=<EquilibriumKind.SADDLE: 'saddle'>, residual=8.688869039950471e-17, "
        "continuum_suspected=False)",
    ]
    # lstsq's minimum-norm step at a Jacobian of this family; the closed
    # form A^T b / |A|^2 gives (1.0, 6.484086767688023e-17) here
    direction = least_squares_step(-0.0, 9.138952456219905e-17, 1.0, 0.0, -0.7095, -1.0)
    assert direction == (1.0, 0.0) and math.copysign(1.0, direction[1]) == 1.0


_EPS = 2.0**-52
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _rounded_quotient(b: float, a: float) -> float:
    """b / a, the exact rational rounded once; +-inf past the float range."""
    q = Fraction(b) / Fraction(a)
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


@settings(max_examples=1000, deadline=None)
@given(_FINITE, _FINITE, _FINITE, _FINITE,
       st.sampled_from((0.0, -0.0)), st.sampled_from((0.0, -0.0)))
@example(9.138952456219905e-17, 1.0, -0.7095, -1.0, -0.0, 0.0)
@example(0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
@example(1e-300, 5e-324, 1.0, 1e300, 0.0, -0.0)
def test_the_step_at_a_zero_diagonal_is_the_rounded_exact_quotients(
    a12, a21, f0, f1, a11, a22
):
    # J x = (a12 x1, a21 x0), so x = (b1 / a21, b0 / a12) with b = -f,
    # and a singular value at most 2 eps times the larger one is dropped
    got = systems._least_squares_step(a11, a12, a21, a22, f0, f1)
    top = max(abs(Fraction(a12)), abs(Fraction(a21)))
    for x, b, a in zip(got, (-f1, -f0), (a21, a12)):
        if abs(Fraction(a)) > 2 * Fraction(_EPS) * top:
            assert x == _rounded_quotient(b, a), (a11, a12, a21, a22, f0, f1, got)
        else:
            assert (x, math.copysign(1.0, x)) == (0.0, 1.0), (a12, a21, f0, f1, got)


# exactly rank-1 Jacobians: the outer product of two 20-bit integer vectors,
# exact in floats, times a power of two
_RANK_ONE = st.builds(
    lambda u0, u1, v0, v1, e: tuple(
        math.ldexp(float(x * y), e) for x, y in ((u0, v0), (u0, v1), (u1, v0), (u1, v1))
    ),
    *[st.integers(-2**20, 2**20)] * 4, st.integers(-400, 400),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.tuples(_FINITE, _FINITE, _FINITE, _FINITE), _RANK_ONE),
       _FINITE, _FINITE)
@example((1.0, 2.0, 2.0, 4.0), 1.0, -3.0)
@example((1e-10, 0.0, 0.0, 1e10), 1.0, 1.0)
@example((0.5, 0.5, -0.5, -0.5), 1.0, 0.0)
def test_the_step_is_within_the_perturbation_bound_of_lstsq(j, f0, f1):
    a11, a12, a21, a22 = j
    jm, b = np.array([[a11, a12], [a21, a22]]), np.array([-f0, -f1])
    with np.errstate(all="ignore"):
        try:
            sigma = np.linalg.svd(jm, compute_uv=False).tolist()
            want = np.linalg.lstsq(jm, b, rcond=None)[0].tolist()
        except np.linalg.LinAlgError:
            assume(False)
    assume(all(map(math.isfinite, [*sigma, *want])) and sigma[0] > 0.0)
    ratio = sigma[1] / sigma[0]
    # away from numpy's rank threshold 2 eps, where a rounding decides the rank
    assume(not 2 * _EPS / 16 <= ratio <= 2 * _EPS * 16)
    kappa = 1.0 / ratio if ratio > 2 * _EPS else 1.0  # of the kept part of J
    got = systems._least_squares_step(a11, a12, a21, a22, f0, f1)
    bound = 64 * _EPS * kappa * (math.hypot(*want) + math.hypot(f0, f1) / sigma[0])
    assert math.hypot(got[0] - want[0], got[1] - want[1]) <= bound, (j, f0, f1, got, want)


def test_the_step_needs_finite_entries():
    for bad in (math.inf, -math.inf, math.nan):
        for i in range(6):
            args = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
            args[i] = bad
            assert systems._least_squares_step(*args) is None


def test_a_system_emits_its_derivative_texts_once(monkeypatch):
    # every kernel of a system shares one emission of its five derivatives
    sys = HamiltonianSystem.separable("p^4/4 + p^2/2", "q^3/3 - cos(q)")
    emit, emitted, depth = ex.emit, [], [0]

    def counted(tree, *args):
        if depth[0] == 0:  # emit recurses through the module global
            emitted.append(tree)
        depth[0] += 1
        try:
            return emit(tree, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ex, "emit", counted)
    find_equilibria(sys, grid=8)
    for scheme in SCHEMES_BY_CLASS[sys.kind]:
        step(scheme, sys, State(0.1, 0.2), 0.5)
    assert len(sys.kernels) == 1 + len(SCHEMES_BY_CLASS[sys.kind])
    assert emitted == list(sys.derivatives)


# ---------------------------------------------------------------------------
# basins: find_equilibria against the scan that runs every seed to its end

_DEGENERATE = (
    HamiltonianSystem.newtonian("q^3"),
    HamiltonianSystem.newtonian("-q^3"),
    HamiltonianSystem.newtonian("q^2"),
    HamiltonianSystem.separable("p^2/2", "q^4"),
)
_SCAN_SYSTEMS = (
    KERNEL_SYSTEMS
    + tuple(factory() for factory in catalog.CATALOG.values())
    + _DEGENERATE
    + (_STEEP,)
)


def _assert_scan_equals_the_reference(sys, box, grid, tol):
    got = outcome_type(find_equilibria, sys, box, grid, tol)
    want = outcome_type(reference_find_equilibria, sys, box, grid, tol)
    assert repr(got) == repr(want), (sys.describe(), box, grid, tol)


_CENTRE = st.one_of(st.floats(-6.0, 6.0), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_SCAN_SYSTEMS),
    _CENTRE,
    _CENTRE,
    st.floats(0.05, 8.0),
    st.floats(0.05, 8.0),
    st.integers(4, 20),
    st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6, 1e-3)),
)
def test_find_equilibria_equals_the_scan_without_basins(sys, cp, cq, wp, wq, grid, tol):
    box = ((cp - wp, cp + wp), (cq - wq, cq + wq))
    _assert_scan_equals_the_reference(sys, box, grid, tol)


def test_basins_keep_the_roots_of_a_periodic_jacobian():
    # V'' = cos q takes the same values on the rim of a ball of radius near
    # 2 pi as at its centre; the roots 3.14 apart must all be found
    sys = catalog.pendulum()
    for box in (((-1.0, 1.0), (55.0, 70.0)), ((-2.0, 2.0), (-70.0, -55.0))):
        for grid in (12, 20, 40):
            _assert_scan_equals_the_reference(sys, box, grid, 1e-10)
    (eq,) = find_equilibria(sys, box=((-1.0, 1.0), (59.0, 60.0)), grid=8)
    assert math.isclose(eq.point.q, 19 * math.pi)
    _, _, rho_sq = _basin(sys, eq.point, eq.a, 1e-10)
    assert rho_sq < (math.pi / 2) ** 2


def test_basins_keep_the_least_squares_roots():
    # the box edges sit on cos(0.7012 q) = 0, where Newton meets singular
    # Jacobians and takes the least-squares step
    sys = HamiltonianSystem.newtonian("-0.7095*sin(0.7012*q)")
    box = ((-1.0, 1.0), (-6.720463463184098, 6.720463463184098))
    for grid in (12, 16, 31):
        _assert_scan_equals_the_reference(sys, box, grid, 1e-10)


def test_a_steep_jacobian_shrinks_the_first_radius():
    # g' = 2 ln 2 q 2^(q^2) grows fast: theta rejects rho = 0.1 (1 + |x|)
    (eq,) = [e for e in find_equilibria(_STEEP, box=((-1, 1), (0.5, 1.5)), grid=8)]
    assert eq.kind is EquilibriumKind.SADDLE
    p, q, rho_sq = _basin(_STEEP, eq.point, eq.a, 1e-10)
    assert (p, q) == eq.point
    assert 0.0 < rho_sq < (0.1 * (1.0 + math.hypot(*eq.point))) ** 2
    for grid in (8, 16, 24):
        _assert_scan_equals_the_reference(_STEEP, ((-2.0, 2.0), (-2.0, 2.0)), grid, 1e-10)


def test_a_near_degenerate_centre_gets_no_basin():
    # det A = 3e-9 passes as a centre, but beta * tol = tol / 3e-9 > 1e-7
    sys = HamiltonianSystem.newtonian("-3e-9*q")
    (eq,) = find_equilibria(sys, box=((-1.0, 1.0), (-1.0, 1.0)), grid=8)
    assert eq.kind is EquilibriumKind.CENTER
    assert _basin(sys, eq.point, eq.a, 1e-10) is None
    for grid in (8, 16):
        _assert_scan_equals_the_reference(sys, ((-1.0, 1.0), (-1.0, 1.0)), grid, 1e-10)


def test_a_seed_in_a_basin_stops_at_once():
    sys = catalog.pendulum()
    newton_root = _newton_kernel(sys)
    root = newton_root(0.1, 0.2, 1e-10)  # the seed's root without balls
    a = sys.jacobian(root)
    basin = _basin(sys, root, a, 1e-10)
    assert basin is not None and basin[2] > 0.01
    assert newton_root(0.1, 0.2, 1e-10, [basin]) is None
    # a seed outside every ball runs as without them
    assert newton_root(0.1, 3.0, 1e-10, [basin]) == newton_root(0.1, 3.0, 1e-10)
