import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbound import catalog
from symbound import expr as ex
from symbound.mat2 import Mat2
from symbound.systems import (
    EquilibriumKind,
    HamiltonianSystem,
    NotAnEquilibrium,
    NotApplicable,
    NotTraceFree,
    State,
    classify_equilibrium,
    collapse_continuum,
    find_equilibria,
    linearize,
)
from symbound.systems import _NEWTON_KEY, _newton_kernel

from conftest import (
    KERNEL_SYSTEMS,
    SPECIAL_FLOATS,
    class_formulas,
    outcome_type,
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
# linearization

def test_linearize_harmonic():
    a = linearize(catalog.harmonic(), State(0.0, 0.0))
    assert a == Mat2(0.0, -1.0, 1.0, 0.0)


def test_linearize_cross_term():
    a = linearize(catalog.shear(), State(0.0, 0.0))
    assert a == Mat2(-1.0, 0.0, 0.0, 1.0)


def test_linearize_zero_hamiltonian():
    a = linearize(catalog.zero(), State(0.3, -0.7))
    assert a == Mat2(0.0, 0.0, 0.0, 0.0)


def test_linearize_rejects_non_equilibrium():
    with pytest.raises(NotAnEquilibrium):
        linearize(catalog.harmonic(), State(1.0, 1.0))


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
    gen = sep.as_general()
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
def test_newton_kernel_equals_the_reference(sys, p, q, tol):
    # roots bit for bit (any NaN equals any NaN), failures by exception type
    got = outcome_type(_newton_kernel(sys), p, q, tol)
    want = outcome_type(reference_newton_root, sys, State(p, q), tol)
    if isinstance(want, State):
        assert isinstance(got, State), (sys.describe(), p, q, got, want)
        assert all(map(same_float, got, want)), (sys.describe(), p, q, got, want)
    else:
        assert got == want, (sys.describe(), p, q, got, want)


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
    kernels = slow.kernels[_NEWTON_KEY], fast.kernels[_NEWTON_KEY]
    assert kernels[0] is not kernels[1]
    assert kernels[0].__code__ is kernels[1].__code__
