import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbound import catalog
from symbound import expr as ex
from symbound.expr import DomainError
from symbound.mat2 import Mat2
from symbound.schemes import (
    SCHEMES_BY_CLASS,
    ImplicitSolveFailed,
    NonFiniteLinearization,
    NotApplicable,
    Scheme,
    ShapeMismatch,
    SingularCayley,
    _fd_jacobian,
    explicit_euler_defect,
    propagator,
    require_shape,
    scheme_from_name,
    shaped_propagator,
    step,
    symplecticity_defect,
)
from symbound.systems import (
    HamiltonianSystem,
    NotTraceFree,
    State,
    _newton_kernel,
    classify_equilibrium,
    find_equilibria,
)

from conftest import (
    KERNEL_SYSTEMS,
    SHARED_DOMAINS,
    SPECIAL_FLOATS,
    class_formulas,
    outcome_type,
    reference_cayley,
    reference_shaped_propagator,
    reference_stage_product,
    reference_step,
    same_float,
)

ALL_SCHEMES = tuple(Scheme)


def catalog_equilibria_with_schemes():
    from symbound.verify import catalog_equilibria

    for name, sys, eqs in catalog_equilibria():
        for eq in eqs:
            for scheme in SCHEMES_BY_CLASS[sys.kind]:
                yield name, sys, eq, scheme


# ---------------------------------------------------------------------------
# stepping

def test_euler_b_harmonic_hand_value():
    got = step(Scheme.EULER_B, catalog.harmonic(), State(1.0, 0.0), 1.0)
    assert got == State(1.0, 1.0)


def test_stormer_verlet_hand_value():
    # stages: P_half = -0.5, q1 = 0.5, P1 = -0.75
    got = step(Scheme.STORMER_VERLET, catalog.harmonic_newtonian(), State(0.0, 1.0), 1.0)
    assert got == State(-0.75, 0.5)


def test_implicit_midpoint_fails_at_cayley_singularity():
    with pytest.raises(ImplicitSolveFailed):
        step(Scheme.IMPLICIT_MIDPOINT, catalog.shear(), State(1.0, 1.0), 2.0)


def test_implicit_midpoint_near_singular_tau_fails_both_sides():
    for tau in (2.0 - 1e-9, 2.0 + 1e-9):
        with pytest.raises(ImplicitSolveFailed):
            step(Scheme.IMPLICIT_MIDPOINT, catalog.shear(), State(1.0, 1.0), tau)
    # away from the singularity the solve succeeds
    step(Scheme.IMPLICIT_MIDPOINT, catalog.shear(), State(1.0, 1.0), 1.9)


def test_implicit_midpoint_is_exact_cayley_on_linear_systems():
    sys = catalog.harmonic()
    a = Mat2(0.0, -1.0, 1.0, 0.0)
    for tau in (0.1, 0.5, 2.0, 7.0):
        s = propagator(Scheme.IMPLICIT_MIDPOINT, a, tau)
        x = State(0.8, -0.4)
        stepped = step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
        lin = s.apply((x.p, x.q))
        assert abs(stepped.p - lin[0]) <= 1e-11
        assert abs(stepped.q - lin[1]) <= 1e-11


def test_applicability_is_enforced():
    with pytest.raises(NotApplicable):
        step(Scheme.STORMER_VERLET, catalog.harmonic(), State(0.0, 1.0), 0.1)
    with pytest.raises(NotApplicable):
        step(Scheme.EULER_B, catalog.shear(), State(0.0, 1.0), 0.1)
    step(Scheme.EULER_B, catalog.harmonic_newtonian(), State(0.0, 1.0), 0.1)


def _hand_step(scheme: Scheme, sys, x: State, tau: float) -> State:
    """The explicit steppers written out stage by stage, one per class, on
    T', V' and g compiled apart from the system's accessors."""
    ref = class_formulas(sys)
    if ref.kind == "separable":
        if scheme is Scheme.EULER_B:
            p_new = x.p - tau * ref.v1(x.q)
            return State(p_new, x.q + tau * ref.t1(p_new))
        half = 0.5 * tau  # yoshida2
        q_mid = x.q + half * ref.t1(x.p)
        p_new = x.p - tau * ref.v1(q_mid)
        return State(p_new, q_mid + half * ref.t1(p_new))
    if scheme is Scheme.EULER_B:
        p_new = x.p + tau * ref.g(x.q)
        return State(p_new, x.q + tau * p_new)
    if scheme is Scheme.YOSHIDA2:
        half = 0.5 * tau
        q_mid = x.q + half * x.p
        p_new = x.p + tau * ref.g(q_mid)
        return State(p_new, q_mid + half * p_new)
    p_half = x.p + 0.5 * tau * ref.g(x.q)  # stormer-verlet
    q_new = x.q + tau * p_half
    return State(p_half + 0.5 * tau * ref.g(q_new), q_new)


_FOLD_SYSTEMS = (
    catalog.pendulum(),
    HamiltonianSystem.separable("p^4/4 + p^2/2", "q^3/3 - cos(q)"),
    catalog.pendulum_newtonian(),
    HamiltonianSystem.newtonian("q - q^3"),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the failure is part of the outcome
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_FOLD_SYSTEMS),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
)
def test_step_folds_the_stage_table_bitwise(sys, p, q, tau):
    x = State(p, q)
    for scheme in SCHEMES_BY_CLASS[sys.kind]:
        if scheme is Scheme.IMPLICIT_MIDPOINT:
            continue
        got = _outcome(step, scheme, sys, x, tau)
        want = _outcome(_hand_step, scheme, sys, x, tau)
        if not isinstance(want, State):
            assert got[0] is want[0], (scheme, x, tau)
        else:
            assert all(map(same_float, got, want)), (scheme, x, tau, got, want)


_COORD = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4), st.sampled_from(SPECIAL_FLOATS)
)
_TAU = st.one_of(
    st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
    st.sampled_from((5e-324, 1e8, math.inf, math.nan)),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KERNEL_SYSTEMS), _COORD, _COORD, _TAU)
@example(SHARED_DOMAINS, -1.0, -1.0, 0.5)  # outside the domains of both shared calls
def test_step_kernels_equal_the_reference_bitwise(sys, p, q, tau):
    # every scheme, inapplicable ones included: states bit for bit (any NaN
    # equals any NaN), failures by exception type and message
    x = State(p, q)
    for scheme in ALL_SCHEMES:
        got = _outcome(step, scheme, sys, x, tau)
        want = _outcome(reference_step, scheme, sys, x, tau)
        if isinstance(want, State):
            assert isinstance(got, State), (scheme, x, tau, got, want)
            assert all(map(same_float, got, want)), (scheme, x, tau, got, want)
        else:
            assert got == want, (scheme, x, tau)


def test_a_math_domain_error_in_a_step_is_a_domain_error():
    # exp(900) saturates to inf, where math.sin raises ValueError
    sys = HamiltonianSystem.newtonian("sin(exp(q^2)) - q")
    for scheme in SCHEMES_BY_CLASS[sys.kind]:
        with pytest.raises(DomainError, match="^math domain error$"):
            step(scheme, sys, State(0.5, 30.0), 0.1)


_PENDULUM = HamiltonianSystem.newtonian("-sin(q)")
# H_pq is 0.0, so the Newton matrix has the diagonal 1.0 folded in
_FOLDED = HamiltonianSystem.separable("p^4/4 + p^2/2", "q^3/3 - cos(q)")
# linear: every Newton matrix entry, its det and its singular test are
# computed once a step, with the diagonal folded (g = q) or not
_LINEAR_FOLDED = HamiltonianSystem.newtonian("q")
_LINEAR = HamiltonianSystem.general("p^2/2 + 0.3*p*q - q^2/2")


@pytest.mark.parametrize(
    "sys, tau, x",
    [
        (_PENDULUM, 0.5, State(0.0, 0.5)),  # every full step accepted
        (_PENDULUM, 2.0, State(0.0, 2.0)),  # one halving
        (_PENDULUM, 3.0, State(0.0, 2.0)),  # four halvings
        # damped Newton stalled at residual 5.915e-01
        (HamiltonianSystem.general("p^4/4 + q^4/4 - q^2/2"), 15.407004816665449,
         State(-4.087840461697741, 4.932215535644783)),
        # singular Newton matrix
        (HamiltonianSystem.general("cosh(p) - cos(q)"), 2.981967863863338,
         State(3.4948596518636705, 3.950389674266752)),
        # no convergence after 100 iterations
        (HamiltonianSystem.general("cosh(p) - cos(q)"), 1.4191838208186764,
         State(2.1570639215592413, 4.179234572892788)),
        (_FOLDED, 0.3131280363919957, State(3.9207100968188477, -1.78168275423235)),
        (_FOLDED, 4.041655449707726, State(-4.869808904083335, -3.1573740790992577)),
        (_FOLDED, 1.8803931630130877, State(-2.1428339182592957, -4.877457956906737)),
        (_FOLDED, 0.5007633758500376, State(-2.5120740409501874, -0.6485544889106523)),
        # a linear Newton step lands on its root: of the failures only a
        # singular matrix was found, in 40,000 draws near the singular tau
        (_LINEAR_FOLDED, 0.7465451461971923,
         State(0.8671417038193461, -1.2837938231323411)),
        (_LINEAR_FOLDED, 1.9999999999057707,
         State(267.9386774280116, 284142.57500576327)),
        (_LINEAR, 1.9156577090046816, State(2.9760502907821262, -0.21371346725342288)),
        (_LINEAR, 1.9156525692301662, State(81760.91455959089, 260572.017050957)),
    ],
    ids=["full-step", "one-halving", "four-halvings", "stalled", "singular",
         "no-convergence", "folded-eight-halvings", "folded-stalled",
         "folded-singular", "folded-no-convergence", "linear-folded-full-step",
         "linear-folded-singular", "linear-full-step", "linear-singular"],
)
def test_midpoint_line_search_branches_equal_the_reference(sys, tau, x):
    got = _outcome(step, Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    want = _outcome(reference_step, Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    if isinstance(want, State):
        assert isinstance(got, State) and all(map(same_float, got, want)), (got, want)
    else:
        assert got == want


def test_a_singular_linear_newton_matrix_is_tested_only_after_the_residual():
    # g = q at tau = 2: the Newton matrix [[1, -1], [-1, 1]], computed once
    # a step, is singular; at the equilibrium the residual meets its target
    # first and the step returns, as the reference does
    sys, midpoint = _LINEAR_FOLDED, Scheme.IMPLICIT_MIDPOINT
    for x in (State(0.0, 0.0), State(1e-3, 0.0)):
        got = _outcome(step, midpoint, sys, x, 2.0)
        assert got == _outcome(reference_step, midpoint, sys, x, 2.0)
    assert step(midpoint, sys, State(0.0, 0.0), 2.0) == State(0.0, 0.0)
    with pytest.raises(ImplicitSolveFailed, match=r"^singular Newton matrix at tau=2\.0$"):
        step(midpoint, sys, State(1e-3, 0.0), 2.0)


@pytest.mark.parametrize(
    "make, formula, names, x, tau",
    [
        # H_q, H_p, H_pq and H_qq read sin(q) and cos(q) three times each
        # per Newton iteration
        (HamiltonianSystem.general, "cosh(p) - 1.3*cos(q) + 0.4*p*sin(q)",
         ("_f_sin", "_f_cos"), State(2.1570639215592413, 4.179234572892788), 0.9),
        # sqrt(p) is first read inside a call that repeats too
        (HamiltonianSystem.general, "sqrt(p)*log(q) + p^2/2 + q^2/2",
         ("_f_sqrt", "_f_log"), State(1.0, 2.0), 0.5),
        # H_q = -(-exp(q)) is emitted as the call H_qq repeats
        (HamiltonianSystem.newtonian, "-exp(q)", ("_f_exp",), State(0.3, 0.5), 0.5),
    ],
    ids=["cosh", "nested", "double-negation"],
)
def test_the_midpoint_kernel_calls_each_shared_function_once_per_point(
    monkeypatch, make, formula, names, x, tau
):
    # the kernel calls each once per point at which it evaluates the
    # texts, as often as the reference evaluates H_q
    calls = collections.Counter()
    for name in names:
        monkeypatch.setitem(
            ex._KERNELS, name,
            lambda v, f=ex._KERNELS[name], name=name: calls.update([name]) or f(v),
        )
    sys = make(formula)  # built after the wrapping
    got = step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    kernel_calls = dict(calls)
    points, h_q = [], sys.h_q
    monkeypatch.setattr(sys, "h_q", lambda p, q: points.append((p, q)) or h_q(p, q))
    assert got == reference_step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    assert len(points) > 3
    assert kernel_calls == {name: len(points) for name in names}


def _midpoint_residual(sys, x: State, y: State, tau: float) -> float:
    """|r| of the midpoint equations at the iterate y, as the kernel and
    reference_step compute it."""
    mp, mq = 0.5 * (x.p + y.p), 0.5 * (x.q + y.q)
    return math.hypot(y.p - x.p + tau * sys.h_q(mp, mq), y.q - x.q - tau * sys.h_p(mp, mq))


@pytest.mark.parametrize(
    "sys, x, tau",
    [
        (catalog.pendulum(), State(-1500.0, 2100.0), 0.3),
        (catalog.pendulum_newtonian(), State(2.6, 2.5), 1.85),
    ],
    ids=["large-amplitude", "folded"],
)
def test_a_midpoint_iterate_above_lo_is_accepted_by_its_target(sys, x, tau):
    # the accepted residual lies in (lo, target]: the first exit test
    # passes it on, and the target, with the iterate's own norm, decides
    midpoint = Scheme.IMPLICIT_MIDPOINT
    got = step(midpoint, sys, x, tau)
    assert all(map(same_float, got, reference_step(midpoint, sys, x, tau)))
    orx = 1.0 + math.hypot(*x)
    rn = _midpoint_residual(sys, x, got, tau)
    assert 1e-12 * orx < rn <= 1e-12 * (orx + math.hypot(*got))


def test_a_midpoint_step_that_shrinks_the_state_equals_the_reference():
    # an iterate inside |x| has a target below the starting iterate's
    # 1e-12 * (1 + 2|x|), and here an iterate's residual falls between the
    # two: it must not end the solve
    sys, x, tau = catalog.pendulum(), State(0.5, 1.7), 1.35
    got = step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    assert math.hypot(*got) < math.hypot(*x)
    assert all(map(same_float, got, reference_step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)))


def test_a_converged_linear_midpoint_step_takes_three_norms(monkeypatch):
    # |x|, the starting residual and the Newton iterate's residual, which
    # meets lo: the iterate's own norm, for its target, is not taken
    norms = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda a, b: norms.append((a, b)) or hypot(a, b))
    sys = HamiltonianSystem.general("p^2/2 + 0.3*p*q - q^2/2")  # built after the wrapping
    x, tau = State(0.3, -0.2), 0.5
    got = step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    assert len(norms) == 3
    assert got == reference_step(Scheme.IMPLICIT_MIDPOINT, sys, x, tau)
    assert _midpoint_residual(sys, x, got, tau) <= 1e-12 * (1.0 + math.hypot(*x))


def test_kernels_of_one_tree_shape_share_compiled_code():
    # the constants are bound per system, so the source, and with it the
    # compiled code, depends only on the shapes of the trees (with each
    # power of a variable to an integral constant >= 1 a shape of its own),
    # and for the implicit midpoint rule on which calls repeat among its
    # point texts, on which Jacobian trees are constants and on whether
    # H_pq is 0.0
    slow = HamiltonianSystem.newtonian("-2*sin(q)")
    fast = HamiltonianSystem.newtonian("-3*sin(q)")
    x = State(0.1, 0.2)
    for scheme in SCHEMES_BY_CLASS[slow.kind]:
        assert step(scheme, slow, x, 0.5) != step(scheme, fast, x, 0.5)
        kernels = slow.kernels[scheme.template], fast.kernels[scheme.template]
        assert kernels[0] is not kernels[1]
        assert kernels[0].__code__ is kernels[1].__code__
    # the Newton kernel of find_equilibria: g = -k*sin(q) - 1 has its roots
    # where sin(q) = -1/k
    slow, fast = (HamiltonianSystem.newtonian(f"-{k}*sin(q) - 1") for k in (2, 3))
    roots = _newton_kernel(slow), _newton_kernel(fast)
    assert roots[0] is not roots[1]
    assert roots[0].__code__ is roots[1].__code__
    assert roots[0](0.1, 0.2, 1e-10).q == pytest.approx(math.asin(-1 / 2))
    assert roots[1](0.1, 0.2, 1e-10).q == pytest.approx(math.asin(-1 / 3))


def test_scheme_names_round_trip():
    for scheme in ALL_SCHEMES:
        assert scheme_from_name(scheme.value) is scheme
    with pytest.raises(ValueError):
        scheme_from_name("leapfrog4")


# ---------------------------------------------------------------------------
# propagators

def test_euler_b_propagator_hand_value():
    s = propagator(Scheme.EULER_B, Mat2(0, -1, 1, 0), 1.0)
    assert s == Mat2(1.0, -1.0, 1.0, 0.0)
    assert s.trace == 1.0 and s.det == 1.0


def test_implicit_midpoint_propagator_hand_value():
    s = propagator(Scheme.IMPLICIT_MIDPOINT, Mat2(0, -1, 1, 0), 2.0)
    assert (s - Mat2(0.0, -1.0, 1.0, 0.0)).max_norm <= 1e-15
    assert abs(s.trace) <= 1e-15 and abs(s.det - 1.0) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", range(4))
def test_propagator_rejects_a_non_finite_linearization(entry, bad):
    a = list(Mat2(0.0, -2.5, 1.0, 0.0))
    a[entry] = bad
    for scheme in ALL_SCHEMES:
        with pytest.raises(NonFiniteLinearization):
            propagator(scheme, Mat2(*a), 0.5)


def test_zero_field_gives_identity_for_every_scheme():
    for scheme in ALL_SCHEMES:
        s = propagator(scheme, Mat2.zero(), 3.7)
        assert s == Mat2.identity()


def test_stormer_verlet_propagator_matches_stage_algebra():
    # K(1/2) D(1) K(1/2) with gamma = g'(q0), derived by hand multiplication
    for gamma in (-1.0, -0.3, 0.7):
        for tau in (0.2, 1.0, 2.5):
            a = Mat2(0.0, gamma, 1.0, 0.0)
            s = propagator(Scheme.STORMER_VERLET, a, tau)
            expected = Mat2(
                1.0 + tau * tau * gamma / 2.0,
                tau * gamma * (1.0 + tau * tau * gamma / 4.0),
                tau,
                1.0 + tau * tau * gamma / 2.0,
            )
            assert (s - expected).max_norm <= 1e-12 * (1 + expected.max_norm)


def _stage_product(scheme: Scheme, a: Mat2, tau: float) -> Mat2:
    """S(tau) composed with Mat2 arithmetic from the stage matrices."""
    if scheme is Scheme.IMPLICIT_MIDPOINT:
        b = a.scale(0.5 * tau)
        m = Mat2.identity() - b
        d = m.det
        inverse = Mat2(m.a22 / d, -m.a12 / d, -m.a21 / d, m.a11 / d)
        # I + b entry by entry (0.0 + -0.0 is 0.0)
        return inverse @ Mat2(1.0 + b.a11, 0.0 + b.a12, 0.0 + b.a21, 1.0 + b.a22)

    def kick(c):
        return Mat2(1.0, c * tau * a.a12, 0.0, 1.0)

    def drift(c):
        return Mat2(1.0, 0.0, c * tau * a.a21, 1.0)

    if scheme is Scheme.EULER_B:
        return drift(1.0) @ kick(1.0)
    if scheme is Scheme.YOSHIDA2:
        return drift(0.5) @ kick(1.0) @ drift(0.5)
    return kick(0.5) @ drift(1.0) @ kick(0.5)


def test_propagator_is_bitwise_the_stage_product():
    # the closed forms are the stage products multiplied out; every entry,
    # signed zeros, infinities and NaNs included, must come out the same
    rng = np.random.default_rng(17)
    special = (0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, math.inf, -math.inf, math.nan)
    cases = [(b, c, 1.0) for b in special for c in special]
    cases += [(0.0, 0.0, tau) for tau in (1e300, math.inf, math.nan)]
    for _ in range(2000):
        b, c = rng.normal(size=2) * 10.0 ** rng.uniform(-4, 4, 2)
        cases.append((float(b), float(c), float(np.exp(rng.uniform(-5, 3)))))
    checked = 0
    for b, c, tau in cases:
        for a in (Mat2(0.0, b, c, 0.0), Mat2(-0.0, b, c, -0.0)):
            for scheme in ALL_SCHEMES:
                finite_a = all(map(math.isfinite, a))
                if math.isfinite(tau) and finite_a:
                    try:
                        got = propagator(scheme, a, tau)
                    except (SingularCayley, AssertionError):
                        continue
                else:
                    # propagator rejects such a step or such an A; the closed
                    # form it evaluates, shared with verdict_grid, is checked
                    # as is
                    with pytest.raises(ValueError):
                        propagator(scheme, a, tau)
                    got, _, singular = scheme.s_entries(a, tau)
                    if singular:  # only a non-finite A makes it singular here
                        assert not finite_a
                        continue
                want = _stage_product(scheme, a, tau)
                assert all(map(same_float, got, want)), (scheme, a, tau, got, want)
                checked += 1
    assert checked > 10_000


_ENTRY = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([s for s in ALL_SCHEMES if s.stages]),
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    _ENTRY,
    st.lists(_ENTRY, min_size=1, max_size=8),
)
def test_generated_stage_product_is_the_reference_fold(scheme, a, tau, taus):
    # the row's s_entries, for a float and an ndarray tau, bit for bit the
    # generic fold of the row's stages, on any entries and any tau
    a = Mat2(*a)
    got, _, _ = scheme.s_entries(a, tau)
    want = reference_stage_product(scheme.stages, a, tau)
    assert all(map(same_float, got, want)), (scheme, a, tau, got, want)
    taus = np.array(taus)
    with np.errstate(all="ignore"):
        got, _, _ = scheme.s_entries(a, taus)
        want = reference_stage_product(scheme.stages, a, taus)
    for g, w in zip(got, want):
        g, w = (np.broadcast_to(x, taus.shape).tolist() for x in (g, w))
        assert all(map(same_float, g, w)), (scheme, a, taus, got, want)


@settings(max_examples=400, deadline=None)
@given(
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    _ENTRY,
    st.lists(_ENTRY, min_size=1, max_size=8),
)
@example((0.0, -1.0, 1.0, 0.0), 2.0, [2.0, 3.0])  # the singular band
def test_generated_cayley_is_the_reference_transform(a, tau, taus):
    # the midpoint row's s_entries, for a float and an ndarray tau: S, its
    # denominator determinant and the singular flag bit for bit, or the same
    # exception
    a = Mat2(*a)
    got = outcome_type(Scheme.IMPLICIT_MIDPOINT.s_entries, a, tau)
    want = outcome_type(reference_cayley, a, tau)
    if isinstance(want, type):
        assert got == want, (a, tau)
    else:
        (s_got, det_got, sing_got), (s_want, det_want, sing_want) = got, want
        assert sing_got == sing_want and same_float(det_got, det_want), (a, tau)
        assert (s_got is None) == (s_want is None), (a, tau)
        if s_want is not None:
            assert all(map(same_float, s_got, s_want)), (a, tau, s_got, s_want)
    taus = np.array(taus)
    with np.errstate(all="ignore"):
        got = Scheme.IMPLICIT_MIDPOINT.s_entries(a, taus)
        want = reference_cayley(a, taus)
    assert got[2].tolist() == want[2].tolist()
    for g, w in zip((*got[0], got[1]), (*want[0], want[1])):
        assert all(map(same_float, g.tolist(), w.tolist())), (a, taus, got, want)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(ALL_SCHEMES),
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    st.one_of(_ENTRY, st.sampled_from((0.5, 1.9, 2.0, 2.1, 3.0))),
)
@example(Scheme.IMPLICIT_MIDPOINT, (0.0, -1.0, 1.0, 0.0), 2.0)  # singular
# trace-free to require_linearization's tolerance, yet det S(1e-3) is
# 1 + 1.9e-9: the unimodularity guard fires
@example(Scheme.IMPLICIT_MIDPOINT, (0.99e-9 * math.sqrt(1.0 + 2e6), 1e3, 1e3, 0.0), 1e-3)
def test_generated_shaped_propagator_is_the_reference(scheme, a, tau):
    # S bit for bit, or the same exception with the same message
    a = Mat2(*a)

    def outcome(fn):
        try:
            return fn(scheme, a, tau)
        except Exception as err:  # noqa: BLE001 - the failure is part of the outcome
            return type(err), str(err)

    got, want = outcome(shaped_propagator), outcome(reference_shaped_propagator)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want, (scheme, a, tau)
    else:
        assert all(map(same_float, got, want)), (scheme, a, tau, got, want)


def test_propagator_shape_mismatch():
    general = Mat2(1.0, 0.5, 0.5, -1.0)
    for scheme in (Scheme.EULER_B, Scheme.YOSHIDA2, Scheme.STORMER_VERLET):
        with pytest.raises(ShapeMismatch):
            propagator(scheme, general, 0.5)
    propagator(Scheme.IMPLICIT_MIDPOINT, general, 0.5)
    with pytest.raises(ShapeMismatch):
        propagator(Scheme.EULER_B, Mat2(1.0, 0.0, 0.0, -1.0), 0.5)


@st.composite
def _straddling_traces(draw):
    """Finite A whose trace lies around both trace-free thresholds the
    package once had, 1e-9 * sqrt(1 + |A|_F^2) and 1e-9 * (1 + |A|_F)."""
    b, c, d = (draw(st.floats(-1e3, 1e3)) for _ in range(3))
    frob = math.sqrt(b * b + c * c + 2.0 * d * d)
    t = draw(st.floats(0.5, 1.5)) * 1e-9 * (1.0 + frob)
    return Mat2(draw(st.sampled_from((t, -t))) - d, b, c, d)


def _raises_not_trace_free(fn, a) -> bool:
    try:
        fn(a)
    except NotTraceFree:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(_straddling_traces())
@example(Mat2(2e-9, 1.0, 1.0, 0.0))
def test_propagator_and_classify_share_one_trace_free_test(a):
    shape = _raises_not_trace_free(
        lambda m: require_shape(Scheme.IMPLICIT_MIDPOINT, m), a
    )
    assert shape == _raises_not_trace_free(classify_equilibrium, a), a
    assert issubclass(NotTraceFree, ShapeMismatch)


def test_singular_cayley_raised_at_and_beyond_the_limit():
    a = Mat2(-1.0, 0.0, 0.0, 1.0)  # det = -1, limit at tau = 2
    with pytest.raises(SingularCayley):
        propagator(Scheme.IMPLICIT_MIDPOINT, a, 2.0)
    with pytest.raises(SingularCayley):
        propagator(Scheme.IMPLICIT_MIDPOINT, a, 2.0 + 1e-9)
    with pytest.raises(SingularCayley):
        propagator(Scheme.IMPLICIT_MIDPOINT, a, 5.0)
    propagator(Scheme.IMPLICIT_MIDPOINT, a, 1.999999)


def test_unimodularity_across_catalog_and_tau_grid():
    taus = [10.0 ** (-3 + 5 * k / 30) for k in range(31)]
    for name, sys, eq, scheme in catalog_equilibria_with_schemes():
        for tau in taus:
            try:
                s = propagator(scheme, eq.a, tau)
            except SingularCayley:
                continue
            gap = abs(s.det - 1.0)
            if tau <= 10.0:
                assert gap <= 1e-12, (name, scheme.value, tau)
            # beyond that double precision can only hold det to ~eps |S|^2
            assert gap <= 1e-12 * (1.0 + s.frobenius_sq), (name, scheme.value, tau)


def test_explicit_trace_formula():
    # trace S = 2 - tau^2 T'' V'' for the three explicit schemes
    rng = np.random.default_rng(31)
    for _ in range(200):
        v, t = map(float, rng.uniform(-3, 3, 2))
        tau = float(rng.uniform(1e-3, 10.0))
        a = Mat2(0.0, -v, t, 0.0)
        for scheme in (Scheme.EULER_B, Scheme.YOSHIDA2, Scheme.STORMER_VERLET):
            if scheme is Scheme.STORMER_VERLET:
                a_sv = Mat2(0.0, -v, 1.0, 0.0)  # newtonian shape, t = 1
                tr = propagator(scheme, a_sv, tau).trace
                expected = 2.0 - tau * tau * v
            else:
                tr = propagator(scheme, a, tau).trace
                expected = 2.0 - tau * tau * t * v
            assert abs(tr - expected) <= 1e-12 * (1.0 + abs(expected))


def test_implicit_midpoint_trace_stays_elliptic_for_centers():
    rng = np.random.default_rng(37)
    for _ in range(100):
        b = float(rng.uniform(0.1, 4.0))
        c = float(rng.uniform(0.1, 4.0))
        a = Mat2(0.0, -b, c, 0.0)  # det = bc > 0
        for tau in (0.01, 0.5, 3.0, 50.0, 1000.0):
            s = propagator(Scheme.IMPLICIT_MIDPOINT, a, tau)
            assert abs(s.trace) < 2.0


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_unimodularity_property(v, t, tau):
    # arbitrary magnitudes: double precision holds det to ~eps * |S|^2
    a = Mat2(0.0, -float(v), float(t), 0.0)
    for scheme in (Scheme.EULER_B, Scheme.YOSHIDA2):
        s = propagator(scheme, a, float(tau))
        assert abs(s.det - 1.0) <= 1e-12 * (1.0 + s.frobenius_sq)


# ---------------------------------------------------------------------------
# order of accuracy against the exact harmonic flow

def _exact_rotation(x: State, tau: float) -> State:
    c, s = math.cos(tau), math.sin(tau)
    return State(x.p * c - x.q * s, x.q * c + x.p * s)


@pytest.mark.parametrize(
    "scheme,system_factory,expected_slope",
    [
        (Scheme.EULER_B, catalog.harmonic, 2.0),
        (Scheme.YOSHIDA2, catalog.harmonic, 3.0),
        (Scheme.STORMER_VERLET, catalog.harmonic_newtonian, 3.0),
        (Scheme.IMPLICIT_MIDPOINT, catalog.harmonic, 3.0),
    ],
)
def test_one_step_order(scheme, system_factory, expected_slope):
    sys = system_factory()
    x0 = State(0.7, 0.3)
    taus = [0.2 / 2**k for k in range(5)]
    errs = []
    for tau in taus:
        got = step(scheme, sys, x0, tau)
        ref = _exact_rotation(x0, tau)
        errs.append(math.hypot(got.p - ref.p, got.q - ref.q))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert abs(slope - expected_slope) <= 0.15, slope


# ---------------------------------------------------------------------------
# symplecticity

def test_symplectic_defect_small_on_pendulum():
    rng = np.random.default_rng(41)
    pend = catalog.pendulum()
    for _ in range(20):
        x = State(*map(float, rng.uniform(-2, 2, 2)))
        assert symplecticity_defect(Scheme.EULER_B, pend, x, 0.1) <= 1e-7


def test_defect_at_equilibrium_is_tiny():
    for name, sys, eq, scheme in catalog_equilibria_with_schemes():
        try:
            d = symplecticity_defect(scheme, sys, eq.point, 0.1)
        except ImplicitSolveFailed:
            continue
        assert d <= 1e-7, (name, scheme.value)


def test_explicit_euler_control_is_detectably_non_symplectic():
    # det(I + tau A) = 1 + tau^2 on the harmonic oscillator
    harm = catalog.harmonic()
    rng = np.random.default_rng(43)
    for _ in range(10):
        x = State(*map(float, rng.uniform(-2, 2, 2)))
        defect = explicit_euler_defect(harm, x, 0.1)
        assert defect > 1e-3
        assert abs(defect - 0.01) <= 1e-6


# ---------------------------------------------------------------------------
# propagator vs nonlinear step

def propagator_matches_linearization(
    scheme: Scheme, sys: HamiltonianSystem, equilibrium, tau: float, h: float = 1e-5
) -> float:
    """max-norm gap between the closed-form propagator and the differenced
    Jacobian of the nonlinear step at the equilibrium point."""
    s = propagator(scheme, equilibrium.a, tau)
    m = _fd_jacobian(lambda y: step(scheme, sys, y, tau), equilibrium.point, h)
    return (s - m).max_norm


def test_propagator_matches_step_jacobian_examples():
    harm_eq = find_equilibria(catalog.harmonic())[0]
    gap = propagator_matches_linearization(
        Scheme.EULER_B, catalog.harmonic(), harm_eq, 0.5
    )
    assert gap <= 1e-6

    nh_eq = find_equilibria(catalog.harmonic_newtonian())[0]
    gap = propagator_matches_linearization(
        Scheme.STORMER_VERLET, catalog.harmonic_newtonian(), nh_eq, 1.0
    )
    assert gap <= 1e-6

    pend_eqs = find_equilibria(catalog.pendulum())
    saddle = [e for e in pend_eqs if abs(e.point.q - math.pi) < 1e-6][0]
    gap = propagator_matches_linearization(
        Scheme.IMPLICIT_MIDPOINT, catalog.pendulum(), saddle, 0.3
    )
    assert gap <= 1e-6


def test_propagator_matches_step_jacobian_across_catalog():
    for name, sys, eq, scheme in catalog_equilibria_with_schemes():
        try:
            gap = propagator_matches_linearization(scheme, sys, eq, 0.4)
        except (SingularCayley, ImplicitSolveFailed):
            continue
        assert gap <= 1e-6, (name, scheme.value)
