import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbound import catalog
from symbound import orbit
from symbound.orbit import (
    Bounded,
    Escaped,
    LeftDomain,
    OrbitTrace,
    SolverFailed,
    default_stride,
    orbit_to_csv,
    simulate,
)
from symbound.schemes import SCHEMES_BY_CLASS, ImplicitSolveFailed, NotApplicable, Scheme
from symbound.systems import HamiltonianSystem, State

from conftest import KERNEL_SYSTEMS, reference_simulate, same_float


def hamiltonian_drift(sys: HamiltonianSystem, trace: OrbitTrace) -> float:
    """max |H(state) - H(initial)| over the recorded states.

    Raises NotApplicable for newtonian systems, whose potential is not
    reconstructed.
    """
    h0 = sys.energy(trace.initial)
    drift = 0.0
    for state in trace.states:
        drift = max(drift, abs(sys.energy(state) - h0))
    return drift


def test_harmonic_euler_b_stays_bounded_below_the_limit():
    trace = simulate(
        catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 1.0,
        n_max=100_000, escape_radius=1e6,
    )
    assert isinstance(trace.verdict, Bounded)
    assert trace.verdict.n_steps == 100_000


def test_harmonic_euler_b_escapes_beyond_the_limit():
    trace = simulate(
        catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 2.1,
        n_max=10_000, escape_radius=1e6,
    )
    assert isinstance(trace.verdict, Escaped)
    assert trace.verdict.step < 2000
    assert trace.verdict.radius > 1e6


def test_cayley_singularity_reports_solver_failure():
    trace = simulate(
        catalog.shear(), Scheme.IMPLICIT_MIDPOINT, State(0.1, 0.1), 2.0,
        n_max=100, escape_radius=1e6,
    )
    assert trace.verdict == SolverFailed(0)


def test_failed_solve_carries_the_step_index_of_its_verdict(monkeypatch):
    err, calls, real_step = ImplicitSolveFailed("no convergence"), [], orbit.step

    def fifth_step_fails(scheme, sys, x, tau):
        calls.append(x)
        if len(calls) == 5:
            raise err
        return real_step(scheme, sys, x, tau)

    monkeypatch.setattr(orbit, "step", fifth_step_fails)
    sys = catalog.harmonic()
    trace = simulate(sys, Scheme.IMPLICIT_MIDPOINT, State(0.1, 0.0), 0.5, n_max=10)
    assert trace.verdict == SolverFailed(4)
    # the CSV keeps its layout
    assert orbit_to_csv(sys, trace).startswith("# verdict(heuristic) = solver-failed step=4\n")


def test_leaving_the_domain_ends_the_orbit_with_its_reason():
    sys = HamiltonianSystem.newtonian("1 - sqrt(q + 1)")
    trace = simulate(sys, Scheme.EULER_B, State(0.1, 0.0), 3.5, n_max=2000, stride=1000)
    assert trace.verdict == LeftDomain(2, "sqrt of a negative value")
    assert trace.steps == [0, 2]  # the last state the orbit reached
    assert orbit_to_csv(sys, trace).startswith(
        "# verdict(heuristic) = left-domain step=2 reason=sqrt of a negative value\n"
    )


def test_a_math_domain_error_ends_the_orbit_in_left_domain():
    # exp(900) saturates to inf, where math.sin raises ValueError
    sys = HamiltonianSystem.newtonian("sin(exp(q^2))")
    trace = simulate(sys, Scheme.EULER_B, State(0.0, 30.0), 0.5, n_max=10)
    assert trace.verdict == LeftDomain(0, "math domain error")
    assert trace.steps == [0]
    # a bad step size is still an error, not a verdict built from it
    for tau in (0.0, -0.5, -math.inf, math.inf, math.nan):
        message = "positive" if tau <= 0.0 else f"finite, got {tau!r}"
        for system in (sys, catalog.harmonic()):
            with pytest.raises(ValueError, match=f"step size must be {message}"):
                simulate(system, Scheme.EULER_B, State(0.1, 0.0), tau, n_max=10)


@pytest.mark.parametrize(
    "sys, x0",
    [
        # exp(1000) - exp(1000) is inf - inf: the step gives (nan, nan)
        (HamiltonianSystem.newtonian("exp(q) - exp(q)"), State(0.0, 1000.0)),
        # the kick gives p = inf, where T' = inf - inf: (inf, nan), whose
        # hypot is inf, not NaN
        (HamiltonianSystem.separable("exp(p) - exp(p)", "-exp(q^2)"), State(0.0, 30.0)),
    ],
)
def test_a_nan_state_ends_the_orbit_in_left_domain(sys, x0):
    trace = simulate(sys, Scheme.EULER_B, x0, 0.1, n_max=10)
    assert trace.verdict == LeftDomain(0, "the step gave a NaN state")
    assert trace.steps == [0] and trace.states == [x0]
    assert "nan" not in orbit_to_csv(sys, trace).splitlines()[3]


def test_recording_stride_and_endpoints():
    trace = simulate(
        catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 0.1,
        n_max=1000, escape_radius=1e6, stride=100,
    )
    assert trace.steps[0] == 0
    assert trace.steps[-1] == 1000
    assert trace.steps[1] == 100
    assert len(trace.steps) == len(trace.states) == 11
    assert default_stride(100_000) == 10


def test_determinism_bit_for_bit():
    runs = [
        simulate(
            catalog.pendulum(), Scheme.YOSHIDA2, State(0.01, 0.02), 0.3,
            n_max=5000, escape_radius=1e6, stride=50,
        )
        for _ in range(2)
    ]
    assert runs[0].states == runs[1].states
    assert runs[0].steps == runs[1].steps
    assert runs[0].verdict == runs[1].verdict


def test_input_validation():
    with pytest.raises(ValueError):
        simulate(catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 0.1, n_max=0)
    with pytest.raises(ValueError):
        simulate(
            catalog.harmonic(), Scheme.EULER_B, State(3.0, 4.0), 0.1,
            escape_radius=5.0,
        )
    with pytest.raises(ValueError):  # no radius exceeds a NaN one
        simulate(
            catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 0.1,
            escape_radius=math.nan,
        )


def assert_same_trace(got: OrbitTrace, want: OrbitTrace) -> None:
    """Steps equal, states bit for bit (any NaN equals any NaN), and the
    verdict of the same type with the same fields."""
    assert got.steps == want.steps
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert same_float(a.p, b.p) and same_float(a.q, b.q), (a, b)
    assert type(got.verdict) is type(want.verdict), (got.verdict, want.verdict)
    for field in dataclasses.fields(want.verdict):
        a, b = getattr(got.verdict, field.name), getattr(want.verdict, field.name)
        assert same_float(a, b) if isinstance(b, float) else a == b, (a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(KERNEL_SYSTEMS),
    st.floats(min_value=0.0, max_value=4.0, exclude_min=True),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=50),
    st.sampled_from((10.0, 1e6, math.inf)),
)
def test_simulate_equals_the_reference_loop(sys, tau, p, q, n_max, stride, escape_radius):
    x0 = State(p, q)
    for scheme in SCHEMES_BY_CLASS[sys.kind]:
        args = sys, scheme, x0, tau, n_max, escape_radius, stride
        assert_same_trace(simulate(*args), reference_simulate(*args))


@pytest.mark.parametrize(
    "sys, scheme, x0, tau, kwargs, is_ending",
    [
        (catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 1.0,
         {"n_max": 1000, "stride": 100},
         lambda v: isinstance(v, Bounded) and v.n_steps == 1000),
        (catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 2.1,
         {"n_max": 10_000},
         lambda v: isinstance(v, Escaped) and 1e6 < v.radius < math.inf),
        # no radius exceeds an infinite escape radius: the orbit runs until
        # its radius overflows
        (catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 2.1,
         {"n_max": 10_000, "escape_radius": math.inf},
         lambda v: v == Escaped(v.step, math.inf)),
        # the linear saddle at its Cayley step size
        (catalog.saddle(), Scheme.IMPLICIT_MIDPOINT, State(0.1, 0.1), 2.0,
         {"n_max": 100}, lambda v: v == SolverFailed(0)),
        (HamiltonianSystem.newtonian("1 - sqrt(q + 1)"), Scheme.EULER_B,
         State(0.1, 0.0), 3.5, {"n_max": 2000, "stride": 1000},
         lambda v: v == LeftDomain(2, "sqrt of a negative value")),
        (HamiltonianSystem.newtonian("exp(q) - exp(q)"), Scheme.EULER_B,
         State(0.0, 1000.0), 0.1, {"n_max": 10},
         lambda v: v == LeftDomain(0, "the step gave a NaN state")),
        # the kick takes p to inf and the drift q to inf - inf: the state
        # (inf, nan) has the radius hypot(inf, nan) = inf, not NaN
        (HamiltonianSystem.separable("p*p/2 - p*p/2", "-exp(q)"), Scheme.EULER_B,
         State(0.0, 800.0), 0.1, {"n_max": 10},
         lambda v: v == LeftDomain(0, "the step gave a NaN state")),
    ],
    ids=["bounded", "escaped", "escaped-to-inf", "solver-failed",
         "left-domain", "nan-state", "inf-nan-state"],
)
def test_each_ending_equals_the_reference_loop(sys, scheme, x0, tau, kwargs, is_ending):
    trace = simulate(sys, scheme, x0, tau, **kwargs)
    assert is_ending(trace.verdict), trace.verdict
    assert_same_trace(trace, reference_simulate(sys, scheme, x0, tau, **kwargs))


# ---------------------------------------------------------------------------
# energy drift

def test_yoshida_drift_is_small_below_the_limit():
    trace = simulate(
        catalog.harmonic(), Scheme.YOSHIDA2, State(0.1, 0.0), 0.1,
        n_max=10_000, escape_radius=1e6,
    )
    assert hamiltonian_drift(catalog.harmonic(), trace) <= 5e-3


def test_drift_of_trivial_trace_is_zero():
    trace = OrbitTrace(
        initial=State(0.3, 0.4), scheme=Scheme.EULER_B, tau=0.1,
        steps=[0], states=[State(0.3, 0.4)], verdict=Bounded(0, 0.5),
    )
    assert hamiltonian_drift(catalog.harmonic(), trace) == 0.0


def test_escaped_orbit_reports_large_drift_without_failing():
    trace = simulate(
        catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 2.1,
        n_max=10_000, escape_radius=1e6,
    )
    assert hamiltonian_drift(catalog.harmonic(), trace) > 1.0


def test_drift_not_applicable_for_newtonian():
    trace = simulate(
        catalog.pendulum_newtonian(), Scheme.STORMER_VERLET, State(0.1, 0.0), 0.1,
        n_max=100, escape_radius=1e6,
    )
    with pytest.raises(NotApplicable):
        hamiltonian_drift(catalog.pendulum_newtonian(), trace)


# ---------------------------------------------------------------------------
# linear-verdict consistency near equilibria

def test_pendulum_center_orbits_follow_the_linear_verdict():
    pend = catalog.pendulum()
    # margin >= 0.1 on the holding side: trace(S) = 2 - tau^2, tau = 1.9
    ok = simulate(
        pend, Scheme.EULER_B, State(1e-3, 0.0), 1.9,
        n_max=100_000, escape_radius=1.0,
    )
    assert isinstance(ok.verdict, Bounded)
    # margin >= 0.1 on the failing side: tau = 2.1
    bad = simulate(
        pend, Scheme.EULER_B, State(1e-3, 0.0), 2.1,
        n_max=10_000, escape_radius=1.0,
    )
    assert isinstance(bad.verdict, Escaped)


def test_linear_verdict_governs_catalog_center_orbits():
    """Every catalog center with the explicit-scheme trace 2 - tau^2:
    holding margin >= 0.1 keeps nearby orbits bounded over 1e5 steps, and
    failing margin >= 0.1 escapes within 1e4 steps."""
    from symbound.schemes import SCHEMES_BY_CLASS
    from symbound.verify import catalog_equilibria

    for name, sys, eqs in catalog_equilibria():
        centers = [e for e in eqs if e.kind.value == "center"]
        for eq in centers:
            x0 = State(eq.point.p + 1e-3, eq.point.q)
            for scheme in SCHEMES_BY_CLASS[sys.kind]:
                ok = simulate(
                    sys, scheme, x0, 1.9,
                    n_max=100_000, escape_radius=1.0, stride=10_000,
                )
                assert isinstance(ok.verdict, Bounded), (name, scheme.value)
                if scheme is Scheme.IMPLICIT_MIDPOINT:
                    continue  # elliptic at every tau: no failing side to test
                bad = simulate(
                    sys, scheme, x0, 2.1, n_max=10_000, escape_radius=1.0
                )
                assert isinstance(bad.verdict, Escaped), (name, scheme.value)


def test_saddle_nearby_orbits_escape():
    # the saddle sits at q = pi, so the origin-centered escape radius must
    # exceed pi; 5.0 still catches the orbit leaving the neighbourhood
    pend = catalog.pendulum()
    for tau in (0.5, 2.0, 10.0):
        trace = simulate(
            pend, Scheme.EULER_B, State(1e-3, math.pi + 1e-3), tau,
            n_max=10_000, escape_radius=5.0,
        )
        assert isinstance(trace.verdict, Escaped), tau


# ---------------------------------------------------------------------------
# CSV

def test_orbit_csv_layout():
    trace = simulate(
        catalog.harmonic(), Scheme.EULER_B, State(0.1, 0.0), 0.5,
        n_max=10, escape_radius=1e6, stride=5,
    )
    text = orbit_to_csv(catalog.harmonic(), trace)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# verdict(heuristic) = bounded")
    assert lines[2] == "step,p,q,H"
    first = lines[3].split(",")
    assert first[0] == "0" and float(first[1]) == 0.1
    assert float(first[3]) == pytest.approx(0.005)


def test_orbit_csv_blank_energy_for_newtonian():
    trace = simulate(
        catalog.harmonic_newtonian(), Scheme.STORMER_VERLET, State(0.1, 0.0), 0.5,
        n_max=4, escape_radius=1e6, stride=1,
    )
    text = orbit_to_csv(catalog.harmonic_newtonian(), trace)
    data = [l for l in text.strip().splitlines() if not l.startswith("#")][1:]
    assert all(line.endswith(",") for line in data)
