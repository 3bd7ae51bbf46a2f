"""Nonlinear orbit simulation with boundedness heuristics.

Finite simulation cannot decide boundedness; the verdicts here are labelled
heuristic and are controlled by a step horizon and an escape radius.  Near
an equilibrium a small escape radius keeps nonlinear terms subdominant, so
the linearized analysis governs what these runs should show.
"""

import math
from dataclasses import dataclass

from .expr import DomainError
from .schemes import ImplicitSolveFailed, Scheme, step, step_size_error
from .systems import HamiltonianSystem, NotApplicable, State


@dataclass(frozen=True)
class Bounded:
    n_steps: int
    max_radius: float


@dataclass(frozen=True)
class Escaped:
    step: int
    radius: float


@dataclass(frozen=True)
class SolverFailed:
    step: int


@dataclass(frozen=True)
class LeftDomain:
    """The step from state ``step`` evaluated an expression outside its
    domain, for the reason given."""

    step: int
    reason: str


OrbitVerdict = Bounded | Escaped | SolverFailed | LeftDomain


@dataclass
class OrbitTrace:
    initial: State
    scheme: Scheme
    tau: float
    steps: list[int]
    states: list[State]
    verdict: OrbitVerdict


def default_stride(n_max: int) -> int:
    return max(1, n_max // 10_000)


def simulate(
    sys: HamiltonianSystem,
    scheme: Scheme,
    x0: State,
    tau: float,
    n_max: int = 100_000,
    escape_radius: float = 1e6,
    stride: int | None = None,
) -> OrbitTrace:
    """Iterate the scheme from x0; stop on escape, solver failure, leaving
    an expression's domain, or the horizon.

    The initial state and every stride-th state are recorded, and so is
    the final one, except after a failed solve.  The run is pure and
    deterministic: identical inputs give bit-identical traces.  A step
    whose implicit solve fails ends in SolverFailed, whose step is the
    index of the state the step started from; that state is recorded only
    when its index is a multiple of stride.  A step that leaves an
    expression's domain (a DomainError) or gives a NaN state ends in
    LeftDomain, with the last finite state recorded.
    """
    if not 0.0 < tau < math.inf:
        raise step_size_error(tau)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if stride is None:
        stride = default_stride(n_max)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    r0 = math.hypot(x0.p, x0.q)
    if not escape_radius > r0:
        raise ValueError("escape radius must exceed the initial radius")
    # the greatest float at most, so that an infinite radius escapes too
    escape = min(escape_radius, math.nextafter(math.inf, 0.0))
    steps = [0]
    states = [x0]
    x = x0
    max_radius = r0

    def record(n: int, y: State) -> None:
        if steps[-1] != n:
            steps.append(n)
            states.append(y)

    hypot = math.hypot
    n = 0
    while n < n_max:
        # one chunk: stride steps, or the steps left before n_max, so that
        # it ends at a multiple of stride or at n_max, the states recorded;
        # no step tests n % stride
        for n in range(n + 1, min(n + stride, n_max) + 1):
            try:
                y = step(scheme, sys, x, tau)
            except ImplicitSolveFailed:
                return OrbitTrace(x0, scheme, tau, steps, states, SolverFailed(n - 1))
            except DomainError as err:
                record(n - 1, x)
                verdict = LeftDomain(n - 1, str(err))
                return OrbitTrace(x0, scheme, tau, steps, states, verdict)
            yp, yq = y
            r = hypot(yp, yq)
            # one comparison while r stays within max_radius, which is finite;
            # a NaN r fails every comparison
            if not r <= max_radius:
                if not r <= escape:
                    if math.isnan(yp) or math.isnan(yq):  # hypot(inf, nan) is inf
                        record(n - 1, x)
                        verdict = LeftDomain(n - 1, "the step gave a NaN state")
                        return OrbitTrace(x0, scheme, tau, steps, states, verdict)
                    record(n, y)
                    return OrbitTrace(x0, scheme, tau, steps, states, Escaped(n, r))
                max_radius = r
            x = y
        record(n, x)
    return OrbitTrace(x0, scheme, tau, steps, states, Bounded(n_max, max_radius))


def _energy_cells(sys: HamiltonianSystem, states: list[State]) -> list[str]:
    """repr(H) of each state; blank throughout for a newtonian system, which
    has no H, and blank at a state where H leaves its domain."""
    cells = []
    for x in states:
        try:
            cells.append(repr(sys.energy(x)))
        except NotApplicable:
            return ["" for _ in states]
        except (DomainError, ValueError):  # e.g. cos(inf) at an escaped state
            cells.append("")
    return cells


def orbit_to_csv(sys: HamiltonianSystem, trace: OrbitTrace) -> str:
    """CSV with columns step,p,q,H; see _energy_cells for a blank H."""
    energies = _energy_cells(sys, trace.states)
    verdict = trace.verdict
    if isinstance(verdict, Bounded):
        summary = f"bounded n_steps={verdict.n_steps} max_radius={verdict.max_radius!r}"
    elif isinstance(verdict, Escaped):
        summary = f"escaped step={verdict.step} radius={verdict.radius!r}"
    elif isinstance(verdict, SolverFailed):
        summary = f"solver-failed step={verdict.step}"
    else:
        summary = f"left-domain step={verdict.step} reason={verdict.reason}"
    lines = [
        f"# verdict(heuristic) = {summary}",
        f"# scheme={trace.scheme.value} tau={trace.tau!r} "
        f"p0={trace.initial.p!r} q0={trace.initial.q!r}",
        "step,p,q,H",
    ]
    for n, state, h in zip(trace.steps, trace.states, energies):
        lines.append(f"{n},{state.p!r},{state.q!r},{h}")
    return "\n".join(lines) + "\n"
