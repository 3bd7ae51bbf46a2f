"""Seeded inputs for the benchmark, with every expected value derived here.

Each generated case is one config file for one CLI command.  The systems
come from a few parametrized families whose equilibria, linearizations and
step-size limits follow in closed form from the parameters, so the checks
never ask symbound what the right answer is.

Linearization convention (the same as the README's): for an equilibrium of
H(p, q) the Jacobian of (dp/dt, dq/dt) is A = [[-H_pq, -H_qq], [H_pp, H_pq]],
trace-free, with det A = H_pp H_qq - H_pq^2.  Limits:

  euler-b, yoshida2, stormer-verlet   2 / sqrt(det A)   when det A > 0
  implicit-midpoint                   2 / sqrt(-det A)  when det A < 0
  otherwise                           unlimited (inf)
"""

import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

MIDPOINT = "implicit-midpoint"
SCHEMES_BY_CLASS = {
    "newtonian": ["euler-b", "yoshida2", "stormer-verlet", MIDPOINT],
    "separable": ["euler-b", "yoshida2", MIDPOINT],
    "general": [MIDPOINT],
}


class Eq(NamedTuple):
    """An equilibrium point and its exact linearization A."""

    p: float
    q: float
    a11: float
    a12: float
    a21: float
    a22: float

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def kind(self) -> str:
        return "center" if self.det > 0.0 else "saddle"


def limit(scheme: str, eq: Eq) -> float:
    """The closed-form largest preserving step size of a scheme at eq."""
    d = eq.det
    if scheme == MIDPOINT:
        return 2.0 / math.sqrt(-d) if d < 0.0 else math.inf
    return 2.0 / math.sqrt(d) if d > 0.0 else math.inf


@dataclass
class Case:
    """One generated config, what it asks for, and what the answer must be."""

    name: str
    family: str
    cls: str
    exprs: dict[str, str]
    eqs: list[Eq]
    box: tuple[float, float, float, float]  # p_min, p_max, q_min, q_max
    linear: bool = False
    energy: Callable[[float, float], float] | None = None
    grid: int = 12
    schemes: list[str] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    sweep: tuple[float, float, int] | None = None  # lo, hi, count (log scale)
    n_max: int = 0
    stride: int = 0
    escape_r: float = 0.0
    offsets: list[tuple[float, float]] = field(default_factory=list)

    def limits(self) -> list[float]:
        return [limit(s, e) for s in self.schemes for e in self.eqs]

    def config_text(self) -> str:
        lines = ["[system]", f"class = {self.cls}"]
        lines += [f"{k} = {v}" for k, v in self.exprs.items()]
        lines += ["", "[run]", f"schemes = {', '.join(self.schemes)}"]
        if self.taus:
            lines.append(f"tau = {', '.join(repr(t) for t in self.taus)}")
        if self.sweep is not None:
            lo, hi, count = self.sweep
            lines += [
                f"tau_lo = {lo!r}",
                f"tau_hi = {hi!r}",
                f"tau_count = {count}",
                "tau_scale = log",
            ]
        p0, p1, q0, q1 = self.box
        lines += [
            "",
            "[search]",
            f"p_min = {p0!r}",
            f"p_max = {p1!r}",
            f"q_min = {q0!r}",
            f"q_max = {q1!r}",
            f"grid = {self.grid}",
        ]
        if self.n_max:
            offsets = ", ".join(f"{dp!r}, {dq!r}" for dp, dq in self.offsets)
            lines += [
                "",
                "[simulate]",
                f"n_max = {self.n_max}",
                f"escape_r = {self.escape_r!r}",
                f"stride = {self.stride}",
                f"offsets = {offsets}",
            ]
        return "\n".join(lines) + "\n"


def _u(rng: random.Random, lo: float, hi: float) -> float:
    # four decimals keep the configs readable; the expected values use the
    # same rounded floats the config parser reads back
    return round(rng.uniform(lo, hi), 4)


def _newtonian_eq(q: float, gprime: float) -> Eq:
    return Eq(0.0, q, 0.0, gprime, 1.0, 0.0)


def _separable_eq(q: float, m: float, v2: float) -> Eq:
    return Eq(0.0, q, 0.0, -v2, 1.0 / m, 0.0)


# ---------------------------------------------------------------------------
# Families with a centre and two saddles (or the reverse) in the search box.
# Used by the analyze and sweep workloads.

def pendulum(rng: random.Random, name: str) -> Case:
    """g = -a sin(b q): centre at 0, saddles at +-pi/b."""
    a, b = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    eqs = [
        _newtonian_eq(q, -a * b * math.cos(b * q))
        for q in (-math.pi / b, 0.0, math.pi / b)
    ]
    qmax = 1.5 * math.pi / b
    return Case(name, "pendulum", "newtonian", {"g": f"-{a}*sin({b}*q)"}, eqs,
                (-1.0, 1.0, -qmax, qmax))


def duffing(rng: random.Random, name: str) -> Case:
    """g = a q - d q^3: saddle at 0, centres at +-sqrt(a/d)."""
    a, d = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    r = math.sqrt(a / d)
    eqs = [_newtonian_eq(q, a - 3.0 * d * q * q) for q in (-r, 0.0, r)]
    return Case(name, "duffing", "newtonian", {"g": f"{a}*q - {d}*q^3"}, eqs,
                (-1.0, 1.0, -1.6 * r, 1.6 * r))


def quartic(rng: random.Random, name: str, well: bool) -> Case:
    """T = p^2/(2m), V = c q^2/2 + d q^4/4 with c d < 0.

    ``well``: c < 0 < d, a double well (saddle at 0, centres at
    +-sqrt(-c/d)); otherwise c > 0 > d (centre at 0, saddles outside).
    """
    m, c, d = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    c, d = (-c, d) if well else (c, -d)
    r = math.sqrt(-c / d)
    eqs = [_separable_eq(q, m, c + 3.0 * d * q * q) for q in (-r, 0.0, r)]
    exprs = {"t": f"p^2/(2*{m})", "v": f"{c}*q^2/2 + {d}*q^4/4"}
    return Case(name, "quartic-well" if well else "quartic-hill", "separable",
                exprs, eqs, (-1.0, 1.0, -1.6 * r, 1.6 * r))


def _cosh_eq(a: float, c: float, q: float) -> Eq:
    cq = math.cos(q)
    return Eq(0.0, q, -c * cq, -a * cq, 1.0, c * cq)


def cosh_general(rng: random.Random, name: str) -> Case:
    """H = cosh(p) - a cos(q) + c p sin(q), c^2 < a.

    Its only equilibria are (0, k pi): centres at even k, saddles at odd k.
    Away from sin q = 0 an equilibrium needs a |sin q| = |c cos q
    asinh(c sin q)| <= c^2 |sin q|, impossible for c^2 < a.
    """
    a = _u(rng, 0.5, 2.0)
    c = round(_u(rng, 0.1, 0.7) * math.sqrt(a), 4)
    eqs = [_cosh_eq(a, c, q) for q in (-math.pi, 0.0, math.pi)]
    return Case(name, "cosh", "general",
                {"h": f"cosh(p) - {a}*cos(q) + {c}*p*sin(q)"}, eqs,
                (-1.0, 1.0, -1.5 * math.pi, 1.5 * math.pi))


_THREE_EQ_FAMILIES = (
    pendulum,
    duffing,
    lambda rng, name: quartic(rng, name, well=True),
    lambda rng, name: quartic(rng, name, well=False),
    cosh_general,
)


def _three_eq_cases(rng: random.Random, prefix: str, count: int) -> list[Case]:
    cases = []
    for i in range(count):
        family = _THREE_EQ_FAMILIES[i % len(_THREE_EQ_FAMILIES)]
        case = family(rng, f"{prefix}{i:03d}")
        case.schemes = list(SCHEMES_BY_CLASS[case.cls])
        cases.append(case)
    return cases


def analyze_cases(seed: int, count: int = 200) -> list[Case]:
    """Small configs: three step sizes each, placed off every limit by >= 5%."""
    rng = random.Random(f"analyze:{seed}")
    cases = _three_eq_cases(rng, "analyze", count)
    for case in cases:
        lmin = min(x for x in case.limits() if math.isfinite(x))
        case.taus = [
            round(lmin * _u(rng, lo, hi), 6)
            for lo, hi in ((0.3, 0.7), (0.85, 0.95), (1.05, 1.3))
        ]
    return cases


def sweep_cases(seed: int, count: int = 15, tau_count: int = 2000) -> list[Case]:
    """Dense log tau grids from well below the smallest limit to 3x the largest."""
    rng = random.Random(f"sweep:{seed}")
    cases = _three_eq_cases(rng, "sweep", count)
    for case in cases:
        finite = [x for x in case.limits() if math.isfinite(x)]
        lo = round(min(finite) * _u(rng, 0.03, 0.06), 6)
        hi = round(max(finite) * _u(rng, 2.5, 3.5), 6)
        case.sweep = (lo, hi, tau_count)
    return cases


# ---------------------------------------------------------------------------
# Families with a single equilibrium at the origin, for long orbits: the
# escape radius is measured from the origin, so it then bounds a
# neighbourhood of the equilibrium.

_OFFSETS = [(1e-3, 0.0), (0.0, 1e-3)]  # one per case, alternating
_ORIGIN_BOX = (-1.0, 1.0, -1.0, 1.0)


def _sim_case(name, family, cls, exprs, eq, linear, energy=None, box=_ORIGIN_BOX,
              escape_r=0.2) -> Case:
    case = Case(name, family, cls, exprs, [eq], box, linear=linear, energy=energy,
                grid=8, escape_r=escape_r)
    case.schemes = list(SCHEMES_BY_CLASS[cls])
    return case


def _sim_families(rng: random.Random, prefix: str) -> list[Case]:
    """One case of every orbit family; parameters drawn from ``rng``."""
    out = []

    def add(family, cls, exprs, eq, linear, **kw):
        case = _sim_case(f"{prefix}{len(out):02d}-{family}", family, cls, exprs, eq,
                         linear, **kw)
        case.offsets = [_OFFSETS[len(out) % 2]]
        out.append(case)

    w, k = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    add("lin-newton-center", "newtonian", {"g": f"-{w}*q"}, _newtonian_eq(0.0, -w), True)
    add("lin-newton-saddle", "newtonian", {"g": f"{k}*q"}, _newtonian_eq(0.0, k), True)

    al, ga = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    be = round(_u(rng, -0.5, 0.5) * math.sqrt(al * ga), 4)
    add("lin-general-center", "general",
        {"h": f"0.5*{al}*p^2 + {be}*p*q + 0.5*{ga}*q^2"},
        Eq(0.0, 0.0, -be, -ga, al, be), True,
        energy=lambda p, q: 0.5 * al * p * p + be * p * q + 0.5 * ga * q * q)
    al2, ga2, be2 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), _u(rng, -0.5, 0.5)
    add("lin-general-saddle", "general",
        {"h": f"0.5*{al2}*p^2 + {be2}*p*q - 0.5*{ga2}*q^2"},
        Eq(0.0, 0.0, -be2, ga2, al2, be2), True,
        energy=lambda p, q: 0.5 * al2 * p * p + be2 * p * q - 0.5 * ga2 * q * q)

    m, c = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    add("lin-separable-center", "separable", {"t": f"p^2/(2*{m})", "v": f"{c}*q^2/2"},
        _separable_eq(0.0, m, c), True,
        energy=lambda p, q: p * p / (2.0 * m) + c * q * q / 2.0)

    a, b = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    add("pendulum-center", "newtonian", {"g": f"-{a}*sin({b}*q)"},
        _newtonian_eq(0.0, -a * b), False,
        box=(-1.0, 1.0, -0.5 * math.pi / b, 0.5 * math.pi / b), escape_r=0.2 / b)
    a2, d2 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    add("duffing-center", "newtonian", {"g": f"-{a2}*q - {d2}*q^3"},
        _newtonian_eq(0.0, -a2), False)
    a3, d3 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    add("duffing-saddle", "newtonian", {"g": f"{a3}*q + {d3}*q^3"},
        _newtonian_eq(0.0, a3), False)
    m4, c4, d4 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    add("quartic-center", "separable", {"t": f"p^2/(2*{m4})", "v": f"{c4}*q^2/2 + {d4}*q^4/4"},
        _separable_eq(0.0, m4, c4), False,
        energy=lambda p, q: p * p / (2.0 * m4) + c4 * q * q / 2.0 + d4 * q**4 / 4.0)
    a5 = _u(rng, 0.5, 2.0)
    c5 = round(_u(rng, 0.1, 0.7) * math.sqrt(a5), 4)
    add("cosh-center", "general", {"h": f"cosh(p) - {a5}*cos(q) + {c5}*p*sin(q)"},
        _cosh_eq(a5, c5, 0.0), False,
        box=(-1.0, 1.0, -0.5 * math.pi, 0.5 * math.pi),
        energy=lambda p, q: math.cosh(p) - a5 * math.cos(q) + c5 * p * math.sin(q))
    return out


def simulate_cases(seed: int, n_max: int = 20000, stride: int = 1000) -> list[Case]:
    """Long orbits below and above each limit, from offsets about the origin.

    Every orbit family appears twice, each time with its own parameters, so
    that the median op time is taken over more than one config of each
    cost.  Centres get a step size below the explicit limit (bounded) and
    one above it (escapes).  Saddles get one below the midpoint
    singularity; linear saddles also get the singular step itself, where
    the midpoint solve fails at once, and one beyond it, where the Cayley
    map is hyperbolic.
    """
    rng = random.Random(f"simulate:{seed}")
    cases = [c for k in range(2) for c in _sim_families(rng, f"simulate{k}-")]
    for case in cases:
        eq = case.eqs[0]
        case.n_max, case.stride = n_max, stride
        lim = 2.0 / math.sqrt(abs(eq.det))  # the one finite limit, or the
        # natural step scale of a centre that only the midpoint rule sees
        factors = [_u(rng, 0.4, 0.6), _u(rng, 1.2, 1.3)]
        case.taus = [round(lim * f, 6) for f in factors]
        if eq.kind == "saddle" and case.linear:
            case.taus.insert(1, lim)
    return cases


def make_cases(workload: str, seed: int) -> list[Case]:
    return {"analyze": analyze_cases, "sweep": sweep_cases,
            "simulate": simulate_cases}[workload](seed)
