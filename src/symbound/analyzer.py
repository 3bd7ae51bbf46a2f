"""Local-boundedness preservation analysis.

For a trace-free linearization A and a unimodular one-step matrix S(tau),
the subspace of initial conditions with bounded forward orbits is computed
on both sides:

  continuous  det A > 0 (center) or A = 0: the whole plane;
              det A < 0 (saddle): the stable eigenline;
              rank A = 1: the kernel of A (orbits grow linearly off it)

  discrete    |tr S| < 2 (elliptic): the whole plane;
              |tr S| > 2 (hyperbolic): the contracting eigenline;
              tr S = +-2: the whole plane if S = +-I, else the kernel of
              S -+ I (parabolic shear)

The preservation verdict holds when the discrete side matches what the
continuous classification demands: elliptic over a center, hyperbolic over
a saddle, a shear of matching rank over a degenerate linearization.

The closed-form step-size limit is one formula for both kinds of scheme
row.  A stage row's tr S = 2 - tau^2 det A reaches -2, and the Cayley
row's denominator det(I - tau A / 2) = 1 + tau^2 det A / 4 reaches 0, at
y tau^2 = 4, with y = det A (T'' V'', or -g' for newtonian systems) for a
stage row and y = -det A for the Cayley row.  The limit is 2 / sqrt(y)
when y > 0 (for the Cayley row a solvability singularity), else unlimited.
The empirical limit is recovered independently by bisecting the verdict
predicate in tau.

The trace/rank test has one definition, _CASE_TESTS, one text per case,
generated into code over floats or arrays of S entries.  check_preservation
applies it and also builds both bounded subspaces; verdict_grid applies it
to a whole tau grid at once; the bisection's predicate computes only the
verdict: A's shape is checked and A classified when the predicate is made,
before any tau, and each call runs the verdict generated for the scheme row
and that case, S(tau) and the test in one straight line, building no
subspace.  Every verdict entry checks and classifies A before it reads a
tau.  Only verdict_grid works on arrays, so only it imports numpy; the
scalar paths start without it.
"""

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import expr as ex
from .mat2 import DECISION_TOL, Mat2, Vec2, eigenvector, normalized, unimodularity_lost
from .schemes import (
    GUARD_NAMES,
    UNIMODULAR_TOL,
    NonFiniteLinearization,
    Scheme,
    ShapeMismatch,
    guarded_s_body,
    propagator,
    require_shape,
    step,
    step_size_error,
)
from .systems import (
    Equilibrium,
    EquilibriumKind,
    HamiltonianSystem,
    NotApplicable,
    classify_equilibrium,
    collapse_continuum,
)


class NotUnimodular(Exception):
    pass


class InconsistentPredicate(Exception):
    """The preservation predicate was not monotone in tau on the bracket."""


class BoundedSubspace(NamedTuple):
    dim: int
    basis: tuple[Vec2, ...]
    whole_space: bool


class ContainmentNote(enum.Enum):
    EXACT = "exact"
    DIM_ONLY = "dim-only"
    NOT_APPLICABLE = "not-applicable"


class PreservationVerdict(NamedTuple):
    case: int  # 1 center, 2 saddle, 3 rank-1, 4 zero
    condition_holds: bool
    marginal: bool
    dim_b_a: int
    dim_b_s: int
    containment: ContainmentNote


@dataclass(frozen=True)
class TauLimit:
    value: float  # math.inf when unlimited
    singular: bool  # True when the limit is a solvability singularity


_WHOLE_PLANE = BoundedSubspace(dim=2, basis=(), whole_space=True)


def _line(v: Vec2) -> BoundedSubspace:
    return BoundedSubspace(1, (normalized(v),), False)


def dim_bounded_continuous(a: Mat2) -> BoundedSubspace:
    """Bounded-orbit subspace of y' = A y for trace-free A; a non-finite A
    raises NonFiniteLinearization."""
    return _continuous_subspace(a, classify_equilibrium(a))


def _continuous_subspace(a: Mat2, kind: EquilibriumKind) -> BoundedSubspace:
    if kind in (EquilibriumKind.CENTER, EquilibriumKind.RANK0_ZERO):
        return _WHOLE_PLANE
    if kind is EquilibriumKind.SADDLE:
        lam = -math.sqrt(-a.det)
        return _line(eigenvector(a, lam))
    return _line(eigenvector(a, 0.0))  # the kernel of rank-1 A


def dim_bounded_discrete(s: Mat2) -> BoundedSubspace:
    """Bounded-orbit subspace of y_{n+1} = S y_n for unimodular S."""
    s11, s12, s21, s22 = s
    det, lost = unimodularity_lost(s11, s12, s21, s22, DECISION_TOL)
    if lost:
        raise NotUnimodular(f"det S = {det!r} is not 1 within tolerance")
    tr = s11 + s22
    boundary = DECISION_TOL * (1.0 + max(abs(s11), abs(s12), abs(s21), abs(s22)))
    if abs(tr) > 2.0 + boundary:
        # for large entries det S can round above tr^2 / 4; read that as 0
        disc = max(tr * tr - 4.0 * det, 0.0)
        lam = 0.5 * (tr - math.copysign(math.sqrt(disc), tr))
        return _line(eigenvector(s, lam))
    if abs(tr) < 2.0 - boundary:
        return _WHOLE_PLANE
    # parabolic boundary: S is a shear about +I or -I
    sign = 1.0 if tr > 0.0 else -1.0
    m = s - Mat2.identity().scale(sign)
    if m.max_norm <= boundary:
        return _WHOLE_PLANE
    return _line(eigenvector(m, 0.0))  # the kernel of S -+ I


def check_preservation(a: Mat2, s: Mat2) -> PreservationVerdict:
    """Apply the trace/rank preservation criteria for one (A, S) pair.

    The verdict is normative from the trace/rank tests; the bounded-subspace
    dimensions and the containment note expose how literally the continuous
    bounded set sits inside the discrete one (for saddles the two stable
    lines generally differ by O(tau), hence DIM_ONLY).  A non-finite A
    raises NonFiniteLinearization.
    """
    kind = classify_equilibrium(a)
    case = kind.case
    b_a = _continuous_subspace(a, kind)
    b_s = dim_bounded_discrete(s)
    s11, s12, s21, s22 = s
    holds = _case_test(case)(s11, s12, s21, s22)
    marginal = case <= 2 and abs(abs(s11 + s22) - 2.0) <= DECISION_TOL
    if not holds:
        note = ContainmentNote.NOT_APPLICABLE
    elif b_a.whole_space and b_s.whole_space:
        note = ContainmentNote.EXACT
    elif b_a.dim == 1 and b_s.dim == 1:
        u, v = b_a.basis[0], b_s.basis[0]
        exact = abs(u[0] * v[1] - u[1] * v[0]) <= DECISION_TOL
        note = ContainmentNote.EXACT if exact else ContainmentNote.DIM_ONLY
    else:
        note = ContainmentNote.DIM_ONLY
    return PreservationVerdict(case, holds, marginal, b_a.dim, b_s.dim, note)


class VerdictGrid(NamedTuple):
    trace: "np.ndarray"  # tr S per tau; NaN where the Cayley form is singular
    holds: "np.ndarray"  # condition_holds per tau; False where singular
    singular: "np.ndarray"  # the rows where propagator raises SingularCayley


def verdict_grid(scheme: Scheme, a: Mat2, taus) -> VerdictGrid:
    """tr S(tau) and the preservation verdict for a whole grid of taus.

    Row for row the same as ``propagator`` followed by
    ``check_preservation(a, s).condition_holds``: S comes from the same
    row's ``s_entries``, evaluated on an array, and the trace/rank
    test is check_preservation's own, on arrays, so every trace and every
    verdict is bit-identical to the scalar path.  Raises what ``propagator``
    raises, A's errors (NonFiniteLinearization, ShapeMismatch) before tau's
    ValueError, and AssertionError; the bounded subspaces are not computed.
    """
    import numpy as np

    require_shape(scheme, a)
    case = classify_equilibrium(a).case
    taus = np.asarray(taus, dtype=float)
    valid = (taus > 0.0) & (taus < math.inf)
    if not valid.all():
        raise step_size_error(taus[~valid][0].item())
    with np.errstate(all="ignore"):
        (s11, s12, s21, s22), _, singular = scheme.s_entries(a, taus)
        singular = np.broadcast_to(singular, taus.shape)
        det, lost = unimodularity_lost(s11, s12, s21, s22, UNIMODULAR_TOL)
        lost = lost & ~singular
        if lost.any():
            raise AssertionError(
                f"propagator lost unimodularity: det={det[lost][0].item()!r}"
            )
        holds = _case_test(case, arrays=True)(s11, s12, s21, s22) & ~singular
        trace = np.where(singular, math.nan, s11 + s22)
    return VerdictGrid(trace, holds, singular)


# The trace/rank preservation test of S = [[s11, s12], [s21, s22]]: one body
# per case of A (1 center, 2 saddle, 3 rank 1, 4 zero), ending in its
# return.  The operations are Mat2's (trace, S - I, det, frobenius_sq,
# max_norm) in their order, with _max_abs bound to _max_norm on floats and
# to the array _max_abs on arrays of entries, so both give the same verdicts.
_CASE_TESTS = {
    1: "return abs(s11 + s22) < 2.0",
    2: "return abs(s11 + s22) > 2.0",
    3: """\
m11, m12, m21, m22 = s11 - 1.0, s12 - 0.0, s21 - 0.0, s22 - 1.0
rank1 = (_max_abs(m11, m12, m21, m22) > DECISION_TOL) & (
    abs(m11 * m22 - m12 * m21)
    <= DECISION_TOL * (1.0 + (m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22))
)
tr_is_2 = abs(s11 + s22 - 2.0) <= DECISION_TOL * (1.0 + _max_abs(s11, s12, s21, s22))
return tr_is_2 & rank1""",
    4: """\
m11, m12, m21, m22 = s11 - 1.0, s12 - 0.0, s21 - 0.0, s22 - 1.0
return _max_abs(m11, m12, m21, m22) <= DECISION_TOL""",
}


@functools.cache
def _case_test(case: int, arrays: bool = False):
    """The generated test of a case, (s11, s12, s21, s22) -> holds, on
    floats or, with arrays, on ndarrays of entries."""
    return ex.define(
        f"def _test(s11, s12, s21, s22):\n{ex.indent(_CASE_TESTS[case], 1)}",
        "_test", (), DECISION_TOL=DECISION_TOL,
        _max_abs=_max_abs if arrays else _max_norm,
    )


def _max_norm(a, b, c, d):
    """Mat2.max_norm of four floats."""
    return max(abs(a), abs(b), abs(c), abs(d))


def _max_abs(first, *rest):
    """Mat2.max_norm over arrays: Python's max keeps a NaN only in first
    place, where np.maximum would propagate any NaN."""
    import numpy as np

    out = abs(first)
    for x in rest:
        x = abs(x)
        out = np.where(x > out, x, out)
    return out


# ---------------------------------------------------------------------------
# Step-size limits

def tau_max_from_matrix(scheme: Scheme, a: Mat2) -> TauLimit:
    """Closed-form preserving limit for a scheme at a linearization A: for
    an A that fails require_shape, the NotApplicable naming the failed test."""
    try:
        require_shape(scheme, a)
    except ShapeMismatch as err:
        raise NotApplicable(f"{scheme.value}: {err}") from err
    y = a.det if scheme.stages else -a.det
    if y > 0.0:
        return TauLimit(2.0 / math.sqrt(y), singular=not scheme.stages)
    return TauLimit(math.inf, singular=False)


def tau_max(scheme: Scheme, eq: Equilibrium) -> TauLimit:
    return tau_max_from_matrix(scheme, eq.a)


def bisect_transition(predicate, lo: float, hi: float, tol: float) -> float:
    """Refine a true->false transition of ``predicate`` inside [lo, hi]."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent floats: tol is below their spacing
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# find_transition brackets up to 10*tau_hi and bisects between tau_hi and
# that top; below this ceiling those taus and their sums stay finite
TAU_HI_MAX = 1e300
# its scan starts at tau_hi * 1e-8; from this floor on that is a normal float
TAU_HI_MIN = 1e-299
_SCAN_POINTS = 24  # the taus of that logarithmic scan


def find_transition(predicate, tau_hi: float, tol: float) -> float:
    """Transition point of a monotone tau predicate over (0, tau_hi].

    Returns +inf when the predicate holds at both tau_hi and 10*tau_hi.  A
    logarithmic scan establishes the bisection bracket, and the refined
    transition is then cross-checked on sample points below and above it;
    any violation of the true-below/false-above pattern raises
    InconsistentPredicate instead of returning a meaningless midpoint.
    """
    if not TAU_HI_MIN <= tau_hi <= TAU_HI_MAX:
        raise ValueError(
            f"tau_hi must be at least {TAU_HI_MIN!r} and at most {TAU_HI_MAX!r}"
        )
    if predicate(tau_hi):
        top = 10.0 * tau_hi
        if predicate(top):
            return math.inf
        # the transition sits above the requested range; bracket upward
        lo, hi = tau_hi, top
    else:
        tau_min = tau_hi * 1e-8
        ratio = (tau_hi / tau_min) ** (1.0 / (_SCAN_POINTS - 1))
        grid = [tau_min * ratio**i for i in range(_SCAN_POINTS - 1)] + [tau_hi]
        # the predicate has just failed at tau_hi, the last point
        values = [predicate(t) for t in grid[:-1]] + [False]
        if True not in values:
            raise InconsistentPredicate(
                "predicate fails for every scanned tau; no preserving range found"
            )
        first_false = values.index(False)
        if any(values[first_false:]):
            raise InconsistentPredicate(
                "predicate is not monotone in tau on the scanned grid"
            )
        lo, hi, top = grid[first_false - 1], grid[first_false], tau_hi
    transition = bisect_transition(predicate, lo, hi, tol)
    _check_monotone(predicate, transition, top, tol)
    return transition


def _check_monotone(
    predicate, transition: float, tau_top: float, tol: float
) -> None:
    """Sample around a refined transition, inside its bracket (0, tau_top]:
    true strictly below, from tau_top * 1e-8 on, and false above."""
    # as far below the bracket top as the scan starts below tau_hi: from
    # tau_hi * 1e-8 under an upward bracket, tau^2 det A of a center can
    # drop below the float spacing at 2, and tr S rounds to 2
    tau_min = tau_top * 1e-8
    margin = max(10.0 * tol, 1e-9 * transition)
    lo_end = transition - margin
    if lo_end > tau_min:
        ratio = (lo_end / tau_min) ** (1.0 / 11)
        for i in range(12):
            t = tau_min * ratio**i
            if not predicate(t):
                raise InconsistentPredicate(
                    f"predicate fails at tau={t!r} below the transition {transition!r}"
                )
    hi_start = transition + margin
    if hi_start < tau_top:
        step_up = (tau_top - hi_start) / 11
        for i in range(12):
            t = hi_start + step_up * i
            if predicate(t):
                raise InconsistentPredicate(
                    f"predicate holds at tau={t!r} above the transition {transition!r}"
                )


def empirical_tau_max(
    scheme: Scheme,
    eq: Equilibrium,
    tau_hi: float = 10.0,
    tol: float = 1e-6,
) -> float:
    """Locate the preservation-verdict transition in tau by bisection."""
    return find_transition(_verdict_predicate(scheme, eq.a), tau_hi, tol)


def _verdict_predicate(scheme: Scheme, a: Mat2):
    """tau -> check_preservation(a, propagator(scheme, a, tau)).condition_holds,
    False where the Cayley form is singular.

    Computes the verdict only: A is checked by require_shape and classified
    once, here, so a bad A raises before any tau is read; each call then
    runs the generated verdict of the row and that case, and no bounded
    subspace is built.
    """
    require_shape(scheme, a)
    return _verdict(scheme, classify_equilibrium(a).case)(a)


@functools.cache
def _verdict(scheme: Scheme, case: int):
    """The generated verdict of a scheme row and a case: a -> (tau -> holds).

    The predicate reads A's entries from closure cells.  Its body is
    shaped_propagator's, the same text (guarded_s_body), but returning
    False where the Cayley form is singular instead of raising
    SingularCayley; then the case's test.
    """
    source = "\n".join([
        "def _verdict(a):",
        "    a11, a12, a21, a22 = a",
        "    def holds(tau):",
        guarded_s_body(scheme, "return False", 2),
        ex.indent(_CASE_TESTS[case], 2),
        "    return holds",
    ])
    return ex.define(source, "_verdict", (), _max_abs=_max_norm, **GUARD_NAMES)


# ---------------------------------------------------------------------------
# Reports

@dataclass
class TauRow:
    tau: float
    trace_s: float | None
    verdict: PreservationVerdict | None
    fixed_point_ok: bool | None
    error: str | None = None


@dataclass
class EquilibriumReport:
    equilibrium: Equilibrium
    tau_limit: TauLimit | None
    empirical: float | None
    rows: list[TauRow]
    error: str | None = None
    note: str | None = None


@dataclass
class PreservationReport:
    system: str
    scheme: Scheme
    taus: list[float]
    entries: list[EquilibriumReport]

    @property
    def overall_tau_max(self) -> float | None:
        """Smallest closed-form limit across equilibria (inf when unlimited)."""
        limits = [e.tau_limit.value for e in self.entries if e.tau_limit is not None]
        return min(limits) if limits else None


_FIXED_POINT_TOL = 1e-10


def preservation_report(
    sys: HamiltonianSystem,
    scheme: Scheme,
    tau_list: list[float],
    equilibria: list[Equilibrium],
    tau_hi: float = 10.0,
    bisect_tol: float = 1e-6,
) -> PreservationReport:
    """Full per-equilibrium, per-tau preservation report for one scheme.

    Item-level failures (singular propagators, inapplicable formulas) are
    recorded on the affected row or entry; the report itself always
    completes.
    """
    entries: list[EquilibriumReport] = []
    covered = collapse_continuum(equilibria)
    note = None
    if len(covered) < len(equilibria):
        note = (
            f"continuum suspected: {len(equilibria)} grid representatives "
            "collapsed to one"
        )
    for eq in covered:
        entry = EquilibriumReport(
            equilibrium=eq, tau_limit=None, empirical=None, rows=[], note=note
        )
        try:
            entry.tau_limit = tau_max(scheme, eq)
            entry.empirical = empirical_tau_max(
                scheme, eq, tau_hi=tau_hi, tol=bisect_tol
            )
        except (
            NotApplicable, NonFiniteLinearization, InconsistentPredicate,
            AssertionError,  # the propagator's unimodularity guard, at a scanned tau
        ) as err:
            entry.error = f"{type(err).__name__}: {err}"
        x0 = eq.point
        for tau in tau_list:
            try:
                s = propagator(scheme, eq.a, tau)
                verdict = check_preservation(eq.a, s)
                y = step(scheme, sys, x0, tau)  # the fixed point must stay put
                fixed = math.hypot(y.p - x0.p, y.q - x0.q) <= _FIXED_POINT_TOL
                row = TauRow(tau, s.trace, verdict, fixed)
            except Exception as err:  # noqa: BLE001 - per-item aggregation
                row = TauRow(tau, None, None, None, f"{type(err).__name__}: {err}")
            entry.rows.append(row)
        entries.append(entry)
    return PreservationReport(
        system=sys.describe(), scheme=scheme, taus=list(tau_list), entries=entries
    )


# ---------------------------------------------------------------------------
# Serialization

CSV_HEADER = "p0,q0,case,detA,traceS,dimBA,dimBS,holds,tau_max,empirical_tau_max"


def fmt_float(x: float | None) -> str:
    """repr of a float (inf, -inf and nan included), with None as nan."""
    return "nan" if x is None else repr(x)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def report_to_csv(report: PreservationReport) -> str:
    """One row per equilibrium x tau, columns fixed; item errors become
    '#'-prefixed comment lines so a partial report still parses."""
    lines = [
        f"# system = {report.system}",
        f"# scheme = {report.scheme.value}",
        f"# taus = {', '.join(repr(t) for t in report.taus)}",
        f"# overall_tau_max = {fmt_float(report.overall_tau_max)}",
        CSV_HEADER,
    ]
    for entry in report.entries:
        eq = entry.equilibrium
        if entry.note:
            lines.append(f"# {entry.note}")
        if entry.error:
            lines.append(
                f"# p0={fmt_float(eq.point.p)} q0={fmt_float(eq.point.q)} "
                f"error: {entry.error}"
            )
        tau_lim = fmt_float(entry.tau_limit.value if entry.tau_limit else None)
        emp = fmt_float(entry.empirical)
        for row in entry.rows:
            if row.error is not None:
                lines.append(
                    f"# p0={fmt_float(eq.point.p)} q0={fmt_float(eq.point.q)} "
                    f"tau={fmt_float(row.tau)} error: {row.error}"
                )
                continue
            v = row.verdict
            lines.append(
                ",".join(
                    [
                        fmt_float(eq.point.p),
                        fmt_float(eq.point.q),
                        str(v.case),
                        fmt_float(eq.a.det),
                        fmt_float(row.trace_s),
                        str(v.dim_b_a),
                        str(v.dim_b_s),
                        _fmt_bool(v.condition_holds),
                        tau_lim,
                        emp,
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def report_to_text(report: PreservationReport) -> str:
    """Human-readable table for one scheme."""
    out = [
        f"scheme {report.scheme.value} on {report.system}",
    ]
    for entry in report.entries:
        eq = entry.equilibrium
        kind = eq.kind.value
        out.append(
            f"  equilibrium (p={eq.point.p:.6g}, q={eq.point.q:.6g})"
            f"  kind={kind}  detA={eq.a.det:.6g}  residual={eq.residual:.2e}"
        )
        if entry.note:
            out.append(f"    note: {entry.note}")
        if entry.error:
            out.append(f"    {entry.error}")
        else:
            lim = entry.tau_limit
            singular = " (solvability singularity)" if lim and lim.singular else ""
            out.append(
                f"    tau_max closed-form = {fmt_float(lim.value if lim else None)}"
                f"{singular}, empirical = {fmt_float(entry.empirical)}"
            )
        for row in entry.rows:
            if row.error is not None:
                out.append(f"    tau={row.tau:<10.6g} {row.error}")
                continue
            v = row.verdict
            marginal = " marginal" if v.marginal else ""
            fixed = "yes" if row.fixed_point_ok else "NO"
            out.append(
                f"    tau={row.tau:<10.6g} traceS={row.trace_s:< 14.6g} "
                f"case={v.case} dimBA={v.dim_b_a} dimBS={v.dim_b_s} "
                f"holds={_fmt_bool(v.condition_holds)}{marginal} "
                f"containment={v.containment.value} fixed_point={fixed}"
            )
    if not report.entries:
        out.append("  no equilibrium analysed")
    else:
        out.append(
            f"  preserved for all equilibria up to tau_max = "
            f"{fmt_float(report.overall_tau_max)}"
        )
    return "\n".join(out) + "\n"
