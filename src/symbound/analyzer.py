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
a saddle, a shear of matching rank over a degenerate linearization.  The
closed-form step-size limits are

  explicit schemes     2 / sqrt(det A)     when det A > 0, else unlimited
                       (det A = T'' V'', or -g' for newtonian systems)
  implicit-midpoint    2 / sqrt(-H0), H0 = H_pp H_qq - H_pq^2, when H0 < 0
                       (a solvability singularity), else unlimited

and the empirical limit is recovered independently by bisecting the
verdict predicate in tau.  The explicit limit is one formula because every
stage row of the scheme table has tr S = 2 - tau^2 det A, which reaches -2
at tau = 2 / sqrt(det A).

The trace/rank test has one definition, _condition_holds, over floats or
arrays of S entries.  check_preservation applies it and also builds both
bounded subspaces; verdict_grid applies it to a whole tau grid at once; the
bisection's predicate computes only the verdict: it classifies A once and
then applies the test to each S(tau), building no subspace.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mat2 import Mat2, Vec2, eigenvector, normalized, unimodularity_lost
from .schemes import (
    UNIMODULAR_TOL,
    NonFiniteLinearization,
    Scheme,
    ShapeMismatch,
    SingularCayley,
    propagator,
    require_finite,
    require_shape,
    s_entries,
    step,
)
from .systems import (
    Equilibrium,
    EquilibriumKind,
    HamiltonianSystem,
    NotApplicable,
    State,
    SystemClass,
    classify_equilibrium,
    collapse_continuum,
    find_equilibria,
)


class NotUnimodular(Exception):
    pass


class InconsistentPredicate(Exception):
    """The preservation predicate was not monotone in tau on the bracket."""


_BOUNDARY_TOL = 1e-9

_CASE_INDEX = {
    EquilibriumKind.CENTER: 1,
    EquilibriumKind.SADDLE: 2,
    EquilibriumKind.RANK1_DEGENERATE: 3,
    EquilibriumKind.RANK0_ZERO: 4,
}


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
    scheme: Scheme
    singular: bool  # True when the limit is a solvability singularity


_WHOLE_PLANE = BoundedSubspace(dim=2, basis=(), whole_space=True)


def _line(v: Vec2) -> BoundedSubspace:
    return BoundedSubspace(1, (normalized(v),), False)


def _kernel_vector(m: Mat2) -> Vec2:
    # for a rank-1 matrix, read the kernel off the larger row
    if abs(m.a11) + abs(m.a12) >= abs(m.a21) + abs(m.a22):
        return (m.a12, -m.a11)
    return (m.a22, -m.a21)


def dim_bounded_continuous(a: Mat2, tol: float = 1e-9) -> BoundedSubspace:
    """Bounded-orbit subspace of y' = A y for trace-free A."""
    return _continuous_subspace(a, classify_equilibrium(a, tol))


def _continuous_subspace(a: Mat2, kind: EquilibriumKind) -> BoundedSubspace:
    if kind in (EquilibriumKind.CENTER, EquilibriumKind.RANK0_ZERO):
        return _WHOLE_PLANE
    if kind is EquilibriumKind.SADDLE:
        lam = -math.sqrt(-a.det)
        return _line(eigenvector(a, lam))
    return _line(_kernel_vector(a))


def dim_bounded_discrete(s: Mat2, tol: float = _BOUNDARY_TOL) -> BoundedSubspace:
    """Bounded-orbit subspace of y_{n+1} = S y_n for unimodular S."""
    s11, s12, s21, s22 = s
    det, lost = unimodularity_lost(s11, s12, s21, s22, 1e-9)
    if lost:
        raise NotUnimodular(f"det S = {det!r} is not 1 within tolerance")
    tr = s11 + s22
    boundary = tol * (1.0 + max(abs(s11), abs(s12), abs(s21), abs(s22)))
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
    return _line(_kernel_vector(m))


def check_preservation(
    a: Mat2, s: Mat2, tol: float = _BOUNDARY_TOL
) -> PreservationVerdict:
    """Apply the trace/rank preservation criteria for one (A, S) pair.

    The verdict is normative from the trace/rank tests; the bounded-subspace
    dimensions and the containment note expose how literally the continuous
    bounded set sits inside the discrete one (for saddles the two stable
    lines generally differ by O(tau), hence DIM_ONLY).  A non-finite A
    raises NonFiniteLinearization.
    """
    require_finite(a)
    kind = classify_equilibrium(a)
    case = _CASE_INDEX[kind]
    b_a = _continuous_subspace(a, kind)
    b_s = dim_bounded_discrete(s, tol)
    s11, s12, s21, s22 = s
    holds = _condition_holds(case, s11, s12, s21, s22, tol, _max_norm)
    marginal = case <= 2 and abs(abs(s11 + s22) - 2.0) <= tol
    if not holds:
        note = ContainmentNote.NOT_APPLICABLE
    elif b_a.whole_space and b_s.whole_space:
        note = ContainmentNote.EXACT
    elif b_a.dim == 1 and b_s.dim == 1:
        u, v = b_a.basis[0], b_s.basis[0]
        cross = u[0] * v[1] - u[1] * v[0]
        note = ContainmentNote.EXACT if abs(cross) <= tol else ContainmentNote.DIM_ONLY
    else:
        note = ContainmentNote.DIM_ONLY
    return PreservationVerdict(case, holds, marginal, b_a.dim, b_s.dim, note)


class VerdictGrid(NamedTuple):
    trace: np.ndarray  # tr S per tau; NaN where the Cayley form is singular
    holds: np.ndarray  # condition_holds per tau; False where singular
    singular: np.ndarray  # the rows where propagator raises SingularCayley


def verdict_grid(scheme: Scheme, a: Mat2, taus) -> VerdictGrid:
    """tr S(tau) and the preservation verdict for a whole grid of taus.

    Row for row the same as ``propagator`` followed by
    ``check_preservation(a, s).condition_holds``: S comes from the same
    ``s_entries`` expressions, evaluated on an array, and the trace/rank
    test is check_preservation's own, on arrays, so every trace and every
    verdict is bit-identical to the scalar path.  Raises what ``propagator``
    raises (ValueError, NonFiniteLinearization, ShapeMismatch,
    AssertionError) and, unless every row
    is singular, what ``classify_equilibrium`` raises; the bounded subspaces
    are not computed.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all((taus > 0.0) & (taus < math.inf)):
        raise ValueError("step size must be positive and finite")
    require_shape(scheme, a)
    with np.errstate(all="ignore"):
        (s11, s12, s21, s22), _, singular = s_entries(scheme, a, taus)
        singular = np.broadcast_to(singular, taus.shape)
        det, lost = unimodularity_lost(s11, s12, s21, s22, UNIMODULAR_TOL)
        live = ~singular
        lost = lost & live
        # raise what the scalar loop would raise first: at the first
        # non-singular row either the propagator's guard or the classification
        kind = None
        if live.any() and not lost[np.argmax(live)]:
            kind = classify_equilibrium(a)
        if lost.any():
            raise AssertionError(
                f"propagator lost unimodularity: det={det[lost][0].item()!r}"
            )
        if kind is None:  # every row singular
            holds = np.zeros(taus.shape, dtype=bool)
        else:
            holds = _condition_holds(
                _CASE_INDEX[kind], s11, s12, s21, s22, _BOUNDARY_TOL, _max_abs
            ) & live
    return VerdictGrid(np.where(singular, math.nan, s11 + s22), holds, singular)


def _condition_holds(case, s11, s12, s21, s22, tol, max_abs):
    """The trace/rank preservation test of S = [[s11, s12], [s21, s22]] for
    the case of A (1 center, 2 saddle, 3 rank 1, 4 zero), on floats with
    max_abs = _max_norm or on arrays of entries with max_abs = _max_abs.

    The operations are Mat2's (trace, S - I, det, frobenius_sq, max_norm),
    in their order, so floats and arrays give the same verdicts.
    """
    tr = s11 + s22
    if case == 1:
        return abs(tr) < 2.0
    if case == 2:
        return abs(tr) > 2.0
    # S - I, entry by entry as Mat2.__sub__ computes it
    m11, m12, m21, m22 = s11 - 1.0, s12 - 0.0, s21 - 0.0, s22 - 1.0
    if case == 3:
        rank1 = (max_abs(m11, m12, m21, m22) > tol) & (
            abs(m11 * m22 - m12 * m21)
            <= tol * (1.0 + (m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22))
        )
        return (abs(tr - 2.0) <= tol * (1.0 + max_abs(s11, s12, s21, s22))) & rank1
    return max_abs(m11, m12, m21, m22) <= tol


def _max_norm(a, b, c, d):
    """Mat2.max_norm of four floats."""
    return max(abs(a), abs(b), abs(c), abs(d))


def _max_abs(first, *rest):
    """Mat2.max_norm over arrays: Python's max keeps a NaN only in first
    place, where np.maximum would propagate any NaN."""
    out = abs(first)
    for x in rest:
        x = abs(x)
        out = np.where(x > out, x, out)
    return out


# ---------------------------------------------------------------------------
# Step-size limits

def tau_max_from_matrix(scheme: Scheme, a: Mat2) -> TauLimit:
    """Closed-form preserving limit for a scheme at a linearization A."""
    require_finite(a)
    if not scheme.stages:
        h0 = a.det  # H_pp H_qq - H_pq^2 for a trace-free hamiltonian Jacobian
        if h0 < 0.0:
            return TauLimit(2.0 / math.sqrt(-h0), scheme, singular=True)
        return TauLimit(math.inf, scheme, singular=False)
    try:
        require_shape(scheme, a)
    except ShapeMismatch as err:
        raise NotApplicable(
            f"{scheme.value} needs a separable linearization [[0, *], [*, 0]]"
        ) from err
    newtonian_only = scheme.classes == {SystemClass.NEWTONIAN}
    if newtonian_only and abs(a.a21 - 1.0) > 1e-9 * (1.0 + a.max_norm):
        raise NotApplicable(
            f"{scheme.value} expects a newtonian linearization [[0, g'], [1, 0]]"
        )
    det = a.det  # tr S = 2 - tau^2 det A for every stage row
    if det > 0.0:
        return TauLimit(2.0 / math.sqrt(det), scheme, singular=False)
    return TauLimit(math.inf, scheme, singular=False)


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


def find_transition(
    predicate, tau_hi: float, tol: float, grid_points: int = 24
) -> float:
    """Transition point of a monotone tau predicate over (0, tau_hi].

    Returns +inf when the predicate holds at both tau_hi and 10*tau_hi.  A
    logarithmic scan establishes the bisection bracket, and the refined
    transition is then cross-checked on sample points below and above it;
    any violation of the true-below/false-above pattern raises
    InconsistentPredicate instead of returning a meaningless midpoint.
    """
    if not 0.0 < tau_hi <= TAU_HI_MAX:
        raise ValueError(f"tau_hi must be positive and at most {TAU_HI_MAX!r}")
    tau_min = tau_hi * 1e-8
    if predicate(tau_hi):
        if predicate(10.0 * tau_hi):
            return math.inf
        # the transition sits above the requested range; bracket upward
        transition = bisect_transition(predicate, tau_hi, 10.0 * tau_hi, tol)
        _check_monotone(predicate, transition, tau_min, 10.0 * tau_hi, tol)
        return transition
    ratio = (tau_hi / tau_min) ** (1.0 / (grid_points - 1))
    grid = [tau_min * ratio**i for i in range(grid_points)]
    grid[-1] = tau_hi
    values = [predicate(t) for t in grid]
    if True not in values:
        raise InconsistentPredicate(
            "predicate fails for every scanned tau; no preserving range found"
        )
    first_false = values.index(False)
    if any(values[first_false:]):
        raise InconsistentPredicate(
            "predicate is not monotone in tau on the scanned grid"
        )
    if first_false == 0:
        raise InconsistentPredicate(
            "predicate already fails at the smallest scanned tau"
        )
    transition = bisect_transition(
        predicate, grid[first_false - 1], grid[first_false], tol
    )
    _check_monotone(predicate, transition, tau_min, tau_hi, tol)
    return transition


def _check_monotone(
    predicate, transition: float, tau_min: float, tau_top: float, tol: float
) -> None:
    """Sample around a refined transition: true strictly below, false above."""
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

    Computes the verdict only: A is classified once, at the first tau where
    S exists, and each call then applies the trace/rank test of that case to
    S; no bounded subspace is built.  Raises what propagator raises, and
    what classify_equilibrium raises.
    """
    case = None

    def holds(tau: float) -> bool:
        nonlocal case
        try:
            s11, s12, s21, s22 = propagator(scheme, a, tau)
        except SingularCayley:
            return False
        if case is None:
            case = _CASE_INDEX[classify_equilibrium(a)]
        return _condition_holds(case, s11, s12, s21, s22, _BOUNDARY_TOL, _max_norm)

    return holds


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
    box=((-5.0, 5.0), (-5.0, 5.0)),
    grid: int = 32,
    tol: float = 1e-10,
    equilibria: list[Equilibrium] | None = None,
    tau_hi: float = 10.0,
    bisect_tol: float = 1e-6,
) -> PreservationReport:
    """Full per-equilibrium, per-tau preservation report for one scheme.

    Item-level failures (singular propagators, inapplicable formulas) are
    recorded on the affected row or entry; the report itself always
    completes.
    """
    if equilibria is None:
        equilibria = find_equilibria(sys, box=box, grid=grid, tol=tol)
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
        except (NotApplicable, NonFiniteLinearization, InconsistentPredicate) as err:
            entry.error = f"{type(err).__name__}: {err}"
        for tau in tau_list:
            try:
                s = propagator(scheme, eq.a, tau)
                verdict = check_preservation(eq.a, s)
                fp = _fixed_point_preserved(scheme, sys, eq.point, tau)
                entry.rows.append(
                    TauRow(
                        tau=tau,
                        trace_s=s.trace,
                        verdict=verdict,
                        fixed_point_ok=fp,
                    )
                )
            except Exception as err:  # noqa: BLE001 - per-item aggregation
                entry.rows.append(
                    TauRow(
                        tau=tau,
                        trace_s=None,
                        verdict=None,
                        fixed_point_ok=None,
                        error=f"{type(err).__name__}: {err}",
                    )
                )
        entries.append(entry)
    return PreservationReport(
        system=sys.describe(), scheme=scheme, taus=list(tau_list), entries=entries
    )


def _fixed_point_preserved(
    scheme: Scheme, sys: HamiltonianSystem, x0: State, tau: float
) -> bool:
    y = step(scheme, sys, x0, tau)
    return math.hypot(y.p - x0.p, y.q - x0.q) <= _FIXED_POINT_TOL


# ---------------------------------------------------------------------------
# Serialization

CSV_HEADER = "p0,q0,case,detA,traceS,dimBA,dimBS,holds,tau_max,empirical_tau_max"


def fmt_float(x: float | None) -> str:
    """repr of a float, with None as nan and infinities as inf / -inf."""
    if x is None:
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


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
    out.append(
        f"  preserved for all equilibria up to tau_max = "
        f"{fmt_float(report.overall_tau_max)}"
    )
    return "\n".join(out) + "\n"
