"""Checks of the CLI's output files against the values derived in families.py.

Nothing here imports symbound: every expected number is computed from the
case's parameters, so a fault in the program cannot hide in its own oracle.
Each check returns an Outcome whose ``errors`` list is empty when the
outputs are right, plus the counts the benchmark reports and cross-checks.
"""

import math
import os
from dataclasses import dataclass, field

from families import MIDPOINT, Case, Eq, limit

BISECT_TOL = 1e-6  # the config default for bisect_tol, which the cases keep
_REL = 1e-9  # agreement of an independently computed float
_LIMIT_REL = 1e-10  # closed-form limits are one sqrt from det A


@dataclass
class Outcome:
    work: int = 0  # limits resolved, verdict rows, or orbit steps
    equilibria: int = 0  # equilibria the outputs report
    step_calls: int = 0  # scheme steps the outputs imply
    errors: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


def _num(text: str) -> float:
    return float(text)  # parses repr floats, inf, -inf and nan


def _close(x: float, ref: float, rel: float = _REL) -> bool:
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= rel * (1.0 + abs(ref))


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def expected_trace(scheme: str, eq: Eq, tau: float) -> tuple[float, float]:
    """(tr S, 1 + d) for the scheme's propagator; 1 + d is the Cayley
    denominator det(I - tau A / 2) of the midpoint rule (1.0 otherwise)."""
    if scheme == MIDPOINT:
        d = tau * tau * eq.det / 4.0
        return (2.0 - 2.0 * d) / (1.0 + d), 1.0 + d
    return 2.0 + tau * tau * eq.a12 * eq.a21, 1.0


def _trace_tol(tr: float, denom: float) -> float:
    # the midpoint trace loses about eps / |1 + d| relative accuracy
    return (_REL + 1e-12 / abs(denom)) * (1.0 + abs(tr))


def _near_unit(tr: float) -> bool:
    return abs(abs(tr) - 2.0) <= _REL * (1.0 + abs(tr))


def _check_point(out: Outcome, where: str, p: float, q: float, eq: Eq) -> None:
    out.expect(
        abs(p - eq.p) <= _REL and abs(q - eq.q) <= _REL * (1.0 + abs(eq.q)),
        f"{where}: equilibrium ({p!r}, {q!r}), expected ({eq.p!r}, {eq.q!r})",
    )


# ---------------------------------------------------------------------------
# analyze

def check_analyze(case: Case, out_dir: str) -> Outcome:
    out = Outcome(equilibria=len(case.eqs))
    kinds = []
    text = _read(os.path.join(out_dir, "analyze.txt"))
    for line in text[2 : 2 + len(case.eqs)]:
        kinds.append(line.split()[2])
    out.expect(
        kinds == [e.kind for e in case.eqs],
        f"{case.name}: analyze.txt kinds {kinds}, expected {[e.kind for e in case.eqs]}",
    )
    for scheme in case.schemes:
        _check_analyze_csv(case, scheme, os.path.join(out_dir, f"analyze_{scheme}.csv"), out)
    return out


def _check_analyze_csv(case: Case, scheme: str, path: str, out: Outcome) -> None:
    where = f"{case.name} {scheme}"
    lines = _read(path)
    overall = min(limit(scheme, e) for e in case.eqs)
    out.expect(lines[1] == f"# scheme = {scheme}", f"{where}: bad scheme line {lines[1]!r}")
    out.expect(
        _close(_num(lines[3].split(" = ")[1]), overall, _LIMIT_REL),
        f"{where}: {lines[3]!r}, expected overall_tau_max {overall!r}",
    )
    body = iter(lines[5:])
    for eq in case.eqs:
        lim = limit(scheme, eq)
        checked_limit = False
        for tau in case.taus:
            line = next(body, "<missing>")
            row = f"{where} eq q={eq.q:.6g} tau={tau!r}"
            if scheme == MIDPOINT and tau > lim:
                out.expect(
                    line.startswith("#") and "error: SingularCayley" in line,
                    f"{row}: expected a SingularCayley comment, got {line!r}",
                )
                continue
            f = line.split(",")
            if not out.expect(len(f) == 10, f"{row}: expected a verdict row, got {line!r}"):
                continue
            p0, q0, det_a, tr = _num(f[0]), _num(f[1]), _num(f[3]), _num(f[4])
            _check_point(out, row, p0, q0, eq)
            tr_ref, denom = expected_trace(scheme, eq, tau)
            center = eq.kind == "center"
            out.expect(f[2] == ("1" if center else "2"), f"{row}: case {f[2]}")
            out.expect(_close(det_a, eq.det), f"{row}: detA {det_a!r}, expected {eq.det!r}")
            out.expect(
                abs(tr - tr_ref) <= _trace_tol(tr_ref, denom),
                f"{row}: traceS {tr!r}, expected {tr_ref!r}",
            )
            out.expect(f[5] == ("2" if center else "1"), f"{row}: dimBA {f[5]}")
            out.expect(
                f[6] == ("2" if abs(tr_ref) < 2.0 else "1"),
                f"{row}: dimBS {f[6]} at traceS {tr_ref!r}",
            )
            out.expect(
                f[7] == ("true" if tau < lim else "false"),
                f"{row}: holds {f[7]} with limit {lim!r}",
            )
            tau_max, emp = _num(f[8]), _num(f[9])
            out.expect(
                _close(tau_max, lim, _LIMIT_REL),
                f"{row}: tau_max {tau_max!r}, expected {lim!r}",
            )
            out.expect(
                emp == lim if math.isinf(lim)
                else abs(emp - lim) <= BISECT_TOL + 1e-8 * lim,
                f"{row}: empirical_tau_max {emp!r}, expected {lim!r} within {BISECT_TOL}",
            )
            out.step_calls += 1  # the fixed-point check steps once per row
            checked_limit = True
        out.work += checked_limit
    rest = list(body)
    out.expect(not rest, f"{where}: {len(rest)} unexpected trailing lines")


# ---------------------------------------------------------------------------
# sweep

def sweep_grid(lo: float, hi: float, count: int) -> list[float]:
    """The log grid the config's tau_lo / tau_hi / tau_count describe."""
    n = count - 1
    grid = [lo * (hi / lo) ** (i / n) for i in range(count)]
    grid[0], grid[-1] = lo, hi
    return grid


_CAYLEY_BAND = 1e-6  # |1 + d| below this may or may not count as singular


def _check_sweep_row(out: Outcome, row: str, scheme: str, eq: Eq, tau: float,
                     tr_text: str, holds: str) -> None:
    tr_ref, denom = expected_trace(scheme, eq, tau)
    if tr_text == "nan":
        out.expect(
            scheme == MIDPOINT and denom <= _CAYLEY_BAND,
            f"{row}: nan traceS where the Cayley denominator is {denom!r}",
        )
        out.expect(holds == "false", f"{row}: singular row holds={holds}")
        return
    out.expect(
        denom > 0.0, f"{row}: traceS {tr_text} where the Cayley denominator is {denom!r}"
    )
    tr = _num(tr_text)
    out.expect(
        abs(tr - tr_ref) <= _trace_tol(tr_ref, denom),
        f"{row}: traceS {tr!r}, expected {tr_ref!r}",
    )
    if not _near_unit(tr_ref):
        elliptic = abs(tr_ref) < 2.0
        want = elliptic if eq.kind == "center" else not elliptic
        out.expect(holds == ("true" if want else "false"), f"{row}: holds={holds}")


def check_sweep(case: Case, out_dir: str) -> Outcome:
    out = Outcome(equilibria=len(case.eqs))
    lo, hi, count = case.sweep
    grid = sweep_grid(lo, hi, count)
    for scheme in case.schemes:
        for j, eq in enumerate(case.eqs):
            where = f"{case.name} {scheme} eq{j}"
            lines = _read(os.path.join(out_dir, f"sweep_{scheme}_eq{j}.csv"))
            out.expect(lines[1] == f"# scheme = {scheme}", f"{where}: {lines[1]!r}")
            head = lines[2].split()
            _check_point(out, where, _num(head[2][3:]), _num(head[3][3:]), eq)
            rows = lines[4 : 4 + count]
            out.expect(
                len(lines) == count + 6 and lines[4 + count] == "# transition (bisection-refined)",
                f"{where}: {len(lines)} lines, expected {count + 6}",
            )
            for tau_ref, line in zip(grid, rows):
                tau_text, tr_text, holds = line.split(",")
                tau = _num(tau_text)
                row = f"{where} tau={tau!r}"
                out.expect(_close(tau, tau_ref, 1e-12), f"{row}: expected tau {tau_ref!r}")
                _check_sweep_row(out, row, scheme, eq, tau, tr_text, holds)
            out.work += len(rows)
            lim = limit(scheme, eq)
            tau_text, tr_text, holds = lines[-1].split(",")
            row = f"{where} transition"
            if math.isinf(lim):
                out.expect(lines[-1] == "inf,nan,true", f"{row}: {lines[-1]!r}, expected inf")
                continue
            tau = _num(tau_text)
            out.expect(
                abs(tau - lim) <= BISECT_TOL + 1e-8 * lim,
                f"{row}: tau {tau!r}, expected {lim!r} within {BISECT_TOL}",
            )
            _check_sweep_row(out, row, scheme, eq, tau, tr_text, holds)
    return out


# ---------------------------------------------------------------------------
# simulate

def propagator_matrix(scheme: str, eq: Eq, tau: float):
    """S(tau) of a linear system, from the scheme's update rule."""
    if scheme == MIDPOINT:
        h = 0.5 * tau
        hd = h * h * eq.det
        den = 1.0 + hd
        return (
            ((1.0 - hd) + 2.0 * h * eq.a11) / den, 2.0 * h * eq.a12 / den,
            2.0 * h * eq.a21 / den, ((1.0 - hd) + 2.0 * h * eq.a22) / den,
        )
    a12, a21, half = eq.a12, eq.a21, 0.5 * tau

    def update(p, q):
        if scheme == "euler-b":
            p = p + tau * a12 * q
            return p, q + tau * a21 * p
        if scheme == "yoshida2":
            q = q + half * a21 * p
            p = p + tau * a12 * q
            return p, q + half * a21 * p
        p = p + half * a12 * q
        q = q + tau * a21 * p
        return p + half * a12 * q, q

    (s11, s21), (s12, s22) = update(1.0, 0.0), update(0.0, 1.0)
    return s11, s12, s21, s22


def _parse_verdict(line: str) -> tuple[str, int, float | None]:
    # "# verdict(heuristic) = bounded n_steps=N max_radius=R"
    words = line.split(" = ", 1)[1].split()
    n = int(words[1].split("=")[1])
    r = _num(words[2].split("=")[1]) if len(words) > 2 else None
    return words[0], n, r


def _expected_steps(final: int, stride: int) -> list[int]:
    steps = list(range(0, final + 1, stride))
    if steps[-1] != final:
        steps.append(final)
    return steps


def check_simulate(case: Case, out_dir: str) -> Outcome:
    out = Outcome(equilibria=len(case.eqs))
    eq = case.eqs[0]
    for scheme in case.schemes:
        for ti, tau in enumerate(case.taus):
            for k, (dp, dq) in enumerate(case.offsets):
                name = f"orbit_{scheme}_t{ti}_eq0_off{k}.csv"
                lines = _read(os.path.join(out_dir, name))
                _check_orbit(case, scheme, tau, (eq.p + dp, eq.q + dq), lines,
                             f"{case.name} {name}", out)
    return out


def _expected_verdict(case: Case, scheme: str, tau: float) -> set[str]:
    eq = case.eqs[0]
    lim = limit(scheme, eq)
    if eq.kind == "center":
        return {"bounded" if tau < lim else "escaped"}
    if scheme != MIDPOINT or tau < lim:
        return {"escaped"}
    if tau == lim:
        return {"solver-failed"}
    # past the singularity: a linear Cayley map is hyperbolic; a nonlinear
    # solve may also stop where the Newton matrix turns singular
    return {"escaped"} if case.linear else {"escaped", "solver-failed"}


def _check_orbit(case: Case, scheme: str, tau: float, x0_ref, lines: list[str],
                 where: str, out: Outcome) -> None:
    verdict, n_final, radius = _parse_verdict(lines[0])
    head = dict(w.split("=", 1) for w in lines[1][2:].split())
    out.expect(head["scheme"] == scheme and _num(head["tau"]) == tau,
               f"{where}: header {lines[1]!r}")
    x0 = (_num(head["p0"]), _num(head["q0"]))
    out.expect(
        abs(x0[0] - x0_ref[0]) <= 1e-12 and abs(x0[1] - x0_ref[1]) <= 1e-12,
        f"{where}: initial state {x0}, expected {x0_ref}",
    )
    want = _expected_verdict(case, scheme, tau)
    out.expect(verdict in want, f"{where}: verdict {verdict}, expected {sorted(want)}")
    out.work += n_final
    out.step_calls += n_final + (verdict == "solver-failed")
    if verdict == "bounded":
        out.expect(n_final == case.n_max, f"{where}: bounded after {n_final} steps")
        out.expect(radius < case.escape_r, f"{where}: bounded with max_radius {radius!r}")
    if verdict == "solver-failed":
        out.expect(n_final == 0 or not case.linear,
                   f"{where}: linear solve failed at step {n_final}")
    rows = [line.split(",") for line in lines[3:]]
    steps = [int(r[0]) for r in rows]
    out.expect(steps == _expected_steps(n_final, case.stride),
               f"{where}: recorded steps {steps[:3]}...{steps[-2:]}")
    states = [(_num(r[1]), _num(r[2])) for r in rows]
    out.expect(states[0] == x0, f"{where}: first row {states[0]} is not the initial state")
    if case.energy is not None:
        for n, (p, q), r in zip(steps, states, rows):
            h_ref = case.energy(p, q)
            if not out.expect(r[3] != "" and _close(_num(r[3]), h_ref, 1e-12),
                              f"{where} step {n}: H {r[3]!r}, expected {h_ref!r}"):
                break
    if case.linear:
        _check_linear_orbit(case, scheme, tau, x0, verdict, n_final, radius,
                            steps, states, rows, where, out)


def _check_linear_orbit(case, scheme, tau, x0, verdict, n_final, radius, steps,
                        states, rows, where, out: Outcome) -> None:
    """Sⁿ x0 by plain iteration; the escape step and H conservation."""
    if verdict == "solver-failed":
        return
    s11, s12, s21, s22 = propagator_matrix(scheme, case.eqs[0], tau)
    p, q = x0
    r = r0 = math.hypot(p, q)
    recorded = dict(zip(steps, states))
    r_max = r0
    for n in range(1, n_final + 1):
        p, q = s11 * p + s12 * q, s21 * p + s22 * q
        r = math.hypot(p, q)
        r_max = max(r_max, r)
        if n < n_final and not out.expect(
            r <= case.escape_r * (1.0 + _REL),
            f"{where}: S^n x0 leaves the escape radius at step {n}, before {n_final}",
        ):
            return
        if n in recorded:
            rp, rq = recorded[n]
            if not out.expect(
                math.hypot(rp - p, rq - q) <= 1e-8 * (r0 + r),
                f"{where} step {n}: state ({rp!r}, {rq!r}), S^n x0 = ({p!r}, {q!r})",
            ):
                return
    if verdict == "escaped":
        out.expect(r >= case.escape_r * (1.0 - _REL),
                   f"{where}: escaped at step {n_final} but |S^n x0| = {r!r}")
    else:
        out.expect(_close(radius, r_max, 1e-8),
                   f"{where}: max_radius {radius!r}, expected {r_max!r}")
    if scheme == MIDPOINT and case.energy is not None:
        # the midpoint rule conserves every quadratic invariant
        h0 = _num(rows[0][3])
        for n, row in zip(steps, rows):
            x = math.hypot(*recorded[n])
            out.expect(
                abs(_num(row[3]) - h0) <= 1e-9 * abs(h0) + 1e-13 * x * x,
                f"{where} step {n}: H {row[3]} drifted from {h0!r}",
            )


CHECKS = {"analyze": check_analyze, "sweep": check_sweep, "simulate": check_simulate}
