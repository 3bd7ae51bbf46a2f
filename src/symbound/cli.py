"""Command-line front end.

Commands: analyze, simulate, sweep, errordemo, verify.
Global flags: --config <path>, --out <dir>, --seed <u64>, --quiet.
Exit codes: 0 success, 1 usage or configuration error, 2 verification failure.

Escaping orbits are results, not errors; only bad input and failed
verification produce non-zero exits.
"""

import argparse
import contextlib
import functools
import math
import os
import sys as _sys
from pathlib import Path

from .analyzer import (
    InconsistentPredicate,
    VerdictGrid,
    empirical_tau_max,
    fmt_float,
    preservation_report,
    report_to_csv,
    report_to_text,
    verdict_grid,
)
from .config import ConfigError, RunConfig, load_config, serialize_config
from .errorprop import ErrorModel, SingularResolvent, closed_form_error, error_bounded, iterate_error
from .expr import ExprError
from .mat2 import Mat2
from .orbit import orbit_to_csv, simulate
from .schemes import Scheme, scheme_from_name
from .systems import State, collapse_continuum, find_equilibria


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise UsageError(message)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit value")
    return value


def _add_common(parser):
    parser.add_argument("--config", default=argparse.SUPPRESS, help="config file path")
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
    parser.add_argument(
        "--seed", type=_u64, default=argparse.SUPPRESS, help="seed for randomized suites"
    )
    parser.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress stdout tables",
    )


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by every later
    call to main: parse_args keeps its results in a new namespace."""
    parser = _Parser(prog="symbound", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=_u64, default=0)
    parser.add_argument("--quiet", action="store_true", default=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("analyze", "classification, verdicts and step-size limits"),
        ("simulate", "long nonlinear orbits near the equilibria"),
        ("sweep", "verdict versus tau with a refined transition estimate"),
        ("errordemo", "error recurrence: iteration vs closed form"),
        ("verify", "run the built-in property suites"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
    return parser


def _print(text: str) -> bool:
    """Print and flush text; False once stdout's reader has gone, and then
    stdout's descriptor points at os.devnull, so the exit flush stays quiet."""
    try:
        print(text, flush=True)
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return False


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary file and a rename; a failure
    removes the temporary file and ends in a UsageError."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as err:
        with contextlib.suppress(OSError):  # tmp may be absent, or a directory
            tmp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {str(path)!r}: {err.strerror}") from None


class _Ctx:
    def __init__(self, args):
        self.out = Path(args.out)
        self.seed = args.seed
        self.quiet = args.quiet
        self.config_path = args.config

    def say(self, text: str) -> None:
        if not self.quiet:
            self.quiet = not _print(text)

    def load(self) -> RunConfig:
        if self.config_path is None:
            raise UsageError("this command needs --config <path>")
        return load_config(self.config_path)

    def prepare_out(self, cfg: RunConfig) -> None:
        """Create --out, or end in a UsageError, and write effective.cfg."""
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise UsageError(
                f"cannot create output directory {str(self.out)!r}: {err.strerror}"
            )
        _write_atomic(self.out / "effective.cfg", serialize_config(cfg))


def _resolve_system(cfg: RunConfig, path: str):
    if cfg.system is None:
        raise ConfigError("config has no [system] section", path)
    try:
        return cfg.system.build()
    except (ExprError, ValueError) as err:
        raise ConfigError(f"bad system expression: {err}", path)


def _resolve_schemes(cfg: RunConfig, sys_obj, path: str) -> list[Scheme]:
    if not cfg.schemes:
        raise ConfigError("config names no schemes ([run] schemes = ...)", path)
    schemes = []
    for name in cfg.schemes:
        try:
            scheme = scheme_from_name(name)
        except ValueError as err:
            raise ConfigError(str(err), path)
        if not scheme.applicable_to(sys_obj):
            raise ConfigError(
                f"scheme {scheme.value} is not applicable to a "
                f"{sys_obj.kind.value} system",
                path,
            )
        schemes.append(scheme)
    return schemes


def _equilibria(cfg: RunConfig, sys_obj):
    return find_equilibria(
        sys_obj, box=cfg.search.box(), grid=cfg.search.grid, tol=cfg.search.tol
    )


def _classification_table(sys_obj, eqs) -> str:
    lines = [f"equilibria of {sys_obj.describe()}"]
    if not eqs:
        lines.append("  none found in the search box")
        return "\n".join(lines) + "\n"
    if eqs[0].continuum_suspected:
        lines.append(
            f"  continuum suspected ({len(eqs)} grid representatives); "
            "reports use the first"
        )
    lines.append(f"  {'p':>14} {'q':>14} {'kind':<18} {'detA':>12} {'residual':>10}")
    for eq in eqs:
        lines.append(
            f"  {eq.point.p:>14.8g} {eq.point.q:>14.8g} {eq.kind.value:<18} "
            f"{eq.a.det:>12.6g} {eq.residual:>10.2e}"
        )
    return "\n".join(lines) + "\n"


def cmd_analyze(ctx: _Ctx) -> int:
    cfg = ctx.load()
    sys_obj = _resolve_system(cfg, ctx.config_path)
    schemes = _resolve_schemes(cfg, sys_obj, ctx.config_path)
    if not cfg.taus:
        raise ConfigError(
            "analyze needs [run] tau = ... step sizes", ctx.config_path
        )
    ctx.prepare_out(cfg)
    eqs = _equilibria(cfg, sys_obj)
    texts = [_classification_table(sys_obj, eqs)]
    for scheme in schemes:
        report = preservation_report(
            sys_obj,
            scheme,
            cfg.taus,
            equilibria=eqs,
            tau_hi=cfg.empirical_tau_hi,
            bisect_tol=cfg.bisect_tol,
        )
        _write_atomic(ctx.out / f"analyze_{scheme.value}.csv", report_to_csv(report))
        texts.append(report_to_text(report))
    combined = "\n".join(texts)
    _write_atomic(ctx.out / "analyze.txt", combined)
    ctx.say(combined.rstrip("\n"))
    return 0


def _tau_cells(taus: list[float]) -> list[str]:
    """The "tau," cell that opens each sweep row, one per tau."""
    return [f"{fmt_float(tau)}," for tau in taus]


def _sweep_rows(grid: VerdictGrid, cells: list[str]) -> str:
    """The grid's tau,traceS,holds rows, joined by newlines; a singular
    Cayley row reads nan,false.

    cells are _tau_cells of the grid's taus.  The traces are floats, for
    which repr is fmt_float.
    """
    return "\n".join([
        f"{cell}{trace!r},{'true' if holds else 'false'}"
        for cell, trace, holds in zip(cells, grid.trace.tolist(), grid.holds.tolist())
    ])


def _sweep_table(grid: VerdictGrid, cells: list[str], tables: dict[bytes, str]) -> str:
    """_sweep_rows(grid, cells), formatted once per distinct grid.

    tables lives for one sweep command, whose grids all share one taus and
    cells, and maps a grid's trace and holds bytes to its rows.  A row's
    text is a function of its cell, its trace bits and its holds flag, so
    grids with equal bytes (mirrored equilibria, schemes with equal traces)
    have equal rows, and the key needs no tau.
    """
    key = grid.trace.tobytes() + grid.holds.tobytes()
    table = tables.get(key)
    if table is None:
        table = tables[key] = _sweep_rows(grid, cells)
    return table


def cmd_sweep(ctx: _Ctx) -> int:
    cfg = ctx.load()
    sys_obj = _resolve_system(cfg, ctx.config_path)
    schemes = _resolve_schemes(cfg, sys_obj, ctx.config_path)
    if cfg.sweep is None:
        raise ConfigError(
            "sweep needs tau_lo / tau_hi / tau_count in [run]", ctx.config_path
        )
    ctx.prepare_out(cfg)
    eqs = collapse_continuum(_equilibria(cfg, sys_obj))
    if not eqs:
        ctx.say("sweep: no equilibria found in the search box")
        return 0
    taus = cfg.sweep.taus()
    cells = _tau_cells(taus)
    tables: dict[bytes, str] = {}
    system_line = f"# system = {sys_obj.describe()}"
    for scheme in schemes:
        for j, eq in enumerate(eqs):
            lines = [
                system_line,
                f"# scheme = {scheme.value}",
                f"# equilibrium p0={fmt_float(eq.point.p)} q0={fmt_float(eq.point.q)}",
                "tau,traceS,holds",
                _sweep_table(verdict_grid(scheme, eq.a, taus), cells, tables),
                "# transition (bisection-refined)",
            ]
            try:
                transition = empirical_tau_max(
                    scheme, eq, tau_hi=cfg.empirical_tau_hi, tol=cfg.bisect_tol
                )
            except InconsistentPredicate as err:
                result = f"transition error: {type(err).__name__}: {err}"
                lines.append(f"# {result}")
            else:
                result = f"transition = {fmt_float(transition)}"
                if math.isinf(transition):
                    lines.append("inf,nan,true")
                else:
                    # its own tau, so never served from tables
                    grid = verdict_grid(scheme, eq.a, [transition])
                    lines.append(_sweep_rows(grid, _tau_cells([transition])))
            _write_atomic(
                ctx.out / f"sweep_{scheme.value}_eq{j}.csv", "\n".join(lines) + "\n"
            )
            ctx.say(
                f"sweep {scheme.value} at (p={eq.point.p:.6g}, q={eq.point.q:.6g}): "
                f"{result}"
            )
    return 0


def cmd_simulate(ctx: _Ctx) -> int:
    cfg = ctx.load()
    sys_obj = _resolve_system(cfg, ctx.config_path)
    schemes = _resolve_schemes(cfg, sys_obj, ctx.config_path)
    taus = list(cfg.taus)
    if not taus and cfg.sweep is not None:
        taus = cfg.sweep.taus()
    if not taus:
        raise ConfigError(
            "simulate needs [run] tau = ... step sizes", ctx.config_path
        )
    offsets = cfg.sim.offset_pairs()
    if not offsets:
        raise ConfigError(
            "simulate needs at least one offset pair", ctx.config_path
        )
    ctx.prepare_out(cfg)
    eqs = collapse_continuum(_equilibria(cfg, sys_obj))
    if not eqs:
        raise ConfigError(
            "no equilibria found in the search box", ctx.config_path
        )
    stride = cfg.sim.stride if cfg.sim.stride > 0 else None
    for j, eq in enumerate(eqs):
        for dp, dq in offsets:
            r0 = math.hypot(eq.point.p + dp, eq.point.q + dq)
            if not cfg.sim.escape_r > r0:
                raise ConfigError(
                    f"escape_r = {fmt_float(cfg.sim.escape_r)} does not exceed the "
                    f"initial radius {r0:.6g} of the orbit at equilibrium "
                    f"(p={eq.point.p:.6g}, q={eq.point.q:.6g}) with offset "
                    f"({dp:.6g}, {dq:.6g})",
                    ctx.config_path,
                )
    for scheme in schemes:
        for ti, tau in enumerate(taus):
            for j, eq in enumerate(eqs):
                for k, (dp, dq) in enumerate(offsets):
                    x0 = State(eq.point.p + dp, eq.point.q + dq)
                    trace = simulate(
                        sys_obj,
                        scheme,
                        x0,
                        tau,
                        n_max=cfg.sim.n_max,
                        escape_radius=cfg.sim.escape_r,
                        stride=stride,
                    )
                    name = f"orbit_{scheme.value}_t{ti}_eq{j}_off{k}.csv"
                    _write_atomic(ctx.out / name, orbit_to_csv(sys_obj, trace))
                    ctx.say(
                        f"{name}: tau={fmt_float(tau)} "
                        f"from (p={x0.p:.6g}, q={x0.q:.6g}) "
                        f"-> {type(trace.verdict).__name__}"
                    )
    return 0


def cmd_errordemo(ctx: _Ctx) -> int:
    cfg = ctx.load()
    if cfg.error is None:
        raise ConfigError(
            "errordemo needs an [error] section", ctx.config_path
        )
    ctx.prepare_out(cfg)
    spec = cfg.error
    model = ErrorModel(Mat2(*spec.s), tuple(spec.eta), tuple(spec.y0))
    try:
        status = "bounded" if error_bounded(model) else "unbounded"
    except SingularResolvent:
        status = "singular-resolvent"
    lines = ["n,iter_p,iter_q,closed_p,closed_q,bounded"]
    for n in spec.steps:
        yi = iterate_error(model, n)
        try:
            yc = closed_form_error(model, n)
            closed = f"{fmt_float(yc[0])},{fmt_float(yc[1])}"
        except SingularResolvent:
            closed = "nan,nan"
        lines.append(f"{n},{fmt_float(yi[0])},{fmt_float(yi[1])},{closed},{status}")
    text = "\n".join(lines) + "\n"
    _write_atomic(ctx.out / "errordemo.csv", text)
    ctx.say(text.rstrip("\n"))
    return 0


def cmd_verify(ctx: _Ctx) -> int:
    from . import verify

    results = verify.run_all(ctx.seed)
    lines = [f"verify seed={ctx.seed}"]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name:<24} {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed} passed, {failed} failed")
    _print("\n".join(lines))
    return 2 if failed else 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "errordemo": cmd_errordemo,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](_Ctx(args))
    except UsageError as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=_sys.stderr)
        return 1


def run_main() -> None:
    raise SystemExit(main())
