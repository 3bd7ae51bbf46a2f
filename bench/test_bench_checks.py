"""The benchmark's output checks must be able to fail.

Each test runs one small generated case through the CLI, confirms that its
check passes, then tampers with one number in the output and expects the
check to fail.  The tracing test confirms the two cross-checked totals, and
one test the size of the reference that scales the timed metrics.

    python -m pytest bench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import symbound.analyzer  # noqa: E402
from checks import check_analyze, check_simulate, check_sweep  # noqa: E402
from families import analyze_cases, simulate_cases, sweep_cases  # noqa: E402
from speed import REF_LOOP_S, REF_WRITE_S, Speedometer  # noqa: E402
from symbound.cli import main as cli_main  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(case, command, tmp_path) -> Path:
    cfg, out = tmp_path / f"{case.name}.cfg", tmp_path / case.name
    cfg.write_text(case.config_text(), encoding="utf-8")
    assert cli_main(["--config", str(cfg), "--out", str(out), "--quiet", command]) == 0
    return out


def _edit(path: Path, line_no: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line_no] = edit(lines[line_no])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_field(index: int, value_of):
    def edit(line: str) -> str:
        fields = line.split(",")
        fields[index] = value_of(fields[index])
        return ",".join(fields)

    return edit


def _first_row(path: Path, want=lambda fields: True) -> int:
    """Index of the first analyze verdict row whose fields satisfy ``want``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return next(
        i for i, line in enumerate(lines)
        if line.count(",") == 9 and not line.startswith(("#", "p0,")) and want(line.split(","))
    )


def _pendulum(cases):
    return next(c for c in cases if c.family == "pendulum")


def _analyze(tmp_path):
    case = _pendulum(analyze_cases(seed=7, count=5))
    out = _run(case, "analyze", tmp_path)
    assert check_analyze(case, str(out)).errors == []
    return case, out


def test_analyze_flipped_holds_fails(tmp_path):
    case, out = _analyze(tmp_path)
    csv = out / "analyze_stormer-verlet.csv"
    row = _first_row(csv)
    _edit(csv, row, _set_field(7, lambda v: "false" if v == "true" else "true"))
    errors = check_analyze(case, str(out)).errors
    assert any("holds" in e for e in errors), errors


def test_analyze_tau_max_off_by_1e_6_fails(tmp_path):
    case, out = _analyze(tmp_path)
    csv = out / "analyze_euler-b.csv"
    row = _first_row(csv, lambda fields: fields[8] != "inf")
    _edit(csv, row, _set_field(8, lambda v: repr(float(v) + 1e-6)))
    errors = check_analyze(case, str(out)).errors
    assert any("tau_max" in e for e in errors), errors


def test_sweep_perturbed_trace_fails(tmp_path):
    case = _pendulum(sweep_cases(seed=7, count=5, tau_count=200))
    out = _run(case, "sweep", tmp_path)
    assert check_sweep(case, str(out)).errors == []
    csv = out / "sweep_yoshida2_eq1.csv"
    _edit(csv, 50, _set_field(1, lambda v: repr(float(v) * (1.0 + 1e-6))))
    errors = check_sweep(case, str(out)).errors
    assert any("traceS" in e for e in errors), errors


def _simulate(tmp_path, family):
    case = next(c for c in simulate_cases(seed=7, n_max=2000, stride=100) if c.family == family)
    out = _run(case, "simulate", tmp_path)
    assert check_simulate(case, str(out)).errors == []
    return case, out


def test_simulate_moved_state_fails(tmp_path):
    case, out = _simulate(tmp_path, "lin-newton-center")
    csv = out / "orbit_euler-b_t0_eq0_off0.csv"
    _edit(csv, 13, _set_field(2, lambda v: repr(float(v) * (1.0 + 1e-6))))
    errors = check_simulate(case, str(out)).errors
    assert any("S^n x0" in e for e in errors), errors


def test_simulate_midpoint_energy_drift_fails(tmp_path):
    case, out = _simulate(tmp_path, "lin-general-center")
    csv = out / "orbit_implicit-midpoint_t0_eq0_off0.csv"
    _edit(csv, -1, _set_field(3, lambda v: repr(float(v) * (1.0 + 1e-6))))
    errors = check_simulate(case, str(out)).errors
    assert any("drifted" in e for e in errors), errors


def test_traced_totals_agree_and_uninstall_restores(tmp_path):
    original = symbound.analyzer.propagator
    tracer = Tracer()
    tracer.install()
    try:
        case, out = _analyze(tmp_path)
        orbit_case, orbit_out = _simulate(tmp_path, "lin-general-saddle")
    finally:
        tracer.uninstall()
    assert symbound.analyzer.propagator is original
    a = check_analyze(case, str(out))
    s = check_simulate(orbit_case, str(orbit_out))
    assert tracer.step_calls() == a.step_calls + s.step_calls
    assert tracer.counts["orbit.solver_failed"] == 1
    assert tracer.counts["systems.find_equilibria.equilibria"] == a.equilibria + s.equilibria
    assert tracer.calls["cli.analyze"] == 1 and tracer.self_s["cli.analyze"] > 0.0


def test_reference_is_a_tenth_of_each_op(tmp_path):
    meter = Speedometer(tmp_path / "ref")
    meter.sample(0.03, 12)  # 4 loops, 1 write, 0.2 of a write owed
    meter.sample(0.0, 9)  # 1 loop (the least), 1 write
    assert (meter.loops, meter.writes) == (5, 2)
    assert (tmp_path / "ref" / "reference.csv").is_file()
    nominal = 5 * REF_LOOP_S + 2 * REF_WRITE_S
    assert meter.scale() == pytest.approx(nominal / (meter.loop_s + meter.write_s))


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
