import errno
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symbound.analyzer import CSV_HEADER, VerdictGrid, check_preservation, fmt_float
from symbound.cli import _sweep_rows, _sweep_table, _tau_cells, main
from symbound.config import load_config
from symbound.schemes import SingularCayley, propagator, scheme_from_name
from symbound.systems import EquilibriumKind, find_equilibria
from symbound.verify import SuiteResult

PENDULUM_NH = """\
[system]
class = newtonian
g = -sin(q)

[run]
schemes = euler-b, yoshida2, stormer-verlet, implicit-midpoint
tau = 0.5, 1.9, 2.1

[search]
p_min = -1.0
p_max = 1.0
q_min = -4.0
q_max = 4.0
grid = 16
"""

HARMONIC_SWEEP = """\
[system]
class = separable
t = p^2/2
v = q^2/2

[run]
schemes = euler-b
tau = 1.0
tau_lo = 0.1
tau_hi = 4.0
tau_count = 40
tau_scale = linear

[simulate]
n_max = 5000
escape_r = 1000.0
offsets = 0.001, 0.0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_end_to_end(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH)
    out = tmp_path / "out"
    code = main(["analyze", "--config", cfg, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "tau_max closed-form = 2.0" in stdout
    assert "solvability singularity" in stdout
    for scheme in ("euler-b", "yoshida2", "stormer-verlet", "implicit-midpoint"):
        csv = (out / f"analyze_{scheme}.csv").read_text()
        header = [l for l in csv.splitlines() if not l.startswith("#")][0]
        assert header == (
            "p0,q0,case,detA,traceS,dimBA,dimBS,holds,tau_max,empirical_tau_max"
        )
    assert (out / "analyze.txt").exists()
    assert (out / "effective.cfg").exists()


def test_analyze_quiet_prints_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH)
    code = main(["analyze", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_effective_config_reruns_identically(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH)
    out1 = tmp_path / "a"
    assert main(["analyze", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    effective = out1 / "effective.cfg"
    out2 = tmp_path / "b"
    assert main(["analyze", "--config", str(effective), "--out", str(out2), "--quiet"]) == 0
    for name in ("analyze_euler-b.csv", "analyze.txt", "effective.cfg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_inapplicable_scheme_is_a_config_error(tmp_path, capsys):
    text = PENDULUM_NH.replace("class = newtonian\ng = -sin(q)", "class = general\nh = p*q")
    cfg = _write(tmp_path, text)
    code = main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "euler-b" in err and "not applicable" in err


def test_stormer_verlet_on_general_system_names_the_scheme(tmp_path, capsys):
    text = """\
[system]
class = general
h = p*q

[run]
schemes = stormer-verlet
tau = 0.5
"""
    cfg = _write(tmp_path, text)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "stormer-verlet" in err and "general" in err


def test_zero_hamiltonian_single_row(tmp_path):
    text = """\
[system]
class = general
h = 0

[run]
schemes = implicit-midpoint
tau = 0.5, 5.0

[search]
grid = 8
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    csv = (out / "analyze_implicit-midpoint.csv").read_text()
    data = [l for l in csv.splitlines() if l and not l.startswith("#")][1:]
    assert len(data) == 2  # one equilibrium row per tau
    assert {row.split(",")[0] for row in data} == {"-5.0"}  # single representative
    for row in data:
        cols = row.split(",")
        assert cols[2] == "4" and cols[7] == "true" and cols[8] == "inf"


def test_a_line_of_equilibria_is_one_entry_with_a_note(tmp_path, capsys):
    # the free particle: every point of p = 0 is an equilibrium, rank 1
    text = "[system]\nclass = newtonian\ng = 0\n\n[run]\nschemes = euler-b\ntau = 0.5\n"
    out = tmp_path / "out"
    assert main(["analyze", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert "continuum suspected (32 grid representatives)" in capsys.readouterr().out
    csv = (out / "analyze_euler-b.csv").read_text().splitlines()
    assert "# continuum suspected: 32 grid representatives collapsed to one" in csv
    assert len([l for l in csv if not l.startswith("#")]) == 2  # header, one row


def test_a_lattice_of_isolated_equilibria_is_not_a_continuum(tmp_path, capsys):
    # H = -cos(p) - cos(q): 7 x 7 centres and saddles at multiples of pi,
    # more than the grid's 32 yet each with a regular Jacobian
    text = (
        "[system]\nclass = general\nh = -cos(p) - cos(q)\n\n"
        "[run]\nschemes = implicit-midpoint\ntau = 0.5\n\n[search]\n"
        "p_min = -10.0\np_max = 10.0\nq_min = -10.0\nq_max = 10.0\ngrid = 32\n"
    )
    out = tmp_path / "out"
    assert main(["analyze", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert "continuum" not in capsys.readouterr().out
    csv = (out / "analyze_implicit-midpoint.csv").read_text().splitlines()
    rows = [l for l in csv if not l.startswith("#")][1:]
    assert len(rows) == 49
    assert {r.split(",")[2] for r in rows} == {"1", "2"}


def test_sweep_outputs_transition(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "sweep_euler-b_eq0.csv").read_text()
    lines = text.strip().splitlines()
    header_idx = lines.index("tau,traceS,holds")
    rows = [l.split(",") for l in lines[header_idx + 1:] if not l.startswith("#")]
    grid_rows = rows[:-1]
    assert len(grid_rows) == 40
    for tau_s, _, holds in grid_rows:
        tau = float(tau_s)
        assert holds == ("true" if tau < 2.0 else "false")
    transition = float(rows[-1][0])
    assert abs(transition - 2.0) <= 1e-6
    assert "transition = 1.999999" in capsys.readouterr().out


def test_sweep_saddle_is_unlimited(tmp_path, capsys):
    text = HARMONIC_SWEEP.replace("v = q^2/2", "v = -q^2/2")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "transition = inf" in capsys.readouterr().out
    text = (out / "sweep_euler-b_eq0.csv").read_text()
    assert text.strip().splitlines()[-1].startswith("inf,")


def test_sweep_implicit_midpoint_on_center_unlimited(tmp_path, capsys):
    text = HARMONIC_SWEEP.replace("schemes = euler-b", "schemes = implicit-midpoint")
    cfg = _write(tmp_path, text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "transition = inf" in capsys.readouterr().out


def _scalar_sweep_rows(scheme, a, taus):
    """The sweep CSV rows as propagator + check_preservation give them."""
    rows = []
    for tau in taus:
        try:
            s = propagator(scheme, a, tau)
        except SingularCayley:
            rows.append(f"{fmt_float(tau)},nan,false")
            continue
        holds = "true" if check_preservation(a, s).condition_holds else "false"
        rows.append(f"{fmt_float(tau)},{fmt_float(s.trace)},{holds}")
    return rows


@pytest.mark.parametrize(
    "system, schemes, search, kinds",
    [
        # free particle: A = [[0, 0], [1, 0]] at every point, case 3
        ("class = newtonian\ng = 0", "euler-b, yoshida2, stormer-verlet, "
         "implicit-midpoint", "grid = 4", {EquilibriumKind.RANK1_DEGENERATE}),
        # H = 0: A = 0, case 4
        ("class = separable\nt = 0\nv = 0", "euler-b, yoshida2, implicit-midpoint",
         "grid = 4", {EquilibriumKind.RANK0_ZERO}),
        # pendulum: a centre at 0 and saddles at +-pi, whose Cayley factor is
        # singular from tau = 2 on
        ("class = newtonian\ng = -sin(q)", "euler-b, yoshida2, stormer-verlet, "
         "implicit-midpoint", "q_min = -4.0\nq_max = 4.0\ngrid = 16",
         {EquilibriumKind.CENTER, EquilibriumKind.SADDLE}),
        # double well: a saddle at 0 between centres at +-1
        ("class = general\nh = p^2/2 + q^4/4 - q^2/2", "implicit-midpoint",
         "q_min = -2.0\nq_max = 2.0\ngrid = 8",
         {EquilibriumKind.CENTER, EquilibriumKind.SADDLE}),
    ],
)
def test_degenerate_sweep_rows_equal_the_scalar_path(
    tmp_path, system, schemes, search, kinds
):
    # degenerate and hyperbolic equilibria alike: every file of a config
    # shares its tau cells, and each must still read as propagator +
    # check_preservation give it, singular Cayley rows included
    text = (
        f"[system]\n{system}\n\n[run]\nschemes = {schemes}\n"
        "tau_lo = 0.001\ntau_hi = 1000.0\ntau_count = 61\ntau_scale = log\n\n"
        f"[search]\n{search}\n"
    )
    path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
    cfg = load_config(path)
    eqs = find_equilibria(
        cfg.system.build(),
        box=cfg.search.box(),
        grid=cfg.search.grid,
        tol=cfg.search.tol,
    )
    if eqs[0].continuum_suspected:
        eqs = eqs[:1]
    assert {eq.kind for eq in eqs} == kinds
    taus = cfg.sweep.taus()
    singular_rows = 0
    for name in cfg.schemes:
        scheme = scheme_from_name(name)
        for j, eq in enumerate(eqs):
            lines = (out / f"sweep_{name}_eq{j}.csv").read_text().splitlines()
            rows = lines[4:4 + len(taus)]
            assert rows == _scalar_sweep_rows(scheme, eq.a, taus)
            singular_rows += sum(row.endswith(",nan,false") for row in rows)
            head, transition = lines[4 + len(taus):]
            assert head == "# transition (bisection-refined)"
            if eq.kind in (EquilibriumKind.RANK1_DEGENERATE, EquilibriumKind.RANK0_ZERO):
                assert transition == "inf,nan,true"
            elif transition != "inf,nan,true":
                tau = float(transition.split(",")[0])
                assert [transition] == _scalar_sweep_rows(scheme, eq.a, [tau])
    if EquilibriumKind.SADDLE in kinds:
        assert singular_rows > 0


def _grid(trace, holds):
    trace = np.array(trace)
    return VerdictGrid(trace, np.array(holds), np.isnan(trace))


def test_each_distinct_verdict_grid_gets_its_own_table():
    cells = _tau_cells([0.5, 1.0])
    tables = {}
    first = _sweep_table(_grid([1.5, -0.0], [False, True]), cells, tables)
    assert first == "0.5,1.5,false\n1.0,-0.0,true"
    grids = [
        _grid([1.5, -0.0], [False, False]),  # one holds flag
        _grid([1.5, 0.0], [False, True]),  # +0.0 against -0.0
        _grid([math.nan, -0.0], [False, True]),  # a singular row
    ]
    texts = [first] + [_sweep_table(grid, cells, tables) for grid in grids]
    assert texts[1:] == [_sweep_rows(grid, cells) for grid in grids]
    assert len(set(texts)) == len(tables) == 4
    # an equal grid in new arrays is served the stored text itself
    assert _sweep_table(_grid([1.5, -0.0], [False, True]), cells, tables) is first
    assert len(tables) == 4


def test_each_sweep_writes_its_own_tau_column(tmp_path):
    # H = 0: A = 0 gives trace 2.0 and true at every tau, so both grids have
    # the same trace and holds bytes; a table that outlived its command
    # would write the first grid's tau cells into the second's files
    schemes = ("euler-b", "yoshida2", "implicit-midpoint")
    for lo, hi in ((0.1, 1.0), (0.2, 3.0)):
        text = (
            "[system]\nclass = separable\nt = 0\nv = 0\n\n[run]\n"
            f"schemes = {', '.join(schemes)}\n"
            f"tau_lo = {lo}\ntau_hi = {hi}\ntau_count = 5\n\n[search]\ngrid = 4\n"
        )
        cfg = _write(tmp_path, text, f"{lo}.cfg")
        out = tmp_path / f"out{lo}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = [f"{fmt_float(tau)},2.0,true" for tau in load_config(cfg).sweep.taus()]
        for name in schemes:
            lines = (out / f"sweep_{name}_eq0.csv").read_text().splitlines()
            assert lines[4:] == rows + ["# transition (bisection-refined)", "inf,nan,true"]


def test_each_transition_row_has_its_own_tau(tmp_path, capsys):
    # with bisect_tol = 0 the centres of g = -q(q - 1)(q - 3), det A = 3 and
    # 6, both end their bisection at the same trace and verdict, but at
    # different taus: a transition row served from the sweep's tables would
    # carry the first centre's tau into the second's file
    text = (
        "[system]\nclass = newtonian\ng = -q*(q-1)*(q-3)\n\n[run]\nschemes = euler-b\n"
        "tau_lo = 0.1\ntau_hi = 1.0\ntau_count = 2\nbisect_tol = 0\n\n"
        "[search]\nq_min = -1.0\nq_max = 4.0\ngrid = 16\n"
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    results = [line.rsplit(" = ", 1)[1] for line in capsys.readouterr().out.splitlines()]
    assert sorted(results)[:2] == ["0.816496580927726", "1.1547005383792515"]
    for j, result in enumerate(results):
        last = (out / f"sweep_euler-b_eq{j}.csv").read_text().splitlines()[-1]
        if result == "inf":
            assert last == "inf,nan,true"
        else:
            assert last == f"{result},-1.9999999999999996,true"


def test_sweep_without_equilibria_says_so(tmp_path, capsys):
    # g = 1 + q^2 has no root: analyze prints "none found in the search box"
    # and simulate ends in a config error
    text = (
        "[system]\nclass = newtonian\ng = 1 + q^2\n\n[run]\nschemes = euler-b\n"
        "tau_lo = 0.1\ntau_hi = 1.0\ntau_count = 3\n\n[search]\ngrid = 4\n"
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("sweep: no equilibria found in the search box\n", "")
    assert [path.name for path in out.iterdir()] == ["effective.cfg"]


def test_sweep_with_zero_bisect_tol_terminates(tmp_path):
    text = HARMONIC_SWEEP.replace(
        "tau_scale = linear", "tau_scale = linear\nbisect_tol = 0"
    )
    cfg = _write(tmp_path, text)
    run = subprocess.run(
        [sys.executable, "-m", "symbound", "sweep", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        timeout=5.0,
    )
    assert run.returncode == 0
    assert b"transition = 2.0" in run.stdout


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_a_closed_stdout_still_writes_every_file(tmp_path, command):
    # stdout is a pipe whose read end is already closed, so the first write
    # to it fails
    cfg = str(Path(__file__).parents[1] / "configs" / "pendulum.cfg")
    out = tmp_path / "o"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "symbound", "--config", cfg, "--out", str(out),
             command],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60.0,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (0, b"")
    if command == "sweep":
        # effective.cfg and one file per scheme and equilibrium, 4 x 3
        assert len(list(out.iterdir())) == 13


def test_sweep_rejects_an_infinite_tau_hi(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_SWEEP.replace("tau_hi = 4.0", "tau_hi = inf"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:") and "tau_hi must be finite" in err


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_bracket_top_beyond_the_ceiling_is_a_config_error(tmp_path, command):
    # 10 * empirical_tau_hi would overflow to an infinite step size
    text = HARMONIC_SWEEP.replace(
        "tau_scale = linear", "tau_scale = linear\nempirical_tau_hi = 1e308"
    )
    cfg = _write(tmp_path, text)
    run = subprocess.run(
        [sys.executable, "-m", "symbound", command, "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert run.returncode == 1
    assert run.stderr.startswith(f"config error: {cfg}:")
    assert "empirical_tau_hi must be positive and at most 1e+300" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_bracket_top_below_the_scan_floor_is_a_config_error(tmp_path, command):
    # the bisection's scan starts at empirical_tau_hi * 1e-8, which must not
    # underflow to zero
    text = HARMONIC_SWEEP.replace(
        "tau_scale = linear", "tau_scale = linear\nempirical_tau_hi = 1e-320"
    )
    cfg = _write(tmp_path, text)
    run = subprocess.run(
        [sys.executable, "-m", "symbound", command, "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert run.returncode == 1
    assert run.stderr == (
        f"config error: {cfg}:13: empirical_tau_hi must be at least 1e-299, "
        "got '1e-320'\n"
    )


def test_sweep_writes_an_inconsistent_transition_as_a_comment(tmp_path):
    # with the bracket top at 1e9 the scan misses the centre's preserving
    # range; analyze reports that per equilibrium, and so must sweep
    pendulum = Path(__file__).resolve().parent.parent / "configs" / "pendulum.cfg"
    text = pendulum.read_text().replace(
        "tau_scale = linear", "tau_scale = linear\nempirical_tau_hi = 1e9"
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, "-m", "symbound", "sweep", "--config", cfg,
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert run.returncode == 0
    assert "Traceback" not in run.stderr
    error = (
        "transition error: InconsistentPredicate: predicate fails for every "
        "scanned tau; no preserving range found"
    )
    assert f"sweep euler-b at (p=0, q=-3.30872e-24): {error}" in run.stdout
    lines = (out / "sweep_euler-b_eq1.csv").read_text().splitlines()
    assert lines[-2:] == ["# transition (bisection-refined)", f"# {error}"]
    # the saddles still get their transition row
    saddle = (out / "sweep_euler-b_eq0.csv").read_text().splitlines()
    assert saddle[-1] == "inf,nan,true"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("analyze", HARMONIC_SWEEP.replace("tau = 1.0\n", ""), "analyze needs"),
        ("sweep", PENDULUM_NH, "sweep needs"),
        ("simulate", PENDULUM_NH.replace("tau = 0.5, 1.9, 2.1\n", ""), "simulate needs"),
        ("simulate", HARMONIC_SWEEP.replace("offsets = 0.001, 0.0", "offsets ="),
         "at least one offset pair"),
        ("simulate", HARMONIC_SWEEP.replace("v = q^2/2", "v = q"), "no equilibria"),
        ("errordemo", PENDULUM_NH, "errordemo needs"),
    ],
)
def test_command_config_errors_name_the_file(tmp_path, capsys, command, text, message):
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and message in err


_ERRORDEMO = "[error]\ns = 1, 0, 0, 1\neta = 0.01, 0\ny0 = 0, 0\nsteps = 1, 5\n"


@pytest.mark.parametrize(
    "command, text, old, new, lineno",
    [
        ("analyze", PENDULUM_NH, "grid = 16", "grid = 2", 14),
        ("simulate", HARMONIC_SWEEP, "n_max = 5000", "n_max = 0", 15),
        ("simulate", HARMONIC_SWEEP, "tau = 1.0", "tau = -0.5", 8),
        ("simulate", HARMONIC_SWEEP, "n_max = 5000", "n_max = 5000\nstride = -1", 16),
        ("errordemo", _ERRORDEMO, "steps = 1, 5", "steps = -1, 5", 5),
        ("errordemo", _ERRORDEMO, "s = 1, 0, 0, 1", "s = 2, 0, 0, 2", 2),
        ("simulate", HARMONIC_SWEEP, "escape_r = 1000.0", "escape_r = nan", 16),
        ("simulate", HARMONIC_SWEEP, "offsets = 0.001, 0.0", "offsets = nan, 0.0", 17),
    ],
    ids=["grid", "n_max", "tau", "stride", "steps", "s", "escape_r", "offsets"],
)
def test_out_of_range_values_are_config_errors(
    tmp_path, capsys, command, text, old, new, lineno
):
    assert old in text
    cfg = _write(tmp_path, text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:{lineno}: ")


def test_simulate_writes_orbit_files(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_SWEEP)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    orbit = out / "orbit_euler-b_t0_eq0_off0.csv"
    assert orbit.exists()
    first = orbit.read_text().splitlines()[0]
    assert first.startswith("# verdict(heuristic) = bounded")
    assert "Bounded" in capsys.readouterr().out


def test_simulate_without_tau_runs_the_sweep_grid(tmp_path, capsys):
    text = HARMONIC_SWEEP.replace("tau = 1.0\n", "").replace("tau_count = 40", "tau_count = 2")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.glob("orbit_*.csv")) == [
        "orbit_euler-b_t0_eq0_off0.csv", "orbit_euler-b_t1_eq0_off0.csv"
    ]
    stdout = capsys.readouterr().out
    assert "t0_eq0_off0.csv: tau=0.1 " in stdout and "t1_eq0_off0.csv: tau=4.0 " in stdout


def test_simulate_rejects_escape_radius_inside_initial_point(tmp_path, capsys):
    text = HARMONIC_SWEEP.replace("escape_r = 1000.0", "escape_r = 0.0005")
    cfg = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "escape_r" in err and "initial radius" in err


def test_simulate_escape_is_a_result_not_an_error(tmp_path, capsys):
    cfg = _write(tmp_path, HARMONIC_SWEEP.replace("tau = 1.0", "tau = 2.5"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Escaped" in stdout
    text = (out / "orbit_euler-b_t0_eq0_off0.csv").read_text()
    assert text.splitlines()[0].startswith("# verdict(heuristic) = escaped")


def test_one_state_outside_the_energy_domain_blanks_only_its_h(tmp_path):
    # escape_r = inf lets the orbit reach (inf, inf), where cos(inf) raises
    # ValueError; every other state keeps its H
    text = (
        "[system]\nclass = separable\nt = p^2/2\nv = q^2/2 - cos(q)\n\n"
        "[run]\nschemes = euler-b\ntau = 3.0\n\n"
        "[simulate]\nescape_r = inf\noffsets = 0.0, 0.1\n"
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "orbit_euler-b_t0_eq0_off0.csv").read_text().splitlines()
    assert lines[0] == "# verdict(heuristic) = escaped step=370 radius=inf"
    assert lines[3] == "0,0.0,0.1,-0.9900041652780258"
    assert lines[-2] == "360,1.594549411184441e+300,4.174584555221999e+300,inf"
    assert lines[-1] == "370,inf,inf,"
    assert all(line.split(",")[3] for line in lines[3:-1])


def test_analyze_stops_newton_at_an_infinite_jacobian(tmp_path):
    # 2^(q^2) overflows for |q| above about 32: the singular-Jacobian branch
    # sees infinite entries, which lstsq (LAPACK) cannot take
    text = """\
[system]
class = newtonian
g = 2^(q*q) - 2

[run]
schemes = euler-b
tau = 0.5

[search]
q_min = -40
q_max = 40
p_min = -1.5
p_max = 1.5
grid = 16
"""
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, "-m", "symbound", "analyze", "--config",
         _write(tmp_path, text), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert "DLASCL" not in run.stdout + run.stderr
    csv = (out / "analyze_euler-b.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in csv if not row.startswith("#")][1:] == [
        ["0.0", "-1.0", "1"], ["0.0", "1.0", "2"]
    ]


def test_simulate_ends_an_orbit_that_leaves_the_domain(tmp_path):
    # euler-b steps q past -1, where sqrt(q + 1) has no real value
    text = """\
[system]
class = newtonian
g = 1 - sqrt(q + 1)

[run]
schemes = euler-b
tau = 3.5

[search]
p_min = -0.5
p_max = 0.5
q_min = -0.5
q_max = 0.5

[simulate]
n_max = 2000
offsets = 0.1, 0.0
"""
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, "-m", "symbound", "simulate", "--config",
         _write(tmp_path, text), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert "orbit_euler-b_t0_eq0_off0.csv: tau=3.5 " in run.stdout
    assert run.stdout.rstrip().endswith("-> LeftDomain")
    lines = (out / "orbit_euler-b_t0_eq0_off0.csv").read_text().splitlines()
    assert lines[0] == (
        "# verdict(heuristic) = left-domain step=2 reason=sqrt of a negative value"
    )


def test_errordemo_csv(tmp_path, capsys):
    text = """\
[error]
s = 1.0, -1.0, 1.0, 0.0
eta = 0.01, 0.0
y0 = 0.0, 0.0
steps = 0, 1, 6
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["errordemo", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "errordemo.csv").read_text().strip().splitlines()
    assert body[0] == "n,iter_p,iter_q,closed_p,closed_q,bounded"
    assert body[1] == "0,0.0,0.0,0.0,0.0,bounded"
    n6 = body[3].split(",")
    assert n6[0] == "6"
    assert abs(float(n6[1]) - float(n6[3])) <= 1e-12
    assert n6[5] == "bounded"


def test_errordemo_with_a_singular_resolvent_writes_nan_closed_forms(tmp_path):
    # S - I = [[0, 1], [0, 0]] has no inverse: no closed form, no verdict
    text = "[error]\ns = 1, 1, 0, 1\neta = 0.01, 0\ny0 = 0, 0\nsteps = 0, 5\n"
    cfg, out = _write(tmp_path, text), tmp_path / "out"
    assert main(["errordemo", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "errordemo.csv").read_text().splitlines()[1:] == [
        "0,0.0,0.0,nan,nan,singular-resolvent",
        "5,0.05,0.0,nan,nan,singular-resolvent",
    ]


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path)]) == 1
    assert "needs --config" in capsys.readouterr().err


def test_config_error_reports_file_and_line(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH + "bogus = 1\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "run.cfg:" in err


@pytest.mark.parametrize(
    "text, where, message",
    [
        (PENDULUM_NH + "[run]\n", ":15", "duplicate section [run]"),
        (PENDULUM_NH.replace("grid = 16", "grid 16"), ":14", "expected key = value"),
        (PENDULUM_NH.replace("class = newtonian\n", ""), "", "[system] needs a class key"),
        (None, "", "No such file or directory"),
    ],
    ids=["duplicate-section", "no-equals", "no-class", "no-file"],
)
def test_malformed_config_files_are_config_errors(tmp_path, capsys, text, where, message):
    cfg = _write(tmp_path, text) if text is not None else str(tmp_path / "absent.cfg")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}{where}: ") and message in err
    assert err.count(cfg) == 1  # the path is named once, also when it cannot be opened
    assert "Traceback" not in err


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[system]\nclass = newtonian\ng = -sin(q)\xff\n")
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and "0xff" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_out_that_cannot_be_created_is_an_error(tmp_path, capsys, sub):
    cfg = _write(tmp_path, PENDULUM_NH)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {str(out)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("blocked", ["effective.cfg", "analyze.txt"])
def test_an_output_that_cannot_be_written_is_one_error_line(tmp_path, capsys, blocked):
    cfg = _write(tmp_path, PENDULUM_NH)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    assert main(["analyze", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {str(out / blocked)!r}: {os.strerror(errno.EISDIR)}\n"
    assert (out / blocked).is_dir()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_expression_error_reports_file_and_offset(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH.replace("g = -sin(q)", "g = -zin(q)"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "run.cfg" in err and "zin" in err and "offset" in err


def test_an_overflowing_number_is_a_config_error(tmp_path, capsys):
    # read as inf, it would print back as a variable named inf
    cfg = _write(tmp_path, PENDULUM_NH.replace("g = -sin(q)", "g = -1e999*q + q^3"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"config error: {cfg}: bad system expression: "
        "number 1e999 overflows to infinity (at offset 1)\n"
    )


def test_non_differentiable_expression_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH.replace("g = -sin(q)", "g = abs(q) - 1"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: bad system expression: abs")


@pytest.mark.parametrize(
    "deep",
    ["(" * 2000 + "q" + ")" * 2000, "-" * 3000 + "q", " + ".join(["q"] * 3000)],
    ids=["parentheses", "unary-minus", "flat-sum"],
)
def test_too_deep_expression_is_a_config_error(tmp_path, capsys, deep):
    cfg = _write(tmp_path, PENDULUM_NH.replace("g = -sin(q)", f"g = {deep}"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: {cfg}: bad system expression: expression nested deeper than"
    )


@pytest.mark.parametrize(
    "g, search",
    [
        # (0, 0) is an exact root, where g' divides by sqrt(0)
        ("q*sqrt(q)", "q_min = 0.0\nq_max = 2.0\ngrid = 5"),
        # exp(900) saturates to inf, where math.sin raises ValueError
        ("sin(exp(q^2))", "q_min = -30.0\nq_max = 30.0"),
    ],
    ids=["jacobian-domain", "sin-of-inf"],
)
@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_equilibrium_search_outside_the_domain_ends_in_a_result(
    tmp_path, command, g, search
):
    text = (
        f"[system]\nclass = newtonian\ng = {g}\n\n[run]\nschemes = euler-b\n"
        "tau = 0.5\ntau_lo = 0.1\ntau_hi = 4.0\ntau_count = 5\n\n"
        f"[search]\np_min = -1.0\np_max = 1.0\n{search}\n"
    )
    cfg = _write(tmp_path, text)
    run = subprocess.run(
        [sys.executable, "-m", "symbound", command, "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert run.returncode in (0, 1)
    assert "Traceback" not in run.stderr


def test_orbit_outside_the_domain_ends_in_a_result(tmp_path):
    # the orbit reaches a q where exp(q^2) saturates to inf and math.sin
    # raises ValueError
    text = (
        "[system]\nclass = newtonian\ng = sin(exp(q^2)) - q\n\n"
        "[run]\nschemes = euler-b\ntau = 3.0\n\n"
        "[search]\np_min = -1.0\np_max = 1.0\nq_min = -1.0\nq_max = 1.0\n\n"
        "[simulate]\noffsets = 0.5, 0.0\n"
    )
    cfg = _write(tmp_path, text)
    run = subprocess.run(
        [sys.executable, "-m", "symbound", "simulate", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert "-> LeftDomain" in run.stdout
    (orbit,) = (tmp_path / "o").glob("orbit_*.csv")
    assert orbit.read_text().startswith(
        "# verdict(heuristic) = left-domain step=3 reason=math domain error\n"
    )


def test_report_without_equilibria_says_none_was_analysed(tmp_path, capsys):
    # find_equilibria skips the only root, (0, 0), where g' divides by sqrt(0)
    text = (
        "[system]\nclass = newtonian\ng = q*sqrt(q)\n\n"
        "[run]\nschemes = euler-b\ntau = 0.5\n\n"
        "[search]\np_min = -1.0\np_max = 1.0\nq_min = 0.0\nq_max = 2.0\ngrid = 5\n"
    )
    cfg = _write(tmp_path, text)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "scheme euler-b on newtonian g=q * sqrt(q)\n  no equilibrium analysed\n"
    )
    assert "tau_max = nan" not in out
    csv = (tmp_path / "o" / "analyze_euler-b.csv").read_text()
    assert csv.endswith("# overall_tau_max = nan\n" + CSV_HEADER + "\n")


def test_one_process_answers_each_call_like_a_fresh_one(tmp_path, capsys):
    # main builds its argument parser once; no call may leave state in it
    cfg = _write(tmp_path, HARMONIC_SWEEP)
    calls = [
        ["analyze", "--config", cfg, "--tau", "1"],
        ["analyze", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"],
        ["analyze", "--config", cfg, "--out", str(tmp_path / "b")],
        ["sweep", "--config", cfg, "--out", str(tmp_path / "c")],
    ]
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "symbound", *argv],
            capture_output=True,
            text=True,
            timeout=60.0,
        )
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


ROOT = Path(__file__).resolve().parents[1]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports symbound from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=60.0,
    )


def test_importing_the_cli_does_not_import_numpy():
    run = _fresh_python(
        "import sys, symbound, symbound.cli\nprint('numpy' in sys.modules)"
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


# the system of test_find_equilibria_takes_the_least_squares_step_bit_for_bit:
# grid seeds at cos(0.7012 q) = 0 meet exactly singular Jacobians
SINGULAR_SEEDS = """\
[system]
class = newtonian
g = -0.7095*sin(0.7012*q)

[run]
schemes = euler-b, implicit-midpoint
tau = 0.5

[search]
p_min = -1.0
p_max = 1.0
q_min = -6.720463463184098
q_max = 6.720463463184098
grid = 12

[simulate]
n_max = 200
escape_r = 1000.0
offsets = 0.001, 0.0
"""


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("analyze", "configs/pendulum.cfg"),
        ("errordemo", "configs/errordemo.cfg"),
        ("simulate", "tests/golden/general.cfg"),
        pytest.param("analyze", SINGULAR_SEEDS, id="analyze-singular-seeds"),
        pytest.param("simulate", SINGULAR_SEEDS, id="simulate-singular-seeds"),
    ],
)
def test_cli_commands_run_without_numpy(tmp_path, command, cfg):
    # none of these reaches verdict_grid or verify; the Newton search's
    # least-squares step at a singular Jacobian needs no numpy either
    if cfg == SINGULAR_SEEDS:
        cfg = _write(tmp_path, cfg)
    run = _fresh_python(
        "import sys\nfrom symbound.cli import main\n"
        f"code = main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}, '--quiet'])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "0 False\n", "")


def test_a_sweep_whose_traces_overflow_writes_nothing_to_stderr(tmp_path):
    # the yoshida2 saddle's s11 and s22 near 1e308: their sum overflows
    text = (ROOT / "configs" / "pendulum.cfg").read_text()
    for old, new in (("tau_lo = 0.1", "tau_lo = 1.5e154"),
                     ("tau_hi = 4.0", "tau_hi = 1.6e154"),
                     ("tau_count = 40", "tau_count = 2")):
        assert old in text
        text = text.replace(old, new)
    cfg = _write(tmp_path, text)
    run = _fresh_python(
        "from symbound.cli import main\n"
        f"raise SystemExit(main(['sweep', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--quiet']))"
    )
    assert (run.returncode, run.stderr) == (0, "")


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_verify_passes_and_lists_required_suites(capsys):
    assert main(["verify", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    for suite in (
        "det-s-sweep",
        "trace-rank-agreement",
        "closed-form-vs-iterate",
        "tau-max-vs-empirical",
    ):
        assert suite in out
    assert "0 failed" in out


def test_verify_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(
        "symbound.verify.run_all",
        lambda seed: [SuiteResult("synthetic", False, "forced failure")],
    )
    assert main(["verify"]) == 2
    assert "FAIL synthetic" in capsys.readouterr().out


def test_verify_seed_determinism_in_subprocess():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "symbound", "verify", "--seed", "42"],
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert b"seed=42" in runs[0]


def test_global_flags_before_subcommand(tmp_path):
    cfg = _write(tmp_path, HARMONIC_SWEEP)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet", "sweep"])
    assert code == 0
