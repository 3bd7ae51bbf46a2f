import subprocess
import sys
from pathlib import Path

import pytest

from symbound.analyzer import check_preservation, fmt_float
from symbound.cli import main
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
    "system, schemes, kind",
    [
        # free particle: A = [[0, 0], [1, 0]] at every point, case 3
        ("class = newtonian\ng = 0", "euler-b, yoshida2, stormer-verlet, "
         "implicit-midpoint", EquilibriumKind.RANK1_DEGENERATE),
        # H = 0: A = 0, case 4
        ("class = separable\nt = 0\nv = 0", "euler-b, yoshida2, implicit-midpoint",
         EquilibriumKind.RANK0_ZERO),
    ],
)
def test_degenerate_sweep_rows_equal_the_scalar_path(tmp_path, system, schemes, kind):
    text = (
        f"[system]\n{system}\n\n[run]\nschemes = {schemes}\n"
        "tau_lo = 0.001\ntau_hi = 1000.0\ntau_count = 61\ntau_scale = log\n\n"
        "[search]\ngrid = 4\n"
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
    taus = cfg.sweep.taus()
    for name in cfg.schemes:
        scheme = scheme_from_name(name)
        for j, eq in enumerate(eqs):
            assert eq.kind is kind
            lines = (out / f"sweep_{name}_eq{j}.csv").read_text().splitlines()
            assert lines[4:4 + len(taus)] == _scalar_sweep_rows(scheme, eq.a, taus)
            assert lines[4 + len(taus):] == [
                "# transition (bisection-refined)",
                "inf,nan,true",
            ]


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


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path)]) == 1
    assert "needs --config" in capsys.readouterr().err


def test_config_error_reports_file_and_line(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH + "bogus = 1\n")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "run.cfg:" in err


def test_expression_error_reports_file_and_offset(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH.replace("g = -sin(q)", "g = -zin(q)"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "run.cfg" in err and "zin" in err and "offset" in err


def test_non_differentiable_expression_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, PENDULUM_NH.replace("g = -sin(q)", "g = abs(q) - 1"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: bad system expression: abs")


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
    import symbound.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.verify_mod,
        "run_all",
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
