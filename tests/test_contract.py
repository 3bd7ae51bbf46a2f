"""The input contract of the CLI: every config ends in a result (exit 0) or
in one typed error line (exit 1), never in a traceback.

Configs are drawn from a fixed menu of schemes and extreme reals, with
the expressions of each system class drawn as trees over a menu of terms,
and run in-process through cli.main on analyze, sweep and simulate.  The
runs are kept small (grid = 4, n_max at most 200, tau_count at most 5) so
the test stays a few seconds long.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symbound.cli import main

# the schemes that apply to each class; one of the others is drawn now and
# then as well
SCHEMES = {
    "general": ("implicit-midpoint",),
    "separable": ("euler-b", "yoshida2", "implicit-midpoint"),
    "newtonian": ("euler-b", "yoshida2", "stormer-verlet", "implicit-midpoint"),
}
# functions of one variable, formatted with p or q; the last overflows, so
# that now and then a system is a parse error
_TERMS = ("{0}^2/2", "-cos({0})", "sin({0})", "exp({0})", "log({0})", "sqrt({0})",
          "{0}^-1", "2^({0}*{0})", "1e999*{0}")
REALS = ("5e-324", "1e-300", "0.5", "2.0", "1e155", "1e300",
         "1.7976931348623157e308")


def _term(var: str, depth: int = 3):
    """A term of the menu, or two joined by + - * / or ^, to depth levels."""
    leaf = st.sampled_from(_TERMS).map(lambda e: e.format(var))
    if depth == 0:
        return leaf
    sub = _term(var, depth - 1)
    return leaf | st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
        "({0[0]}) {0[1]} ({0[2]})".format
    )


@st.composite
def _system(draw) -> tuple[str, str]:
    """(class, [system] lines)"""
    kind = draw(st.sampled_from(tuple(SCHEMES)))
    if kind == "newtonian":
        return kind, f"class = newtonian\ng = -({draw(_term('q'))})"
    t, v = draw(_term("p")), draw(_term("q"))
    if kind == "separable":
        return kind, f"class = separable\nt = {t}\nv = {v}"
    op = draw(st.sampled_from(("+", "*")))
    return kind, f"class = general\nh = ({t}) {op} ({v})"


@st.composite
def configs(draw) -> str:
    real = st.sampled_from(REALS)
    kind, system = draw(_system())
    menu = st.sampled_from(SCHEMES[kind]) | st.sampled_from(SCHEMES["newtonian"])
    schemes = draw(st.lists(menu, min_size=1, max_size=2, unique=True))
    lo, hi = sorted(draw(st.lists(real, min_size=2, max_size=2)), key=float)
    taus = draw(st.lists(real, min_size=1, max_size=2))
    return "\n".join([
        "[system]",
        system,
        "[run]",
        f"schemes = {', '.join(schemes)}",
        f"tau = {', '.join(taus)}",
        f"tau_lo = {lo}",
        f"tau_hi = {hi}",
        f"tau_count = {draw(st.integers(1, 5))}",
        f"tau_scale = {draw(st.sampled_from(('linear', 'log')))}",
        f"empirical_tau_hi = {draw(st.sampled_from(('10.0', '1e-299', '1e300')))}",
        "[search]",
        "grid = 4",
        f"p_max = {draw(real)}",
        f"q_max = {draw(real)}",
        "[simulate]",
        f"n_max = {draw(st.integers(1, 200))}",
        f"escape_r = {draw(st.sampled_from(REALS + ('inf',)))}",
        f"offsets = {draw(real)}, 0.0",
        "",
    ])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("analyze", "sweep", "simulate")), configs())
def test_every_config_ends_in_a_result_or_one_error_line(tmp_path, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code in (0, 1), text
    assert "Traceback" not in err.getvalue(), text
    if code == 1:
        assert err.getvalue().count("\n") == 1, (text, err.getvalue())
