import math
import re

import pytest

from symbound import config
from symbound.config import (
    ConfigError,
    RunConfig,
    parse_config,
    serialize_config,
)

PENDULUM = """\
[system]
class = separable
t = p^2/2
v = -cos(q)

[run]
schemes = euler-b, yoshida2
tau = 0.5, 1.9, 2.1
"""


def test_parse_minimal_config():
    cfg = parse_config(PENDULUM)
    assert cfg.system.class_tag == "separable"
    assert cfg.system.exprs == {"t": "p^2/2", "v": "-cos(q)"}
    assert cfg.schemes == ["euler-b", "yoshida2"]
    assert cfg.taus == [0.5, 1.9, 2.1]
    assert cfg.sweep is None
    # defaults fill in
    assert cfg.search.grid == 32 and cfg.search.p_min == -5.0
    assert cfg.sim.n_max == 100_000 and cfg.sim.offsets == [1e-3, 0.0]


def test_system_builds():
    sys = parse_config(PENDULUM).system.build()
    assert sys.kind.value == "separable"


def test_round_trip_is_exact():
    cfg = parse_config(PENDULUM)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_round_trip_with_all_sections():
    text = """\
[system]
class = newtonian
g = -sin(q)

[run]
schemes = stormer-verlet
tau_lo = 0.1
tau_hi = 4.0
tau_count = 40
tau_scale = linear
empirical_tau_hi = 8.0
bisect_tol = 1e-07

[search]
grid = 16

[simulate]
n_max = 1000
offsets = 0.001, 0.0, 0.0, 0.001

[error]
s = 1.0, -1.0, 1.0, 0.0
eta = 0.01, 0.0
y0 = 0.0, 0.0
steps = 1, 10, 100
"""
    cfg = parse_config(text)
    assert cfg.sweep.count == 40 and cfg.sweep.scale == "linear"
    assert cfg.sweep.taus()[0] == 0.1 and cfg.sweep.taus()[-1] == 4.0
    assert cfg.sim.offset_pairs() == [(0.001, 0.0), (0.0, 0.001)]
    assert cfg.error.steps == [1, 10, 100]
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_unknown_key_is_an_error_with_line():
    bad = PENDULUM + "typo_key = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad, path="demo.cfg")
    assert "typo_key" in str(err.value)
    assert "demo.cfg:9" in str(err.value)


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError):
        parse_config("[run]\ntau = 1\ntau = 2\n")


def test_key_outside_section_is_an_error():
    with pytest.raises(ConfigError):
        parse_config("tau = 1\n")


def test_bad_values_are_reported():
    with pytest.raises(ConfigError):
        parse_config("[run]\ntau = fast\n")
    with pytest.raises(ConfigError):
        parse_config("[search]\ngrid = many\n")


def test_system_class_validation():
    with pytest.raises(ConfigError):
        parse_config("[system]\nclass = polar\nh = p\n")
    with pytest.raises(ConfigError):
        parse_config("[system]\nclass = separable\nt = p^2/2\n")  # missing v
    with pytest.raises(ConfigError):
        parse_config("[system]\nclass = newtonian\ng = -q\nh = p*q\n")  # stray h


def test_sweep_validation():
    with pytest.raises(ConfigError):
        parse_config("[run]\ntau_lo = 0.1\ntau_hi = 4.0\n")  # missing count
    with pytest.raises(ConfigError):
        parse_config(
            "[run]\ntau_lo = 4.0\ntau_hi = 0.1\ntau_count = 5\n"
        )  # inverted range
    with pytest.raises(ConfigError):
        parse_config(
            "[run]\ntau_lo = 0.1\ntau_hi = 4.0\ntau_count = 5\ntau_scale = cubic\n"
        )


@pytest.mark.parametrize(
    "run_lines, missing, lineno",
    [
        ("tau_scale = log", "['tau_count', 'tau_hi', 'tau_lo']", 3),
        ("tau_hi = 4.0\ntau_scale = log\ntau_lo = 0.1", "['tau_count']", 3),
    ],
)
def test_a_partial_sweep_grid_names_its_missing_keys(run_lines, missing, lineno):
    # tau_scale without the grid would otherwise parse to no sweep and be
    # dropped from effective.cfg
    with pytest.raises(ConfigError) as info:
        parse_config(f"# grid\n[run]\n{run_lines}\n", "grid.cfg")
    assert str(info.value) == f"grid.cfg:{lineno}: sweep grid is missing keys {missing}"


@pytest.mark.parametrize(
    "run_lines, key, lineno",
    [
        ("tau = 0.5, inf", "tau", 3),
        ("tau_lo = nan\ntau_hi = 4.0\ntau_count = 5", "tau_lo", 3),
        ("tau_lo = 0.1\ntau_hi = inf\ntau_count = 5", "tau_hi", 4),
        ("empirical_tau_hi = -inf", "empirical_tau_hi", 3),
    ],
)
def test_non_finite_step_sizes_rejected_with_file_and_line(run_lines, key, lineno):
    with pytest.raises(ConfigError) as info:
        parse_config(f"# steps\n[run]\n{run_lines}\n", "steps.cfg")
    assert str(info.value).startswith(f"steps.cfg:{lineno}: {key} must be finite")


@pytest.mark.parametrize("value", ["0", "-2.5", "1e308"])
def test_empirical_tau_hi_outside_the_bracket_range_rejected(value):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[run]\nempirical_tau_hi = {value}\n", "steps.cfg")
    assert str(info.value).startswith(
        "steps.cfg:2: empirical_tau_hi must be positive and at most 1e+300"
    )


_ERROR_SECTION = "[error]\ns = 1, 0, 0, 1\neta = 0, 0\ny0 = 0, 0\nsteps = 1\n"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("[search]\ngrid = 2\n", 2, "grid must be at least 4, got '2'"),
        ("[search]\np_min = abc\n", 2, "p_min must be a real number, got 'abc'"),
        ("[search]\ngrid = 4.5\n", 2, "grid must be an integer, got '4.5'"),
        ("[simulate]\noffsets = 0.1, x\n", 2,
         "offsets must be a list of reals, got '0.1, x'"),
        (_ERROR_SECTION.replace("steps = 1", "steps = 1, two"), 5,
         "steps must be a list of integers, got '1, two'"),
        ("[search]\nq_max = inf\n", 2, "q_max must be finite"),
        ("[search]\nq_max = -6\n", 2, "q_max must be such that q_min < q_max"),
        ("[search]\np_min = 5\n", 2, "p_min must be such that p_min < p_max"),
        ("[simulate]\nn_max = 0\n", 2, "n_max must be at least 1, got '0'"),
        ("[simulate]\nstride = -1\n", 2, "stride must be non-negative"),
        ("[run]\ntau = 0.5, -0.5\n", 2, "tau must be positive, got '0.5, -0.5'"),
        ("[run]\ntau = 0\n", 2, "tau must be positive"),
        (_ERROR_SECTION.replace("steps = 1", "steps = -1, 5"), 5,
         "steps must be non-negative, got '-1, 5'"),
        (_ERROR_SECTION.replace("s = 1, 0, 0, 1", "s = 2, 0, 0, 2"), 2,
         "s must be unimodular (propagation matrix has det 4.0, not 1)"),
        (_ERROR_SECTION.replace("eta = 0, 0", "eta = nan, 0"), 3, "eta must be finite"),
        ("[simulate]\nescape_r = nan\n", 2, "escape_r must be positive, got 'nan'"),
        ("[simulate]\nescape_r = 0\n", 2, "escape_r must be positive"),
        ("[simulate]\noffsets = nan, 0.0\n", 2, "offsets must be finite"),
        ("[simulate]\noffsets = 0.1, 0, 0, -inf\n", 2, "offsets must be finite"),
        # the bisection's scan would start at an underflowed tau_hi * 1e-8
        ("[run]\nempirical_tau_hi = 1e-320\n", 2,
         "empirical_tau_hi must be at least 1e-299, got '1e-320'"),
        ("[run]\nempirical_tau_hi = 9e-300\n", 2,
         "empirical_tau_hi must be at least 1e-299, got '9e-300'"),
        # a NaN tolerance ends the bisection at once, at the scan bracket's midpoint
        ("[run]\nbisect_tol = nan\n", 2, "bisect_tol must be finite, got 'nan'"),
        ("[run]\nbisect_tol = -1e-6\n", 2,
         "bisect_tol must be non-negative, got '-1e-6'"),
        # no Newton residual is below a NaN or zero tolerance
        ("[search]\ntol = nan\n", 2, "tol must be finite, got 'nan'"),
        ("[search]\ntol = 0\n", 2, "tol must be positive, got '0'"),
    ],
)
def test_out_of_range_values_rejected_with_file_and_line(text, lineno, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text, "range.cfg")
    assert str(info.value).startswith(f"range.cfg:{lineno}: {message}")


def test_boundary_values_are_accepted():
    cfg = parse_config(
        "[run]\nempirical_tau_hi = 1e-299\nbisect_tol = 0\n"
        "[search]\ngrid = 4\n[simulate]\nn_max = 1\nstride = 0\n"
        + _ERROR_SECTION.replace("steps = 1", "steps = 0")
    )
    assert (cfg.search.grid, cfg.sim.n_max, cfg.error.steps) == (4, 1, [0])
    assert (cfg.empirical_tau_hi, cfg.bisect_tol) == (1e-299, 0.0)


def test_odd_offsets_rejected():
    with pytest.raises(ConfigError):
        parse_config("[simulate]\noffsets = 0.1, 0.2, 0.3\n")


def test_error_section_validation():
    with pytest.raises(ConfigError):
        parse_config("[error]\ns = 1, 0, 0, 1\neta = 0, 0\ny0 = 0, 0\n")  # no steps
    with pytest.raises(ConfigError):
        parse_config("[error]\ns = 1, 0\neta = 0, 0\ny0 = 0, 0\nsteps = 1\n")


def test_log_sweep_grid():
    cfg = parse_config("[run]\ntau_lo = 0.1\ntau_hi = 10.0\ntau_count = 3\ntau_scale = log\n")
    taus = cfg.sweep.taus()
    assert taus[0] == pytest.approx(0.1)
    assert taus[1] == pytest.approx(1.0)
    assert taus[2] == pytest.approx(10.0)


@pytest.mark.parametrize(
    "grid",
    [
        "tau_lo = 1e-8\ntau_hi = 1.7976931348623157e308\ntau_count = 5",
        "tau_lo = 1e-300\ntau_hi = 1e300\ntau_count = 5\ntau_scale = log",
    ],
    ids=["linear", "log"],
)
def test_a_sweep_grid_with_an_overflowing_point_is_rejected_at_tau_hi(grid):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[run]\n{grid}\n", "grid.cfg")
    assert str(info.value).startswith(
        "grid.cfg:3: tau_hi must be such that every sweep grid point is finite"
    )


@pytest.mark.parametrize(
    "grid",
    [
        "tau_lo = 1e-300\ntau_hi = 1e300\ntau_count = 2\ntau_scale = log",
        "tau_lo = 1e-8\ntau_hi = 1.7976931348623157e308\ntau_count = 2",
        "tau_lo = 1e-8\ntau_hi = 8.98846567431158e307\ntau_count = 3",
        "tau_lo = 1e-300\ntau_hi = 1e8\ntau_count = 2000\ntau_scale = log",
    ],
)
def test_a_sweep_grid_of_finite_points_is_accepted(grid):
    # the pinned ends are kept as given: a ratio or span that overflows
    # between them is no point of the grid
    taus = parse_config(f"[run]\n{grid}\n").sweep.taus()
    assert all(map(math.isfinite, taus))


@pytest.mark.parametrize(
    "box",
    [
        "p_min = -1e308\np_max = 1e308",  # the width overflows
        "p_max = 1e308\nq_max = 1e308",  # width plus height overflows
    ],
)
def test_a_search_box_whose_size_overflows_is_rejected(box):
    # find_equilibria would raise ValueError("degenerate search box")
    with pytest.raises(ConfigError) as info:
        parse_config(f"[search]\n{box}\n", "box.cfg")
    assert str(info.value) == "box.cfg: search box width plus height must be finite"


def test_a_one_point_sweep_grid_is_its_lower_end():
    cfg = parse_config("[run]\ntau_lo = 0.5\ntau_hi = 2.0\ntau_count = 1\n")
    assert cfg.sweep.taus() == [0.5]
    assert parse_config(serialize_config(cfg)) == cfg


def test_default_config_serializes():
    text = serialize_config(RunConfig())
    cfg = parse_config(text)
    assert cfg == RunConfig()


# one valid, non-default value for every key of the key table
_SAMPLES = {
    ("run", "schemes"): "stormer-verlet, implicit-midpoint",
    ("run", "tau"): "0.25, 3.0",
    ("run", "tau_lo"): "0.05",
    ("run", "tau_hi"): "2.5",
    ("run", "tau_count"): "7",
    ("run", "tau_scale"): "log",
    ("run", "empirical_tau_hi"): "12.5",
    ("run", "bisect_tol"): "1e-08",
    ("search", "p_min"): "-1.5",
    ("search", "p_max"): "2.0",
    ("search", "q_min"): "-3.0",
    ("search", "q_max"): "3.5",
    ("search", "grid"): "9",
    ("search", "tol"): "1e-12",
    ("simulate", "n_max"): "500",
    ("simulate", "escape_r"): "10000.0",
    ("simulate", "stride"): "5",
    ("simulate", "offsets"): "0.002, -0.001, 0.0, 0.003",
    ("error", "s"): "1.0, 0.5, 0.0, 1.0",
    ("error", "eta"): "0.01, -0.02",
    ("error", "y0"): "0.1, 0.2",
    ("error", "steps"): "0, 3, 50",
}


def test_every_key_round_trips():
    assert set(_SAMPLES) == {(section, key) for section, key, *_ in config._KEYS}
    sections = {}
    for (section, key), value in _SAMPLES.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "[system]\nclass = newtonian\ng = -sin(q)\n" + "".join(
        f"[{section}]\n" + "".join(lines) for section, lines in sections.items()
    )
    cfg = parse_config(text)
    default = RunConfig()
    for section, key, attr, *_ in config._KEYS:
        owner, _, name = attr.rpartition(".")
        spec = getattr(default, owner) if owner else default
        if spec is not None:  # the sweep grid and [error] have no defaults
            got = getattr(getattr(cfg, owner) if owner else cfg, name)
            assert got != getattr(spec, name), key
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)
    for keys in config._SECTIONS.values():
        for key in keys:
            assert re.search(rf"(?<![\w']){key}(?![\w'])", config.__doc__), key
