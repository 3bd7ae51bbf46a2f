"""The behaviour contract: CLI outputs on configs/ stay byte-identical.

``analyze`` and ``sweep`` run on configs/pendulum.cfg and ``errordemo`` on
configs/errordemo.cfg; each command's stdout and every file it writes must
equal, byte for byte, tests/golden/<command>.stdout and the files under
tests/golden/<command>/.  ``simulate`` runs on tests/golden/simulate.cfg,
configs/pendulum.cfg with a shorter horizon (the full one takes about
16 s), and ``verify --seed 42`` writes stdout only.  Those configs are all
newtonian, so tests/golden/separable.cfg and tests/golden/general.cfg pin
the other two system classes: ``analyze``, ``sweep`` and ``simulate`` on
each, against tests/golden/<class>/.  An intended output change
regenerates the golden files with the same commands and says so in
CHANGES.md.
"""

import os
from pathlib import Path

import pytest

from symbound.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _assert_matches_golden(tmp_path, capsys, command, config_path, golden=GOLDEN):
    out = tmp_path / command
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (golden / f"{command}.stdout").read_text()
    want = golden / command
    assert sorted(os.listdir(out)) == sorted(os.listdir(want))
    for path in want.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize(
    "command, config",
    [
        ("analyze", "pendulum.cfg"),
        ("sweep", "pendulum.cfg"),
        ("errordemo", "errordemo.cfg"),
    ],
)
def test_outputs_on_configs_match_the_golden_files(tmp_path, capsys, command, config):
    _assert_matches_golden(tmp_path, capsys, command, ROOT / "configs" / config)


def test_simulate_outputs_match_the_golden_files(tmp_path, capsys):
    _assert_matches_golden(tmp_path, capsys, "simulate", GOLDEN / "simulate.cfg")


@pytest.mark.parametrize("command", ["analyze", "sweep", "simulate"])
@pytest.mark.parametrize("system_class", ["separable", "general"])
def test_other_system_classes_match_the_golden_files(
    tmp_path, capsys, system_class, command
):
    _assert_matches_golden(
        tmp_path,
        capsys,
        command,
        GOLDEN / f"{system_class}.cfg",
        GOLDEN / system_class,
    )


def test_verify_seed_42_matches_the_golden_stdout(capsys):
    assert main(["verify", "--seed", "42"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify.stdout").read_text()
