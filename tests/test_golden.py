"""The behaviour contract: CLI outputs on configs/ stay byte-identical.

``analyze`` and ``sweep`` run on configs/pendulum.cfg and ``errordemo`` on
configs/errordemo.cfg; each command's stdout and every file it writes must
equal, byte for byte, tests/golden/<command>.stdout and the files under
tests/golden/<command>/.  ``simulate`` is left out: on configs/pendulum.cfg
it takes about 16 s.  An intended output change regenerates the golden
files with the same commands and says so in CHANGES.md.
"""

import os
from pathlib import Path

import pytest

from symbound.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize(
    "command, config",
    [
        ("analyze", "pendulum.cfg"),
        ("sweep", "pendulum.cfg"),
        ("errordemo", "errordemo.cfg"),
    ],
)
def test_outputs_on_configs_match_the_golden_files(tmp_path, capsys, command, config):
    out = tmp_path / command
    config_path = str(ROOT / "configs" / config)
    assert main([command, "--config", config_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{command}.stdout").read_text()
    want = GOLDEN / command
    assert sorted(os.listdir(out)) == sorted(os.listdir(want))
    for path in want.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
