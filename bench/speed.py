"""The machine's current speed, measured with a fixed reference.

On a shared host the same Python code runs up to 1.7x slower in some
phases than in others, phases that last seconds to minutes, and a small
atomic file write takes anywhere from 0.3 to 1.1 ms.  Timing ops alone then
measures the phase a run fell in: in two sets of ten 10-second analyze
runs of the same program, the middle half of the measured throughput
spread by 20% and 27% of its median, and the op median by 27% and 33%.

So after every op the benchmark runs a fixed reference, a tenth the size of
the op: reference_loop() for a tenth of the op's time, and one
reference_write() for every ten files the op wrote.  Neither touches
symbound.  The run's op times are then scaled by how fast the reference ran
over the run:

    scaled = measured * (reference time at nominal speed) / (reference time)

The nominal times REF_LOOP_S and REF_WRITE_S are typical of the machine
the figures in README.md come from, so a scaled time reads as the time the
op would take there.  A change that makes symbound slower or faster moves
the scaled times just as it moves the measured ones; a phase of the
machine moves both the ops and the reference, and cancels.
"""

import math
import os
import time
from pathlib import Path

REF_LOOP_S = 0.75e-3  # mean reference_loop() on a 2-core Xeon, Python 3.11
REF_WRITE_S = 1.0e-3  # median reference_write() there, on ext4; a few stall 10-20 ms
SHARE = 0.1  # the reference's size relative to the op's

_WEIGHTS = {0: 0.25, 1: -0.5, 2: 0.125, 3: 1.0}
_ROW = "0.123456789,1.23456789e-05,-0.98765432,true\n"


def _dot(a: float, b: float, x: float, y: float) -> float:
    return a * x + b * y


def reference_loop() -> float:
    """Fixed interpreter work of the kind symbound does, about 1 ms.

    Calls with float arguments, float arithmetic, math functions, dict
    lookups and float formatting.  It allocates no object that the garbage
    collector tracks, so it neither triggers nor shifts a collection of
    symbound's objects.
    """
    s, c = math.sin(0.3), math.cos(0.3)
    x, y, acc, text = 1.0, 0.0, 0.0, ""
    for i in range(1000):
        x, y = _dot(c, -s, x, y), _dot(s, c, x, y)
        acc += math.sqrt(x * x + y * y) + math.atan2(y, x) * _WEIGHTS[i & 3]
        if i & 15 == 0:
            text = f"{x!r},{acc:.17g}"
    return acc + len(text)


def reference_write(directory: Path) -> None:
    """A 2 KB text file written the way symbound's CLI writes its outputs:
    to a temporary name, then renamed over the previous copy."""
    tmp = directory / "reference.csv.tmp"
    tmp.write_text(_ROW * 48, encoding="utf-8")
    os.replace(tmp, directory / "reference.csv")


class Speedometer:
    """The reference run after each op of a run, and the scale it gives."""

    def __init__(self, directory: Path):
        self._dir = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._writes_owed = 0.0
        self.loops = self.writes = 0
        self.loop_s = self.write_s = 0.0  # measured

    def sample(self, op_s: float, op_files: int) -> None:
        """Run the reference after an op of ``op_s`` that wrote ``op_files``."""
        loops = max(1, round(SHARE * op_s / REF_LOOP_S))
        self._writes_owed += SHARE * op_files
        writes = int(self._writes_owed)
        self._writes_owed -= writes
        t0 = time.perf_counter()
        for _ in range(loops):
            reference_loop()
        t1 = time.perf_counter()
        for _ in range(writes):
            reference_write(self._dir)
        self.loop_s += t1 - t0
        self.write_s += time.perf_counter() - t1
        self.loops += loops
        self.writes += writes

    def scale(self) -> float:
        """Nominal over measured reference time: below 1 in a slow phase."""
        nominal = self.loops * REF_LOOP_S + self.writes * REF_WRITE_S
        return nominal / (self.loop_s + self.write_s)
