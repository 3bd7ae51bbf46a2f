"""Real 2x2 matrices with the exact closed-form queries the analysis needs.

Hand-rolled on purpose: the linearizations and propagators in this package
are 2x2 and their determinant/trace identities carry the whole argument, so
the arithmetic stays explicit instead of going through an array library.

``Mat2`` is an immutable named tuple of its entries in row-major order, so
hot loops can unpack ``a11, a12, a21, a22 = m`` once instead of going
through attribute and property lookups.  Scalar multiples go through
``scale`` and sums are spelled out entry by entry: ``+`` and ``*`` raise
TypeError, where the tuple would silently concatenate or repeat.
"""

import math
import string
from typing import NamedTuple

from . import expr as ex

Vec2 = tuple[float, float]

# the relative tolerance of every 2x2 decision: trace, det, rank, |tr S| = 2
DECISION_TOL = 1e-9


class Mat2(NamedTuple):
    a11: float
    a12: float
    a21: float
    a22: float

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(0.0, 0.0, 0.0, 0.0)

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 - other.a11,
            self.a12 - other.a12,
            self.a21 - other.a21,
            self.a22 - other.a22,
        )

    def __add__(self, other):
        raise TypeError("Mat2 has no +: add the entries one by one")

    def __mul__(self, other):
        raise TypeError("Mat2 has no *: use scale(k), or @ for a product")

    __radd__, __rmul__ = __add__, __mul__

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scale(self, s: float) -> "Mat2":
        return Mat2(s * self.a11, s * self.a12, s * self.a21, s * self.a22)

    def apply(self, v: Vec2) -> Vec2:
        return (
            self.a11 * v[0] + self.a12 * v[1],
            self.a21 * v[0] + self.a22 * v[1],
        )

    def transpose(self) -> "Mat2":
        return Mat2(self.a11, self.a21, self.a12, self.a22)

    def power(self, n: int) -> "Mat2":
        """n-th matrix power by binary exponentiation, n >= 0."""
        if n < 0:
            raise ValueError("negative power")
        result = Mat2.identity()
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def solve(self, b: Vec2) -> Vec2:
        """Solve self @ x = b by Cramer's rule."""
        d = self.det
        if d == 0.0:
            raise ZeroDivisionError("singular 2x2 matrix")
        return (
            (b[0] * self.a22 - self.a12 * b[1]) / d,
            (self.a11 * b[1] - b[0] * self.a21) / d,
        )

    @property
    def max_norm(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))

    @property
    def frobenius_sq(self) -> float:
        return (
            self.a11 * self.a11
            + self.a12 * self.a12
            + self.a21 * self.a21
            + self.a22 * self.a22
        )


# det S and whether it is off 1 by more than $tol * (1 + |S|_F^2), from the
# locals s11, s12, s21, s22, spelled out in Mat2.det and frobenius_sq's
# operation order.  unimodularity_lost(s11, s12, s21, s22, tol) -> (det,
# lost) runs it on floats or on ndarrays of entries, and the guard of every
# generated propagator (schemes.guarded_s_body) inlines it
UNIMODULARITY = string.Template("""\
det = s11 * s22 - s12 * s21
lost = abs(det - 1.0) > $tol * (
    1.0 + (s11 * s11 + s12 * s12 + s21 * s21 + s22 * s22)
)""")

unimodularity_lost = ex.define(
    "def unimodularity_lost(s11, s12, s21, s22, tol):\n"
    f"{ex.indent(UNIMODULARITY.substitute(tol='tol'), 1)}\n"
    "    return det, lost",
    "unimodularity_lost", (),
)


def eigenvector(m: Mat2, lam: float) -> Vec2:
    """An unnormalized eigenvector of m for its real eigenvalue lam: of the
    two vectors orthogonal to a row of m - lam I, the longer one."""
    u = (m.a12, lam - m.a11)
    v = (lam - m.a22, m.a21)
    return u if math.hypot(*u) >= math.hypot(*v) else v


def normalized(v: Vec2) -> Vec2:
    """Unit vector with a deterministic sign: first significant component positive."""
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    u = (v[0] / n, v[1] / n)
    lead = u[0] if abs(u[0]) > 1e-12 else u[1]
    if lead < 0.0:
        u = (-u[0], -u[1])
    return u
