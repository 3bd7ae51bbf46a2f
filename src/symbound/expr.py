"""Symbolic scalar expressions with exact differentiation.

Nodes: Const, Var, Neg (unary minus), Binary (an operator of _BINARY by
its token) and Func (a function of _FUNCS by its name).

Grammar: _BINARY's prec and right columns.  An operator binds tighter
than one of a lower prec; a row whose right operand may be of lower prec
than itself (^, whose exponent may be negated) is right-associative, and
the others are left-associative.  Unary minus binds below ^ and above
* and /; an atom is a finite number, a name, name(expr) or (expr).

Known functions: sin cos tan exp log sqrt sinh cosh tanh abs.

Two tables define the language: _BINARY, one row per binary operator (its
precedences, how to_string prints it, the source emit writes for it and
the value simplify folds it to), and _FUNCS, one row per function (its
guarded value, its derivative rule, its image of an interval, which
enclose uses, and for sinh and cosh the math function emit inlines).

compile_expr evaluates in IEEE double precision with real-valued
semantics: log and sqrt of non-positive/negative arguments, division by
zero, zero to a negative power and a negative base to a fractional or
non-finite power raise DomainError instead of producing NaN or complex
values.  Overflow saturates to inf, and arithmetic on the saturated
infinities follows IEEE as well: inf - inf is NaN, so g = exp(q) - exp(q)
at q = 1000 evaluates to NaN, not to 0 and not to a DomainError.  define is
the package's one path from generated source to code.

emit inlines a guarded kernel of a variable v where its guards cannot
fire, and keeps the guarded call for every other value, NaN and the
infinities included, so each value and each DomainError stays the guarded
call's.  v^k with a constant integer k >= 1 is v ** k inside
|v| < 2.0 ** (1023 // k), where |v|^k < 2^1023 cannot overflow and _pow
would return v ** k itself; sinh and cosh of v call the math function
inside |v| < 709.0, below where either overflows.

Trees are immutable and every operation here is pure, so expressions can
be shared freely across threads.
"""

import functools
import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifier(ParseError):
    pass


class UnbalancedParens(ParseError):
    pass


class UnexpectedToken(ParseError):
    pass


class UnboundVariable(ExprError):
    pass


class DomainError(ExprError):
    pass


class NonDifferentiableNode(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Expr:
    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # the operator's token, its key in _BINARY
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr


# ---------------------------------------------------------------------------
# Guarded numeric kernels, shared by compiled code and constant folding so
# both produce bit-identical results.

def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise DomainError("zero raised to a negative power")
    if a < 0.0:
        # b * 0.0 is 0.0 for finite b; math.floor raises on an infinity or a NaN
        if not b * 0.0 == 0.0:
            raise DomainError("negative base raised to a non-finite power")
        if b != math.floor(b):
            raise DomainError("negative base raised to a fractional power")
    try:
        return a ** b
    except OverflowError:
        if a < 0.0 and int(b) % 2 != 0:
            return -math.inf
        return math.inf


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _log(x: float) -> float:
    if x <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError("sqrt of a negative value")
    return math.sqrt(x)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sinh(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _cosh(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# The two tables.  to_string prints a node bare where its precedence is at
# least the one its context asks for, and in parentheses otherwise; parse
# reads the right operand of a binary operator at its row's right
# precedence, the one to_string prints it bare at.

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class _Binary(NamedTuple):
    text: str  # the operator to_string prints between the operands
    prec: int  # the node's own precedence
    left: int  # the least precedence each operand prints bare at
    right: int
    source: str  # what emit writes, formatted with the operands' sources
    value: Callable[[float, float], float]  # what simplify folds constants by


_BINARY = {
    "+": _Binary(" + ", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1, "({} + {})", operator.add),
    "-": _Binary(" - ", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1, "({} - {})", operator.sub),
    "*": _Binary(" * ", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1, "({} * {})", operator.mul),
    "/": _Binary(" / ", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1, "_div({}, {})", _div),
    "^": _Binary("^", _PREC_POW, _PREC_ATOM, _PREC_NEG, "_pow({}, {})", _pow),
}


class _Function(NamedTuple):
    value: Callable[[float], float]  # the guarded kernel, emitted as _f_<name>
    derivative: Callable[[Expr, Expr], Expr] | None  # (u, du) -> d f(u), if any
    # (lo, hi) -> the least and the greatest value over [lo, hi], before
    # enclose moves them outwards; DomainError where there is none
    image: Callable[[float, float], tuple[float, float]]
    # the math function value guards, if any: emitted as _m_<name> and
    # called inline on a variable inside (-_INLINE_BOUND, _INLINE_BOUND)
    inline: Callable[[float], float] | None = None


# sinh and cosh overflow past acosh(2 ** 1024) = 710.47...; inside
# (-709.0, 709.0) math.sinh and math.cosh return a finite value, the one
# their guarded kernels return
_INLINE_BOUND = 709.0


def _increasing(f):
    return lambda lo, hi: (f(lo), f(hi))


def _even(f):
    """The image of an even f that grows with |x|."""
    def image(lo, hi):
        ends = f(lo), f(hi)
        return (f(0.0) if lo <= 0.0 <= hi else min(ends)), max(ends)
    return image


def _multiples(lo, hi, shift):
    """The k with shift + k pi in [lo, hi], with slack for the rounding of
    both, so that a near miss counts as inside; None where the interval
    spans 2 pi or more."""
    slack = 1e-9 * (1.0 + abs(lo) + abs(hi))
    if not hi - lo + 2.0 * slack < 2.0 * math.pi:
        return None
    k = math.ceil((lo - slack - shift) / math.pi)
    ks = []
    while k * math.pi + shift <= hi + slack:
        ks.append(k)
        k += 1
    return ks


def _wave(f, shift):
    """The image of f = cos(x - shift): the values at the ends, widened to
    1 at shift + k pi for even k and to -1 for odd k inside the interval."""
    def image(lo, hi):
        ks = _multiples(lo, hi, shift)
        if ks is None:
            return -1.0, 1.0
        ends = f(lo), f(hi)
        low, high = min(ends), max(ends)
        for k in ks:
            low, high = (-1.0, high) if k % 2 else (low, 1.0)
        return low, high
    return image


def _tan_image(lo, hi):
    if _multiples(lo, hi, 0.5 * math.pi) != []:
        raise DomainError("tan has a pole in the interval")
    return math.tan(lo), math.tan(hi)


_FUNCS = {
    "sin": _Function(math.sin, lambda u, du: Binary("*", Func("cos", u), du),
                     _wave(math.sin, 0.5 * math.pi)),
    "cos": _Function(math.cos, lambda u, du: Binary("*", Neg(Func("sin", u)), du),
                     _wave(math.cos, 0.0)),
    "tan": _Function(math.tan, lambda u, du: Binary("*", Binary(
        "/", Const(1.0), Binary("^", Func("cos", u), Const(2.0))), du), _tan_image),
    "exp": _Function(_exp, lambda u, du: Binary("*", Func("exp", u), du), _increasing(_exp)),
    "log": _Function(_log, lambda u, du: Binary("/", du, u), _increasing(_log)),
    "sqrt": _Function(_sqrt, lambda u, du: Binary(
        "/", du, Binary("*", Const(2.0), Func("sqrt", u))), _increasing(_sqrt)),
    "sinh": _Function(_sinh, lambda u, du: Binary("*", Func("cosh", u), du), _increasing(_sinh),
                      math.sinh),
    "cosh": _Function(_cosh, lambda u, du: Binary("*", Func("sinh", u), du), _even(_cosh),
                      math.cosh),
    "tanh": _Function(math.tanh, lambda u, du: Binary("*", Binary(
        "/", Const(1.0), Binary("^", Func("cosh", u), Const(2.0))), du),
        _increasing(math.tanh)),
    "abs": _Function(math.fabs, None, _even(math.fabs)),
}
FUNCTIONS = frozenset(_FUNCS)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_WS_RE = re.compile(r"\s*")


# The deepest expression parse accepts: the height of its tree, with each
# parenthesised group counted as a level too.  The second derivatives of a
# chain like q^p^q^... emit code nested up to five times as deep, and Python
# compiles no source nested more than 200 parentheses deep.
MAX_DEPTH = 32


class _Parser:
    """Precedence climbing over _BINARY (_expr), above unary minus and the
    atoms; each rule returns (tree, depth).  self.nesting
    counts the nested rules open around the current token, so that a deep
    input fails before the recursion does."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0
        self._advance()

    def _advance(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()
        if self.pos >= len(self.text):
            self.kind, self.value, self.tok_pos = "end", "", self.pos
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            raise UnexpectedToken(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        self.tok_pos = self.pos
        self.pos = m.end()
        self.kind = m.lastgroup
        self.value = m.group()

    def _deeper(self, depth: int, pos: int) -> int:
        """depth + 1, or a ParseError at pos beyond MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_DEPTH} levels", pos
            )
        return depth + 1

    def _nested(self, rule, pos: int, *args):
        """rule(*args) with one more rule open below this one."""
        self.nesting = self._deeper(self.nesting, pos)
        result = rule(*args)
        self.nesting -= 1
        return result

    def parse(self) -> Expr:
        e, _ = self._expr()
        if self.kind != "end":
            if self.value == ")":
                raise UnbalancedParens("unmatched closing parenthesis", self.tok_pos)
            raise UnexpectedToken(
                f"trailing input {self.value!r}", self.tok_pos
            )
        return e

    def _expr(self, min_prec: int = 0):
        """A unary, then each operator of prec at least min_prec with its
        right operand, read at the row's right precedence: an operator of
        the same prec binds in it only where right <= prec."""
        e, depth = self._unary()
        while (row := _BINARY.get(self.value)) and row.prec >= min_prec:
            op, pos = self.value, self.tok_pos
            self._advance()
            if row.right <= row.prec:  # right-associative: the exponent
                rhs, rhs_depth = self._nested(self._expr, pos, row.right)
            else:
                rhs, rhs_depth = self._expr(row.right)
            e = Binary(op, e, rhs)
            depth = self._deeper(max(depth, rhs_depth), pos)
        return e, depth

    def _unary(self):
        while self.kind == "op" and self.value == "+":
            self._advance()
        if self.kind == "op" and self.value == "-":
            pos = self.tok_pos
            self._advance()
            arg, depth = self._nested(self._expr, pos, _PREC_NEG)
            return Neg(arg), self._deeper(depth, pos)
        return self._atom()

    def _atom(self):
        if self.kind == "num":
            value = float(self.value)
            if not math.isfinite(value):
                raise ParseError(f"number {self.value} overflows to infinity", self.tok_pos)
            self._advance()
            return Const(value), 1
        if self.kind == "name":
            name, name_pos = self.value, self.tok_pos
            self._advance()
            if self.kind == "op" and self.value == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {name!r}", name_pos)
                self._advance()
                arg, depth = self._nested(self._expr, name_pos)
                self._expect_close()
                return Func(name, arg), self._deeper(depth, name_pos)
            return Var(name), 1
        if self.kind == "op" and self.value == "(":
            open_pos = self.tok_pos
            self._advance()
            e, depth = self._nested(self._expr, open_pos)
            self._expect_close(open_pos)
            return e, self._deeper(depth, open_pos)
        if self.kind == "end":
            raise UnexpectedToken("unexpected end of input", self.tok_pos)
        raise UnexpectedToken(f"unexpected token {self.value!r}", self.tok_pos)

    def _expect_close(self, open_pos: int | None = None) -> None:
        if self.kind == "op" and self.value == ")":
            self._advance()
            return
        pos = open_pos if open_pos is not None else self.tok_pos
        raise UnbalancedParens("missing closing parenthesis", pos)


def parse(text: str) -> Expr:
    """Parse an expression string into an AST; ParseError for an expression
    nested deeper than MAX_DEPTH."""
    if not text.strip():
        raise UnexpectedToken("empty input", 0)
    return _Parser(text).parse()


def variables(expr: Expr) -> frozenset[str]:
    """Free variables of an expression."""
    match expr:
        case Const():
            return frozenset()
        case Var(name):
            return frozenset({name})
        case Neg(arg) | Func(_, arg):
            return variables(arg)
        case Binary(_, l, r):
            return variables(l) | variables(r)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(expr: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var``.

    The result uses only the node kinds above, so it can be differentiated
    again for second derivatives.  A function whose row has no derivative
    rule (``abs``) raises NonDifferentiableNode.
    """
    match expr:
        case Const():
            return Const(0.0)
        case Var(name):
            return Const(1.0 if name == var else 0.0)
        case Neg(arg):
            return Neg(differentiate(arg, var))
        case Binary(op, left, right):
            dl, dr = differentiate(left, var), differentiate(right, var)
            if op in ("+", "-"):
                return Binary(op, dl, dr)
            if op == "*":
                return Binary("+", Binary("*", dl, right), Binary("*", left, dr))
            if op == "/":
                if isinstance(right, Const):
                    return Binary("/", dl, right)
                return Binary(
                    "/",
                    Binary("-", Binary("*", dl, right), Binary("*", left, dr)),
                    Binary("^", right, Const(2.0)),
                )
            if isinstance(right, Const):
                # power rule keeps trees small and avoids log(base) domain issues
                lower = Binary("^", left, Const(right.value - 1.0))
                return Binary("*", Binary("*", right, lower), dl)
            # d(u^v) = u^v * (v' log u + v u' / u)
            return Binary("*", expr, Binary(
                "+",
                Binary("*", dr, Func("log", left)),
                Binary("/", Binary("*", right, dl), left),
            ))
        case Func(name, arg):
            derivative = _FUNCS[name].derivative
            if derivative is None:
                raise NonDifferentiableNode(f"{name} is not differentiable")
            return derivative(arg, differentiate(arg, var))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Simplification: constant folding plus 0/1 identities, nothing deeper.

def _fold(node: Expr, op, *args: Expr) -> Expr:
    values = []
    for a in args:
        if not isinstance(a, Const):
            return node
        values.append(a.value)
    try:
        result = op(*values)
    except DomainError:
        return node
    if not math.isfinite(result):
        return node
    return Const(result)


def _is_const(e: Expr, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _is_scaled(e: Expr) -> bool:
    """Whether e is a product with a constant left factor."""
    return isinstance(e, Binary) and e.op == "*" and isinstance(e.left, Const)


def simplify(expr: Expr) -> Expr:
    """expr with constants folded and the 0/1 identities applied; expr
    itself where no rule applies and every operand comes back unchanged."""
    match expr:
        case Const() | Var():
            return expr
        case Neg(arg):
            a = simplify(arg)
            if isinstance(a, Const):
                return Const(-a.value)
            if isinstance(a, Neg):
                return a.arg
            return expr if a is arg else Neg(a)
        case Binary(op, left, right):
            l, r = simplify(left), simplify(right)
            if op == "+":
                if _is_const(l, 0.0):
                    return r
                if _is_const(r, 0.0):
                    return l
            elif op == "-":
                if _is_const(r, 0.0):
                    return l
                if _is_const(l, 0.0):
                    return Const(-r.value) if isinstance(r, Const) else Neg(r)
            elif op == "*":
                if _is_const(l, 0.0) or _is_const(r, 0.0):
                    return Const(0.0)
                if _is_const(l, 1.0):
                    return r
                if _is_const(r, 1.0):
                    return l
                if isinstance(r, Const) and not isinstance(l, Const):
                    l, r = r, l  # exact: IEEE multiplication commutes
                if isinstance(l, Const) and _is_scaled(r):
                    # coalesce nested constant factors to keep derivative trees flat
                    return simplify(Binary("*", Const(l.value * r.left.value), r.right))
            elif op == "/":
                if _is_const(r, 1.0):
                    return l
                if isinstance(r, Const) and r.value != 0.0 and _is_scaled(l):
                    return simplify(Binary("*", Const(l.left.value / r.value), l.right))
            elif _is_const(r, 1.0):  # op is ^ from here on
                return l
            elif _is_const(r, 0.0):
                return Const(1.0)
            node = expr if l is left and r is right else Binary(op, l, r)
            return _fold(node, _BINARY[op].value, l, r)
        case Func(name, arg):
            a = simplify(arg)
            return _fold(expr if a is arg else Func(name, a), _FUNCS[name].value, a)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Enclosure: interval arithmetic over a box, each bound moved one ulp
# outwards, so that the rounding of the bounds (within one ulp, as for
# sums, products and the libm functions) cannot shrink the interval.

def _outward(lo: float, hi: float) -> tuple[float, float]:
    if not -math.inf < lo <= hi < math.inf:  # NaN fails too
        raise DomainError("no finite enclosure")
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _span(*values: float) -> tuple[float, float]:
    return _outward(min(values), max(values))


def enclose(expr: Expr, box: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """A finite interval (lo, hi) that holds the exact value of expr at
    every point of box, which maps each variable to its interval.  A
    DomainError where box leaves the domain of expr or no finite bound is
    found, as where a divisor or the base of a negative power may be zero,
    or tan may meet a pole."""
    match expr:
        case Const(value):
            return _outward(value, value)
        case Var(name):
            return box[name]
        case Neg(arg):
            lo, hi = enclose(arg, box)
            return -hi, -lo
        case Binary(op, l, r):
            a, b = enclose(l, box)
            if op == "^" and isinstance(r, Const):
                # x^n is monotone on either side of 0, where _pow defines it
                n = r.value
                ends = _pow(a, n), _pow(b, n)
                if a < 0.0 < b:  # so n is an integer
                    if n < 0.0:
                        raise DomainError("zero raised to a negative power")
                    if n % 2.0 == 0.0:
                        return _outward(0.0, max(ends))
                return _span(*ends)
            if op == "^":
                # exp(exponent * log(base)), for a base positive throughout
                if not a > 0.0:
                    raise DomainError("a base that may not be positive")
                a, b = _outward(math.log(a), math.log(b))
            c, d = enclose(r, box)
            if op == "+":
                return _outward(a + c, b + d)
            if op == "-":
                return _outward(a - d, b - c)
            if op == "/":
                if c <= 0.0 <= d:
                    raise DomainError("the divisor may be zero")
                return _span(a / c, a / d, b / c, b / d)
            lo, hi = _span(a * c, a * d, b * c, b * d)
            return (lo, hi) if op == "*" else _outward(_exp(lo), _exp(hi))
        case Func(name, arg):
            return _outward(*_FUNCS[name].image(*enclose(arg, box)))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing.  Parenthesization preserves the exact grouping of the tree so
# that parse(to_string(e)) evaluates bit-identically to e.

def _fmt(e: Expr, min_prec: int) -> str:
    match e:
        case Const(value):
            s = repr(value)
            # the sign bit, not value < 0: -0.0 also prints with a leading minus
            prec = _PREC_NEG if math.copysign(1.0, value) < 0 else _PREC_ATOM
        case Var(name):
            return name
        case Func(name, arg):
            return f"{name}({_fmt(arg, 0)})"
        case Neg(arg):
            s, prec = "-" + _fmt(arg, _PREC_NEG), _PREC_NEG
        case Binary(op, l, r):
            row = _BINARY[op]
            s, prec = _fmt(l, row.left) + row.text + _fmt(r, row.right), row.prec
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if prec < min_prec else s


def to_string(expr: Expr) -> str:
    """Render an AST as an expression string that parse reads back to a
    tree of the same value, where every constant is finite (an infinite
    one prints as inf, which parse reads as a variable)."""
    return _fmt(expr, 0)


# ---------------------------------------------------------------------------
# Compilation to plain Python code, the one way expressions are evaluated.
# Every operation goes through the guarded kernels above, or through an
# inline path that gives their bits where their guards cannot fire (emit).
# A constant is read by its index in the tuple _c: as _c[i] in a compile_expr
# lambda, and as a local _ki that a generated kernel binds once from _c[i]
# (HamiltonianSystem.kernel).  So the source text depends only on the shape
# of a tree (with each power of a variable to an integral constant of at
# least 1 a shape of its own), and compiled code is cached by its text: all
# trees of one shape share one code object.

_CODE_CACHE_SIZE = 256  # distinct sources kept compiled

_KERNELS = {"_div": _div, "_pow": _pow}
_KERNELS.update({f"_f_{name}": row.value for name, row in _FUNCS.items()})
_KERNELS.update({f"_m_{name}": row.inline for name, row in _FUNCS.items() if row.inline})


def emit(expr: Expr, consts: list[float], slot: str = "_c[{}]") -> str:
    """Python source evaluating expr, with each variable read as the local
    name it has in the tree; each constant is appended to consts and read
    as slot.format(i), i its index in consts.

    A guarded kernel of a variable v is inlined where its guards cannot
    fire, and called otherwise, so every value and every DomainError is the
    guarded call's:

      v^k, k a constant integer >= 1:
          (v ** k if -L < v < L else _pow(v, k)), L = 2.0 ** (1023 // k)
          appended to consts after k.  Inside the bound |v|^k < 2^1023, so
          ** cannot overflow, and an integral k >= 1 passes _pow's checks on
          a zero or a negative base: _pow itself returns v ** k.
      sinh(v), cosh(v):
          (_m_f(v) if -709.0 < v < 709.0 else _f_f(v)), _m_f the math
          function, which cannot overflow there (_INLINE_BOUND).

    NaN and the infinities fail both comparisons and take the guarded call.
    v^2 is not v * v: CPython's v ** 2.0 is libm pow, which differs from
    v * v in the last bit on 172 of 200,000 doubles drawn by
    random.Random(0).uniform(-10, 10)."""
    match expr:
        case Const(value):
            consts.append(value)
            return slot.format(len(consts) - 1)
        case Var(name):
            return name
        case Neg(arg):
            return f"(-{emit(arg, consts, slot)})"
        case Binary("^", Var(v), Const(k)) if k >= 1.0 and k % 1.0 == 0.0:
            consts.extend((k, 2.0 ** (1023 // k)))
            power, bound = slot.format(len(consts) - 2), slot.format(len(consts) - 1)
            return f"({v} ** {power} if -{bound} < {v} < {bound} else _pow({v}, {power}))"
        case Binary(op, l, r):
            left = emit(l, consts, slot)  # first, so consts keeps tree order
            return _BINARY[op].source.format(left, emit(r, consts, slot))
        case Func(name, Var(v)) if _FUNCS[name].inline:
            bound = _INLINE_BOUND
            return f"(_m_{name}({v}) if -{bound!r} < {v} < {bound!r} else _f_{name}({v}))"
        case Func(name, arg):
            return f"_f_{name}({emit(arg, consts, slot)})"
    raise TypeError(f"not an expression node: {expr!r}")


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str):
    return compile(source, "<symbound-expr>", "exec")


def define(source: str, name: str, consts, **names):
    """Run source, compiled once per text, with the guarded kernels,
    _c = tuple(consts) and names as its globals; return what it binds to name."""
    namespace = dict(_KERNELS, _c=tuple(consts), **names)
    exec(_code(source), namespace)
    return namespace[name]


def indent(lines: str, level: int) -> str:
    """Source lines indented by level blocks of four spaces."""
    pad = "    " * level
    return "\n".join(pad + line for line in lines.split("\n"))


def compile_expr(expr: Expr, args: tuple[str, ...]):
    free = variables(expr)
    missing = free - set(args)
    if missing:
        raise UnboundVariable(f"unbound variables {sorted(missing)!r}")
    consts: list[float] = []
    body = emit(expr, consts)
    return define(f"_f = lambda {', '.join(args)}: {body}", "_f", consts)
