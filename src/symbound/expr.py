"""Symbolic scalar expressions with exact differentiation.

Grammar, tightest binding first:

    atom   := number | name | name '(' expr ')' | '(' expr ')'
    power  := atom ('^' unary)?          right-associative
    unary  := ('-' | '+') unary | power
    term   := unary (('*' | '/') unary)* left-associative
    expr   := term (('+' | '-') term)*   left-associative

Known functions: sin cos tan exp log sqrt sinh cosh tanh abs.

Evaluation is IEEE double precision with real-valued semantics: log and
sqrt of non-positive/negative arguments, division by zero, zero to a
negative power and a negative base to a fractional or non-finite power
raise DomainError instead of producing NaN or complex values.  Overflow
saturates to inf, matching IEEE behaviour.

Trees are immutable and every operation here is pure, so expressions can
be shared freely across threads.
"""

import functools
import math
import re
from dataclasses import dataclass


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
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr


FUNCTIONS = frozenset(
    {"sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "abs"}
)


# ---------------------------------------------------------------------------
# Guarded numeric kernels, shared by the tree evaluator and compiled code so
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


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "sinh": _sinh,
    "cosh": _cosh,
    "tanh": math.tanh,
    "abs": math.fabs,
}


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)
_WS_RE = re.compile(r"\s*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
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

    def parse(self) -> Expr:
        e = self._expr()
        if self.kind != "end":
            if self.value == ")":
                raise UnbalancedParens("unmatched closing parenthesis", self.tok_pos)
            raise UnexpectedToken(
                f"trailing input {self.value!r}", self.tok_pos
            )
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while self.kind == "op" and self.value in "+-":
            op = self.value
            self._advance()
            rhs = self._term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def _term(self) -> Expr:
        e = self._unary()
        while self.kind == "op" and self.value in "*/":
            op = self.value
            self._advance()
            rhs = self._unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def _unary(self) -> Expr:
        if self.kind == "op" and self.value == "-":
            self._advance()
            return Neg(self._unary())
        if self.kind == "op" and self.value == "+":
            self._advance()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self.kind == "op" and self.value == "^":
            self._advance()
            # the exponent admits unary minus: x^-2
            return Pow(base, self._unary())
        return base

    def _atom(self) -> Expr:
        if self.kind == "num":
            value = float(self.value)
            self._advance()
            return Const(value)
        if self.kind == "name":
            name, name_pos = self.value, self.tok_pos
            self._advance()
            if self.kind == "op" and self.value == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {name!r}", name_pos)
                self._advance()
                arg = self._expr()
                self._expect_close()
                return Func(name, arg)
            return Var(name)
        if self.kind == "op" and self.value == "(":
            open_pos = self.tok_pos
            self._advance()
            e = self._expr()
            self._expect_close(open_pos)
            return e
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
    """Parse an expression string into an AST."""
    if not text.strip():
        raise UnexpectedToken("empty input", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(expr: Expr, bindings: dict[str, float]) -> float:
    match expr:
        case Const(value):
            return value
        case Var(name):
            try:
                return bindings[name]
            except KeyError:
                raise UnboundVariable(f"unbound variable {name!r}") from None
        case Neg(arg):
            return -evaluate(arg, bindings)
        case Add(left, right):
            return evaluate(left, bindings) + evaluate(right, bindings)
        case Sub(left, right):
            return evaluate(left, bindings) - evaluate(right, bindings)
        case Mul(left, right):
            return evaluate(left, bindings) * evaluate(right, bindings)
        case Div(left, right):
            return _div(evaluate(left, bindings), evaluate(right, bindings))
        case Pow(base, exponent):
            return _pow(evaluate(base, bindings), evaluate(exponent, bindings))
        case Func(name, arg):
            return _FUNC_IMPL[name](evaluate(arg, bindings))
    raise TypeError(f"not an expression node: {expr!r}")


def variables(expr: Expr) -> frozenset[str]:
    """Free variables of an expression."""
    match expr:
        case Const():
            return frozenset()
        case Var(name):
            return frozenset({name})
        case Neg(arg) | Func(_, arg):
            return variables(arg)
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r) | Pow(l, r):
            return variables(l) | variables(r)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Differentiation

_DIFF_TABLE = {
    # outer derivative of f(u) as a function of u; chain factor applied below
    "sin": lambda u: Func("cos", u),
    "cos": lambda u: Neg(Func("sin", u)),
    "tan": lambda u: Div(Const(1.0), Pow(Func("cos", u), Const(2.0))),
    "exp": lambda u: Func("exp", u),
    "sinh": lambda u: Func("cosh", u),
    "cosh": lambda u: Func("sinh", u),
    "tanh": lambda u: Div(Const(1.0), Pow(Func("cosh", u), Const(2.0))),
}


def differentiate(expr: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var``.

    The result uses only the node kinds above, so it can be differentiated
    again for second derivatives.  ``abs`` is rejected.
    """
    match expr:
        case Const():
            return Const(0.0)
        case Var(name):
            return Const(1.0 if name == var else 0.0)
        case Neg(arg):
            return Neg(differentiate(arg, var))
        case Add(left, right):
            return Add(differentiate(left, var), differentiate(right, var))
        case Sub(left, right):
            return Sub(differentiate(left, var), differentiate(right, var))
        case Mul(left, right):
            return Add(
                Mul(differentiate(left, var), right),
                Mul(left, differentiate(right, var)),
            )
        case Div(left, Const(c)):
            return Div(differentiate(left, var), Const(c))
        case Div(left, right):
            return Div(
                Sub(
                    Mul(differentiate(left, var), right),
                    Mul(left, differentiate(right, var)),
                ),
                Pow(right, Const(2.0)),
            )
        case Pow(base, Const(c)):
            # power rule keeps trees small and avoids log(base) domain issues
            return Mul(
                Mul(Const(c), Pow(base, Const(c - 1.0))),
                differentiate(base, var),
            )
        case Pow(base, exponent):
            # d(u^v) = u^v * (v' log u + v u' / u)
            return Mul(
                Pow(base, exponent),
                Add(
                    Mul(differentiate(exponent, var), Func("log", base)),
                    Div(Mul(exponent, differentiate(base, var)), base),
                ),
            )
        case Func("abs", _):
            raise NonDifferentiableNode("abs is not differentiable")
        case Func("log", arg):
            return Div(differentiate(arg, var), arg)
        case Func("sqrt", arg):
            return Div(
                differentiate(arg, var), Mul(Const(2.0), Func("sqrt", arg))
            )
        case Func(name, arg):
            return Mul(_DIFF_TABLE[name](arg), differentiate(arg, var))
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


def simplify(expr: Expr) -> Expr:
    match expr:
        case Const() | Var():
            return expr
        case Neg(arg):
            a = simplify(arg)
            if isinstance(a, Const):
                return Const(-a.value)
            if isinstance(a, Neg):
                return a.arg
            return Neg(a)
        case Add(left, right):
            l, r = simplify(left), simplify(right)
            if _is_const(l, 0.0):
                return r
            if _is_const(r, 0.0):
                return l
            return _fold(Add(l, r), lambda a, b: a + b, l, r)
        case Sub(left, right):
            l, r = simplify(left), simplify(right)
            if _is_const(r, 0.0):
                return l
            if _is_const(l, 0.0):
                return Const(-r.value) if isinstance(r, Const) else Neg(r)
            return _fold(Sub(l, r), lambda a, b: a - b, l, r)
        case Mul(left, right):
            l, r = simplify(left), simplify(right)
            if _is_const(l, 0.0) or _is_const(r, 0.0):
                return Const(0.0)
            if _is_const(l, 1.0):
                return r
            if _is_const(r, 1.0):
                return l
            if isinstance(r, Const) and not isinstance(l, Const):
                l, r = r, l  # exact: IEEE multiplication commutes
            if (
                isinstance(l, Const)
                and isinstance(r, Mul)
                and isinstance(r.left, Const)
            ):
                # coalesce nested constant factors to keep derivative trees flat
                return simplify(Mul(Const(l.value * r.left.value), r.right))
            return _fold(Mul(l, r), lambda a, b: a * b, l, r)
        case Div(left, right):
            l, r = simplify(left), simplify(right)
            if _is_const(r, 1.0):
                return l
            if (
                isinstance(r, Const)
                and r.value != 0.0
                and isinstance(l, Mul)
                and isinstance(l.left, Const)
            ):
                return simplify(Mul(Const(l.left.value / r.value), l.right))
            return _fold(Div(l, r), _div, l, r)
        case Pow(base, exponent):
            b, e = simplify(base), simplify(exponent)
            if _is_const(e, 1.0):
                return b
            if _is_const(e, 0.0):
                return Const(1.0)
            return _fold(Pow(b, e), _pow, b, e)
        case Func(name, arg):
            a = simplify(arg)
            return _fold(Func(name, a), _FUNC_IMPL[name], a)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing.  Parenthesization preserves the exact grouping of the tree so
# that parse(to_string(e)) evaluates bit-identically to e.

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    match e:
        case Const(value):
            # the sign bit, not value < 0: -0.0 also prints with a leading minus
            return _PREC_NEG if math.copysign(1.0, value) < 0 else _PREC_ATOM
        case Var() | Func():
            return _PREC_ATOM
        case Pow():
            return _PREC_POW
        case Neg():
            return _PREC_NEG
        case Mul() | Div():
            return _PREC_MUL
        case _:
            return _PREC_ADD


def _fmt(e: Expr, min_prec: int) -> str:
    match e:
        case Const(value):
            s = repr(value)
        case Var(name):
            s = name
        case Neg(arg):
            s = "-" + _fmt(arg, _PREC_NEG)
        case Add(l, r):
            s = f"{_fmt(l, _PREC_ADD)} + {_fmt(r, _PREC_ADD + 1)}"
        case Sub(l, r):
            s = f"{_fmt(l, _PREC_ADD)} - {_fmt(r, _PREC_ADD + 1)}"
        case Mul(l, r):
            s = f"{_fmt(l, _PREC_MUL)} * {_fmt(r, _PREC_MUL + 1)}"
        case Div(l, r):
            s = f"{_fmt(l, _PREC_MUL)} / {_fmt(r, _PREC_MUL + 1)}"
        case Pow(b, x):
            s = f"{_fmt(b, _PREC_ATOM)}^{_fmt(x, _PREC_NEG)}"
        case Func(name, arg):
            return f"{name}({_fmt(arg, 0)})"
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if _prec(e) < min_prec:
        return f"({s})"
    return s


def to_string(expr: Expr) -> str:
    """Render an AST as a parseable expression string."""
    return _fmt(expr, 0)


# ---------------------------------------------------------------------------
# Compilation to plain Python code.  Generated code goes through the same
# guarded kernels as the tree evaluator, in the same order, so results are
# bit-identical; this is the fast path used by the systems and schemes
# layers.  Constants are read from a tuple _c, so the source text depends
# only on the shape of a tree, and compiled code is cached by its text: all
# trees of one shape share one code object.

_CODE_CACHE_SIZE = 256  # distinct sources kept compiled

_KERNELS = {"_div": _div, "_pow": _pow}
_KERNELS.update({f"_f_{name}": fn for name, fn in _FUNC_IMPL.items()})


def emit(expr: Expr, consts: list[float]) -> str:
    """Python source evaluating expr, with each variable read as the local
    name it has in the tree; each constant is appended to consts and read
    as _c[i]."""
    match expr:
        case Const(value):
            consts.append(value)
            return f"_c[{len(consts) - 1}]"
        case Var(name):
            return name
        case Neg(arg):
            return f"(-{emit(arg, consts)})"
        case Add(l, r):
            return f"({emit(l, consts)} + {emit(r, consts)})"
        case Sub(l, r):
            return f"({emit(l, consts)} - {emit(r, consts)})"
        case Mul(l, r):
            return f"({emit(l, consts)} * {emit(r, consts)})"
        case Div(l, r):
            return f"_div({emit(l, consts)}, {emit(r, consts)})"
        case Pow(b, x):
            return f"_pow({emit(b, consts)}, {emit(x, consts)})"
        case Func(name, arg):
            return f"_f_{name}({emit(arg, consts)})"
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


def compile_expr(expr: Expr, args: tuple[str, ...]):
    free = variables(expr)
    missing = free - set(args)
    if missing:
        raise UnboundVariable(f"unbound variables {sorted(missing)!r}")
    consts: list[float] = []
    body = emit(expr, consts)
    return define(f"_f = lambda {', '.join(args)}: {body}", "_f", consts)
