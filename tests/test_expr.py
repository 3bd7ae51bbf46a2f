import ast
import math
import re
import string
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from symbound import expr as ex
from symbound.expr import (
    Binary,
    Const,
    DomainError,
    Func,
    Neg,
    NonDifferentiableNode,
    ParseError,
    UnbalancedParens,
    UnboundVariable,
    UnexpectedToken,
    UnknownIdentifier,
    Var,
    compile_expr,
    differentiate,
    parse,
    simplify,
    to_string,
)
from symbound.systems import HamiltonianSystem

from conftest import (
    central_diff,
    evaluate,
    outcome_type,
    random_bindings,
    random_tree,
    same_float,
    try_eval,
)


# ---------------------------------------------------------------------------
# parsing

def test_parse_separable_hamiltonian_shape():
    tree = parse("p^2/2 + q^2/2")
    expected = Binary(
        "+",
        Binary("/", Binary("^", Var("p"), Const(2.0)), Const(2.0)),
        Binary("/", Binary("^", Var("q"), Const(2.0)), Const(2.0)),
    )
    assert tree == expected


def test_parse_negated_function_shape():
    assert parse("-cos(q)") == Neg(Func("cos", Var("q")))


def test_power_is_right_associative():
    # 2^(2^3) = 256, not (2^2)^3 = 64
    assert evaluate(parse("q^2^3"), {"q": 2.0}) == 256.0


def test_unary_minus_binds_below_power():
    assert evaluate(parse("-q^2"), {"q": 3.0}) == -9.0
    assert evaluate(parse("(-q)^2"), {"q": 3.0}) == 9.0


def test_left_associativity():
    assert evaluate(parse("8 - 2 - 1"), {}) == 5.0
    assert evaluate(parse("8 / 2 / 2"), {}) == 2.0


def test_parse_errors_carry_positions():
    with pytest.raises(UnknownIdentifier) as err:
        parse("p + foo(q)")
    assert err.value.position == 4
    with pytest.raises(UnbalancedParens):
        parse("(p + q")
    with pytest.raises(UnbalancedParens):
        parse("p + q)")
    with pytest.raises(UnexpectedToken):
        parse("p + * q")
    with pytest.raises(UnexpectedToken):
        parse("2 q")
    with pytest.raises(UnexpectedToken):
        parse("   ")
    with pytest.raises(UnexpectedToken):
        parse("p @ q")


def test_unary_plus_is_dropped():
    assert parse("+q") == parse("++q") == Var("q")
    assert parse("-+q") == Neg(Var("q"))


def test_input_ending_after_an_operator():
    with pytest.raises(UnexpectedToken, match="unexpected end of input") as err:
        parse("q +")
    assert err.value.position == 3


# each of depth n: the tree's height, with a parenthesised group as a level
_DEPTH_SHAPES = {
    "parentheses": lambda n: "(" * (n - 1) + "q" + ")" * (n - 1),
    "unary-minus": lambda n: "-" * (n - 1) + "q",
    "flat-sum": lambda n: " + ".join(["q"] * n),
    "functions": lambda n: "sin(" * (n - 2) + "p*q" + ")" * (n - 2),
    "power-chain": lambda n: "^".join((["q", "p"] * n)[:n]),
}


@pytest.mark.parametrize("shape", _DEPTH_SHAPES)
def test_depth_limit_holds_on_both_sides(shape):
    make = _DEPTH_SHAPES[shape]
    tree = parse(make(ex.MAX_DEPTH))
    # at the limit the first and second derivatives still simplify, emit and
    # compile, under the default recursion limit
    for var in ("p", "q"):
        first = simplify(differentiate(tree, var))
        for d in (first, *(simplify(differentiate(first, v)) for v in ("p", "q"))):
            compile_expr(d, ("p", "q"))
    for n in (ex.MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match=f"deeper than {ex.MAX_DEPTH} levels"):
            parse(make(n))


def test_scientific_notation_and_exponent_signs():
    assert evaluate(parse("1e-5"), {}) == 1e-5
    assert evaluate(parse("2.5e+2"), {}) == 250.0
    assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25


def test_a_number_must_be_finite():
    # an underflow to 0.0 is a number; an overflow to inf is an error at the literal
    assert parse("1e-400") == Const(0.0)
    assert parse("1.7976931348623157e308") == Const(1.7976931348623157e308)
    for text, offset in (("1e999*q", 0), ("q + 2e308", 4), ("sin(1" + "0" * 309 + ")", 4)):
        with pytest.raises(ParseError, match="overflows to infinity") as err:
            parse(text)
        assert err.value.position == offset


# ---------------------------------------------------------------------------
# evaluation: compile_expr is the package's one evaluator

def _run(text: str, **bindings: float) -> float:
    """text compiled over the names of bindings and called at their values."""
    return compile_expr(parse(text), tuple(bindings))(*bindings.values())


def test_eval_examples():
    assert _run("p^2/2", p=3.0) == 4.5
    assert _run("-cos(q)", q=0.0) == -1.0


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        _run("sqrt(q)", q=-1.0)
    with pytest.raises(DomainError):
        _run("log(q)", q=-2.0)
    with pytest.raises(DomainError):
        _run("1/q", q=0.0)
    with pytest.raises(DomainError):
        _run("q^0.5", q=-2.0)
    with pytest.raises(DomainError):
        _run("q^-1", q=0.0)
    for q in (math.inf, -math.inf, math.nan):  # math.floor(q) would raise
        with pytest.raises(DomainError):
            _run("(-2)^q", q=q)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        _run("p + q", p=1.0)


# ---------------------------------------------------------------------------
# differentiation

def test_derivative_of_quadratic_is_linear():
    d = simplify(differentiate(parse("q^2/2"), "q"))
    assert d == Var("q")


def test_derivative_of_negated_cosine():
    d = simplify(differentiate(parse("-cos(q)"), "q"))
    assert d == Func("sin", Var("q"))


def test_second_derivative_cubed():
    first = simplify(differentiate(parse("q^3"), "q"))
    second = simplify(differentiate(first, "q"))
    value = evaluate(second, {"q": 2.0})
    assert value == 12.0
    # independent check: central difference of the first derivative
    fd = central_diff(first, {"q": 2.0}, "q", h=1e-5)
    assert abs(value - fd) <= 1e-6


def test_abs_is_not_differentiable():
    with pytest.raises(NonDifferentiableNode):
        differentiate(parse("abs(q)"), "q")


def test_general_exponent_derivative():
    # d/dx x^x = x^x (log x + 1), checked against a central difference
    d = simplify(differentiate(parse("x^x"), "x"))
    for x in (0.5, 1.0, 2.3):
        exact = evaluate(d, {"x": x})
        analytic = x**x * (math.log(x) + 1.0)
        assert abs(exact - analytic) <= 1e-12 * (1.0 + abs(analytic))
        fd = central_diff(parse("x^x"), {"x": x}, "x")
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))


def test_derivative_against_finite_differences_bulk():
    rng = np.random.default_rng(7)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 8000:
        attempts += 1
        tree = random_tree(rng, depth=int(rng.integers(1, 7)))
        bindings = random_bindings(rng)
        if try_eval(tree, bindings) is None:
            continue
        try:
            d = differentiate(tree, "x")
        except NonDifferentiableNode:
            continue
        exact = try_eval(d, bindings)
        fd = central_diff(tree, bindings, "x")
        if exact is None or fd is None or abs(exact) > 1e4:
            continue
        checked += 1
        assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact)), to_string(tree)
    assert checked == 1000


# ---------------------------------------------------------------------------
# simplification

def test_simplify_identities():
    q = Var("q")
    assert simplify(Binary("*", Const(1.0), q)) == q
    assert simplify(Binary("+", Const(2.0), Const(3.0))) == Const(5.0)
    assert simplify(Binary("*", Const(0.0), Func("sin", q))) == Const(0.0)
    assert simplify(Binary("^", q, Const(1.0))) == q
    assert simplify(Binary("-", q, Const(0.0))) == q
    assert simplify(Neg(Neg(q))) == q


def test_simplify_leaves_what_does_not_fold():
    # a domain error or an overflow stays in the tree, for evaluation to meet
    for text in ("1/0", "exp(1000)", "log(0)"):
        assert simplify(parse(text)) == parse(text)


def test_simplify_preserves_semantics_bulk():
    rng = np.random.default_rng(11)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 6000:
        attempts += 1
        tree = random_tree(rng, depth=int(rng.integers(1, 7)))
        bindings = random_bindings(rng)
        before = try_eval(tree, bindings)
        if before is None:
            continue
        after = try_eval(simplify(tree), bindings)
        if after is None:
            continue
        checked += 1
        assert abs(after - before) <= 1e-12 * (1.0 + abs(before)), to_string(tree)
    assert checked == 1000


# ---------------------------------------------------------------------------
# printing round-trip

def test_print_parse_round_trip_bulk():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(800):
        tree = random_tree(rng, depth=int(rng.integers(1, 7)))
        bindings = random_bindings(rng)
        reparsed = parse(to_string(tree))
        a = try_eval(tree, bindings)
        b = try_eval(reparsed, bindings)
        if a is None:
            assert b is None or not math.isfinite(b) or abs(b) > 1e6
            continue
        checked += 1
        assert a == b, to_string(tree)
    assert checked > 400


_leaf = st.one_of(
    st.floats(min_value=-3, max_value=3).map(lambda v: Const(float(v))),
    st.sampled_from(["x", "y"]).map(Var),
)


def _branch(children):
    return st.one_of(
        *(st.tuples(children, children).map(lambda t, op=op: Binary(op, *t))
          for op in "+-*/"),
        children.map(Neg),
        st.tuples(children, st.integers(0, 3)).map(
            lambda t: Binary("^", t[0], Const(float(t[1])))
        ),
        st.tuples(st.sampled_from(list(ex.FUNCTIONS)), children).map(
            lambda t: Func(t[0], t[1])
        ),
    )


expr_trees = st.recursive(_leaf, _branch, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(expr_trees, st.floats(-2, 2), st.floats(-2, 2))
def test_print_parse_round_trip_hypothesis(tree, x, y):
    bindings = {"x": float(x), "y": float(y)}
    reparsed = parse(to_string(tree))
    try:
        a = evaluate(tree, bindings)
    except DomainError:
        with pytest.raises(DomainError):
            evaluate(reparsed, bindings)
        return
    b = evaluate(reparsed, bindings)
    assert a == b or (math.isnan(a) and math.isnan(b))


_spaces = st.sampled_from(("", " ", "  "))


def _text_branch(children):
    return st.one_of(
        st.tuples(children, _spaces, st.sampled_from(sorted(ex._BINARY)), _spaces,
                  children).map("".join),
        st.tuples(st.sampled_from(("-", "+", "--", "+-")), _spaces, children).map("".join),
        st.tuples(children, st.just("^-"), children).map("".join),
        st.tuples(_spaces, children, _spaces).map(lambda t: f"({''.join(t)})"),
        st.tuples(st.sampled_from(sorted(ex.FUNCTIONS)), children).map("{0[0]}({0[1]})".format),
    )


# texts of the grammar, with redundant spaces, parentheses and signs
expr_texts = st.recursive(
    st.sampled_from(("x", "y", "0", "2", "3.5", ".5", "1.", "2.5e+2", "1e-5", "5e-324",
                     "1.7976931348623157e308")),
    _text_branch,
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(expr_texts)
def test_parse_print_parse_round_trip_from_text(text):
    try:
        tree = parse(text)
    except ParseError as err:  # the one error a grammar text can meet
        assert "deeper than" in str(err), text
        reject()
    assert parse(to_string(tree)) == tree, text


def test_negative_zero_power_base_keeps_its_parentheses():
    # (-0.0)^0.0 is 1; printed without parentheses it would parse as -(0.0^0.0)
    tree = Neg(Binary("^", Const(-0.0), Const(0.0)))
    assert to_string(tree) == "-(-0.0)^0.0"
    assert evaluate(parse(to_string(tree)), {}) == evaluate(tree, {}) == -1.0


# ---------------------------------------------------------------------------
# the function table

@pytest.mark.parametrize("name", sorted(ex.FUNCTIONS))
def test_every_function_has_a_value_a_kernel_and_a_derivative_rule(name):
    row = ex._FUNCS[name]
    assert ex._KERNELS[f"_f_{name}"] is row.value
    tree = Func(name, Binary("*", Const(0.5), Var("x")))
    assert _run(to_string(tree), x=0.7) == row.value(0.35)
    try:
        d = differentiate(tree, "x")
    except NonDifferentiableNode as err:
        assert row.derivative is None and str(err) == f"{name} is not differentiable"
        return
    exact = evaluate(d, {"x": 0.7})
    assert abs(exact - central_diff(tree, {"x": 0.7}, "x")) <= 1e-6 * (1.0 + abs(exact))


@pytest.mark.parametrize("op", sorted(ex._BINARY))
def test_every_operator_parses_prints_compiles_and_has_a_derivative_rule(op):
    tree = parse(f"x {op} y")
    assert tree == Binary(op, Var("x"), Var("y"))
    assert to_string(tree).replace(" ", "") == f"x{op}y" and parse(to_string(tree)) == tree
    assert _run(f"x {op} y", x=1.5, y=2.0) == evaluate(tree, {"x": 1.5, "y": 2.0})
    for var in ("x", "y"):
        evaluate(differentiate(tree, var), {"x": 1.5, "y": 2.0})
    ex.enclose(tree, {"x": (1.0, 2.0), "y": (1.0, 2.0)})
    # the language is the tables: no operator or node kind besides them
    tokens = (ex._TOKEN_RE.fullmatch(chr(c)) for c in range(128))
    ops = {m.group() for m in tokens if m and m.lastgroup == "op"}
    assert ops == set(ex._BINARY) | {"(", ")"}
    assert set(ex.Expr.__subclasses__()) == {Const, Var, Neg, Binary, Func}


def test_the_documented_functions_are_the_table():
    (known,) = re.findall(r"^Known functions: (.*)\.$", ex.__doc__, re.MULTILINE)
    readme = (Path(ex.__file__).parents[2] / "README.md").read_text()
    (listed,) = re.findall(r"the usual arithmetic, and `([^`]*)`", readme)
    assert set(known.split()) == set(listed.split()) == ex.FUNCTIONS
    assert len(known.split()) == len(listed.split()) == len(ex.FUNCTIONS)


# ---------------------------------------------------------------------------
# enclosure

_enclosure_trees = st.recursive(
    _leaf,
    lambda children: st.one_of(
        _branch(children), st.tuples(children, children).map(lambda t: Binary("^", *t))
    ),
    max_leaves=12,
)
_FRACTION = st.floats(0.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(
    _enclosure_trees,
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.lists(st.tuples(_FRACTION, _FRACTION), max_size=4),
)
def test_an_enclosure_holds_the_value_at_every_point_of_its_box(
    tree, cx, cy, wx, wy, fractions
):
    box = {"x": (cx - wx, cx + wx), "y": (cy - wy, cy + wy)}
    try:
        lo, hi = ex.enclose(tree, box)
    except DomainError:
        return  # no enclosure claims nothing
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)]
    for fx, fy in corners + fractions:
        point = {
            "x": min(cx - wx + 2.0 * wx * fx, cx + wx),
            "y": min(cy - wy + 2.0 * wy * fy, cy + wy),
        }
        value = evaluate(tree, point)  # no DomainError inside an enclosed box
        assert lo <= value <= hi, (to_string(tree), point, value, lo, hi)


@pytest.mark.parametrize("text, box, want", [
    ("cos(x)", (-0.1, 0.2), (math.cos(0.2), 1.0)),
    ("cos(x)", (3.0, 3.3), (-1.0, math.cos(3.3))),
    ("sin(x)", (1.0, 2.0), (math.sin(1.0), 1.0)),
    ("sin(x)", (-7.0, 7.0), (-1.0, 1.0)),
    ("x^2", (-1.0, 2.0), (0.0, 4.0)),
    ("x^3", (-1.0, 2.0), (-1.0, 8.0)),
    ("cosh(x)", (-1.0, 0.5), (1.0, math.cosh(1.0))),
    ("abs(x)", (-3.0, -2.0), (2.0, 3.0)),
    ("2^x", (1.0, 3.0), (2.0, 8.0)),
    ("1/x", (2.0, 4.0), (0.25, 0.5)),
])
def test_an_enclosure_is_tight_at_the_extremes(text, box, want):
    lo, hi = ex.enclose(parse(text), {"x": box})
    assert lo <= want[0] and want[1] <= hi
    assert want[0] - lo <= 1e-12 * (1.0 + abs(want[0]))
    assert hi - want[1] <= 1e-12 * (1.0 + abs(want[1]))


@pytest.mark.parametrize("text, box", [
    ("1/x", (-1.0, 1.0)),
    ("x^-1", (-1.0, 1.0)),
    ("x^0.5", (-1.0, 1.0)),
    ("sqrt(x)", (-1.0, 1.0)),
    ("log(x)", (0.0, 1.0)),
    ("x^x", (0.0, 1.0)),
    ("tan(x)", (1.0, 2.0)),
    ("tan(x)", (0.0, 4.0)),
    ("exp(x)", (0.0, 1000.0)),
    ("x - x", (0.0, math.inf)),
])
def test_an_enclosure_is_refused_off_the_domain_or_unbounded(text, box):
    with pytest.raises(DomainError):
        ex.enclose(parse(text), {"x": box})


# ---------------------------------------------------------------------------
# compiled evaluation

def test_compiled_matches_tree_eval_bitwise():
    rng = np.random.default_rng(17)
    for _ in range(400):
        tree = random_tree(rng, depth=int(rng.integers(1, 7)))
        bindings = random_bindings(rng)
        fn = compile_expr(tree, ("x", "y"))
        try:
            expected = evaluate(tree, bindings)
        except DomainError:
            with pytest.raises(DomainError):
                fn(bindings["x"], bindings["y"])
            continue
        got = fn(bindings["x"], bindings["y"])
        assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_compile_rejects_free_variables():
    with pytest.raises(UnboundVariable):
        compile_expr(parse("p + r"), ("p",))


def test_evaluation_is_deterministic():
    fn = compile_expr(parse("sin(x) * exp(y) - x^3 / (1 + y^2)"), ("x", "y"))
    first = fn(0.7381, -1.25)
    assert all(fn(0.7381, -1.25) == first for _ in range(5))


# emit's inline paths, held to the guarded kernels at their edges: each
# bound, the overflow thresholds just past it and the floats on either side
# of each, with both signs, and the values where the kernels' guards turn
_EDGE_SPECIALS = (5e-324, -5e-324, 0.0, -0.0, math.inf, -math.inf, math.nan)
_FLOAT_MAX = sys.float_info.max
_INLINE_POWERS = (1, 2, 3, 4, 7, 341, 342, 1023, 1024)


def _edges(*bounds: float) -> list[float]:
    around = [
        y for b in bounds
        for y in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
    ]
    return [*_EDGE_SPECIALS, *around, *(-y for y in around)]


def _power_edges(k: float) -> list[float]:
    # the bound 2^(1023 // k), and where x^k overflows: past 2^(1024 / k)
    return _edges(*(2.0 ** e for e in (1023 // k, 1024 // k, 1024 / k) if e < 1024))


# the bound 709, and where exp (log of the greatest float), and sinh and
# cosh (its acosh) overflow
_FUNC_EDGES = _edges(709.0, 710.0, math.log(_FLOAT_MAX), math.acosh(_FLOAT_MAX))


def _assert_same_outcomes(got, want, values):
    for x in values:
        a, b = outcome_type(got, x), outcome_type(want, x)
        floats = isinstance(a, float) and isinstance(b, float)
        assert same_float(a, b) if floats else a is b, (x, a, b)


@pytest.mark.parametrize("k", _INLINE_POWERS)
def test_an_inline_power_gives_the_guarded_value_at_its_edges(k):
    tree = Binary("^", Var("x"), Const(float(k)))
    assert " ** " in ex.emit(tree, [])
    fn = compile_expr(tree, ("x",))
    _assert_same_outcomes(fn, lambda x: evaluate(tree, {"x": x}), _power_edges(k))
    # the same text with its constants bound as a kernel's locals
    system = HamiltonianSystem.newtonian(f"q^{k}")
    h_q = system.kernel(string.Template("def _f(p, q):\n    return $h_q"), "_f")
    _assert_same_outcomes(
        lambda q: h_q(0.0, q),
        lambda q: evaluate(system.derivatives[1], {"p": 0.0, "q": q}),
        _power_edges(k),
    )


@pytest.mark.parametrize("k", (2.5, -2.0))
def test_a_fractional_or_negative_power_keeps_the_guarded_call(k):
    tree = Binary("^", Var("x"), Const(k))
    assert ex.emit(tree, []) == "_pow(x, _c[0])"
    _assert_same_outcomes(
        compile_expr(tree, ("x",)), lambda x: evaluate(tree, {"x": x}),
        [*_power_edges(2.0), *_FUNC_EDGES],
    )


@pytest.mark.parametrize("name", sorted(n for n, row in ex._FUNCS.items() if row.inline))
def test_an_inline_function_gives_the_guarded_value_at_its_edges(name):
    tree = Func(name, Var("x"))
    assert f"_m_{name}(x)" in ex.emit(tree, [])
    _assert_same_outcomes(
        compile_expr(tree, ("x",)), lambda x: evaluate(tree, {"x": x}), _FUNC_EDGES
    )
    # H_p, H_q and H_pp of H = f(p) + f(q) are f'(p), f'(q) and f''(p), all
    # inline paths
    system = HamiltonianSystem.general(f"{name}(p) + {name}(q)")
    texts = string.Template("def _f(p, q):\n    return $h_p, $h_q, $h_pp")
    kernel = system.kernel(texts, "_f")
    for i in range(3):
        _assert_same_outcomes(
            lambda x: kernel(x, x)[i],
            lambda x: evaluate(system.derivatives[i], {"p": x, "q": x}),
            _FUNC_EDGES,
        )


# each callee and the one module that may call it: only expr compiles or
# runs source text, and only analyzer classifies the spectrum of a matrix
ONLY_CALLER = {
    "compile": "expr.py",
    "exec": "expr.py",
    "eval": "expr.py",
    "eigenvector": "analyzer.py",
}


def test_define_is_the_only_generated_code_path():
    src = Path(ex.__file__).parent
    for path in sorted(src.glob("*.py")):
        calls = [
            node.func.id
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and ONLY_CALLER.get(node.func.id, path.name) != path.name
        ]
        assert calls == [], (path.name, calls)


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


# the modules with arrays: verdict_grid's and verify's
_NUMPY_USERS = ("analyzer.py", "verify.py")


def test_only_verify_imports_numpy_at_module_level():
    # numpy costs most of a CLI process's start; the modules that need it
    # only on some paths import it inside the function that does, and the
    # rest (systems.py's Newton search among them) never import it
    src = Path(ex.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        numpy_imports = [node.lineno for node in tree.body if _imports_numpy(node)]
        assert numpy_imports == [] or path.name == "verify.py", (path.name, numpy_imports)
        anywhere = [node.lineno for node in ast.walk(tree) if _imports_numpy(node)]
        assert anywhere == [] or path.name in _NUMPY_USERS, (path.name, anywhere)


def _broad_handlers(tree: ast.AST):
    """The except clauses of tree that catch everything: bare, Exception or
    BaseException, alone or in a tuple."""
    broad = {"Exception", "BaseException"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in broad) for t in types):
                yield node


def test_every_broad_except_states_its_reason():
    # a handler that catches everything hides the faults it was not written for
    src = Path(ex.__file__).parent
    unmarked = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in _broad_handlers(ast.parse(text, str(path))):
            if not re.search(r"# noqa: BLE001 - \S", lines[node.lineno - 1]):
                unmarked.append(f"{path.name}:{node.lineno}")
    assert unmarked == []
