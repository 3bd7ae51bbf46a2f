import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbound import expr as ex
from symbound.expr import (
    Add,
    Const,
    DomainError,
    Div,
    Func,
    Mul,
    Neg,
    NonDifferentiableNode,
    Pow,
    Sub,
    UnbalancedParens,
    UnboundVariable,
    UnexpectedToken,
    UnknownIdentifier,
    Var,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_string,
)

from conftest import central_diff, random_bindings, random_tree, try_eval


# ---------------------------------------------------------------------------
# parsing

def test_parse_separable_hamiltonian_shape():
    tree = parse("p^2/2 + q^2/2")
    expected = Add(
        Div(Pow(Var("p"), Const(2.0)), Const(2.0)),
        Div(Pow(Var("q"), Const(2.0)), Const(2.0)),
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


def test_scientific_notation_and_exponent_signs():
    assert evaluate(parse("1e-5"), {}) == 1e-5
    assert evaluate(parse("2.5e+2"), {}) == 250.0
    assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25


# ---------------------------------------------------------------------------
# evaluation

def test_eval_examples():
    assert evaluate(parse("p^2/2"), {"p": 3.0}) == 4.5
    assert evaluate(parse("-cos(q)"), {"q": 0.0}) == -1.0


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(q)"), {"q": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("log(q)"), {"q": -2.0})
    with pytest.raises(DomainError):
        evaluate(parse("1/q"), {"q": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("q^0.5"), {"q": -2.0})
    with pytest.raises(DomainError):
        evaluate(parse("q^-1"), {"q": 0.0})
    for q in (math.inf, -math.inf, math.nan):  # math.floor(q) would raise
        with pytest.raises(DomainError):
            evaluate(parse("(-2)^q"), {"q": q})


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(parse("p + q"), {"p": 1.0})


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
    assert simplify(Mul(Const(1.0), q)) == q
    assert simplify(Add(Const(2.0), Const(3.0))) == Const(5.0)
    assert simplify(Mul(Const(0.0), Func("sin", q))) == Const(0.0)
    assert simplify(Pow(q, Const(1.0))) == q
    assert simplify(Sub(q, Const(0.0))) == q
    assert simplify(Neg(Neg(q))) == q


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
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(children, children).map(lambda t: Div(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(0, 3)).map(
            lambda t: Pow(t[0], Const(float(t[1])))
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


def test_negative_zero_power_base_keeps_its_parentheses():
    # (-0.0)^0.0 is 1; printed without parentheses it would parse as -(0.0^0.0)
    tree = Neg(Pow(Const(-0.0), Const(0.0)))
    assert to_string(tree) == "-(-0.0)^0.0"
    assert evaluate(parse(to_string(tree)), {}) == evaluate(tree, {}) == -1.0


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
    tree = parse("sin(x) * exp(y) - x^3 / (1 + y^2)")
    bindings = {"x": 0.7381, "y": -1.25}
    first = evaluate(tree, bindings)
    assert all(evaluate(tree, bindings) == first for _ in range(5))
