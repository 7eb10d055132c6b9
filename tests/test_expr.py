import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingflow.expr import (ExprError, as_function, evaluate,
                              parse_expression, to_source)


def ev(src, **env):
    return evaluate(parse_expression(src), **env)


def test_basic_arithmetic():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("(1 + 2) * 3") == 9.0
    assert ev("2^3^2") == 512.0          # right associative
    assert ev("-2^2") == -4.0            # ^ binds tighter than unary minus
    assert ev("10 / 4") == 2.5
    assert ev("1 - 2 - 3") == -4.0       # left associative


def test_variables_and_functions():
    assert ev("r + theta + t", r=1.0, theta=2.0, t=3.0) == 6.0
    assert ev("sin(r)^2 + cos(r)^2", r=0.7) == pytest.approx(1.0)
    assert ev("max(r, theta)", r=1.0, theta=2.0) == 2.0
    assert ev("min(r, theta)", r=1.0, theta=2.0) == 1.0
    assert ev("sqrt(abs(-4))") == 2.0
    assert ev("exp(log(5))") == pytest.approx(5.0)


def test_scientific_notation():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E+2") == 250.0
    assert ev("1.5e2 + 1") == 151.0


def test_array_evaluation():
    theta = np.linspace(0.0, 2 * math.pi, 17)
    vals = ev("0.5 * cos(theta)", theta=theta)
    np.testing.assert_allclose(vals, 0.5 * np.cos(theta))


@pytest.mark.parametrize("src", [
    "", "   ", "1 +", "(1", "1)", "sin()", "sin(1, 2)", "max(1)",
    "foo(1)", "x + 1", "1 ** 2", "2..3", "1 2",
])
def test_parse_errors(src):
    with pytest.raises(ExprError):
        parse_expression(src)


def test_error_carries_offset():
    with pytest.raises(ExprError) as exc_info:
        parse_expression("1 + bogus")
    assert exc_info.value.offset == 4


def test_unbound_variable():
    node = parse_expression("r + 1")
    with pytest.raises(ExprError):
        evaluate(node)


def test_as_function():
    f = as_function("r * cos(theta)")
    assert f(r=2.0, theta=0.0, t=0.0) == 2.0
    assert f.expression is not None
    for src in ("1/0", "r/(t - t)", "2^2000"):
        with pytest.raises(ExprError):
            as_function(src)(r=1.0, theta=0.0, t=0.0)


# random expression generator for the round-trip property


def _exprs():
    numbers = st.floats(min_value=-100, max_value=100,
                        allow_nan=False, allow_infinity=False).map(
        lambda x: f"{x!r}")
    atoms = st.one_of(numbers, st.sampled_from(["r", "theta", "t"]))

    def extend(children):
        binop = st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})")
        call1 = st.tuples(st.sampled_from(["sin", "cos", "tanh", "abs"]),
                          children).map(lambda p: f"{p[0]}({p[1]})")
        call2 = st.tuples(st.sampled_from(["min", "max"]), children,
                          children).map(lambda p: f"{p[0]}({p[1]}, {p[2]})")
        neg = children.map(lambda s: f"(-{s})")
        return st.one_of(binop, call1, call2, neg)

    return st.recursive(atoms, extend, max_leaves=25)


@settings(max_examples=1000, deadline=None)
@given(_exprs(), st.floats(0.1, 5), st.floats(-3, 3), st.floats(0, 2))
def test_print_parse_roundtrip(src, r, theta, t):
    node = parse_expression(src)
    printed = to_source(node)
    reparsed = parse_expression(printed)

    def run(n):
        # scalar division by zero and pow overflow raise in python floats;
        # both sides must then raise identically
        try:
            return repr(evaluate(n, r=r, theta=theta, t=t))
        except (ZeroDivisionError, OverflowError) as exc:
            return type(exc).__name__

    # bit-identical: same AST evaluated along the same path
    assert run(node) == run(reparsed)
    # and printing is a fixed point after one pass
    assert to_source(reparsed) == printed
