import inspect
import math
import sys
import warnings

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
    # Python syntax outside the language
    "0x10", "1_0", "1j", "+r", "r // t", "r % t", "r if t else theta",
    "r.real", "sin(r=1)", "(1, 2)", "r and t", "not r", "True",
    "lambda: 1", "r # c", "2 ** 3", "sin(r,)", "max(r, t,)", "sin(*r)",
    "sin(^r)",
])
def test_parse_errors(src):
    with pytest.raises(ExprError):
        parse_expression(src)


def test_error_carries_offset():
    with pytest.raises(ExprError) as exc_info:
        parse_expression("1 + bogus")
    assert exc_info.value.offset == 4


@pytest.mark.parametrize("src, offset", [("2^x", 2), ("\t2 ^ 3 ^ x", 9),
                                         ("sin(1) + cos(1, 2)", 9),
                                         (" 1 ^", 4), ("(1", 0)])
def test_error_offset_indexes_the_source(src, offset):
    # Python reads ^ as ** and refuses leading blanks; offsets still index
    # the source as written
    with pytest.raises(ExprError) as exc_info:
        parse_expression(src)
    assert exc_info.value.offset == offset


@pytest.mark.parametrize("src", ["(" * 400 + "1" + ")" * 400,
                                 "0" + "+0" * 5000, "-" * 3000 + "1"],
                         ids=["parentheses", "sum", "minus"])
def test_deep_nesting_is_a_parse_error(src):
    with pytest.raises(ExprError):
        parse_expression(src)


def test_python_syntax_warnings_are_parse_errors():
    # Python's tokenizer warns on "1if"; the warning must not reach stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExprError):
            parse_expression("1if r else 2")
    assert not caught


def test_deep_evaluation_is_an_expr_error():
    # a tree the parser took can still be too deep for the caller's stack
    node = parse_expression("-" * 200 + "r")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(ExprError, match="nested too deeply"):
            evaluate(node, r=1.0)
    finally:
        sys.setrecursionlimit(limit)


def test_unbound_variable():
    node = parse_expression("r + 1")
    with pytest.raises(ExprError):
        evaluate(node)
    with pytest.raises(ExprError) as exc_info:
        evaluate(parse_expression(" 1 + r^2 * theta"), r=1.0)
    assert exc_info.value.offset == 11


@pytest.mark.parametrize("src, offset", [("1 + (-8)^(1/3)", 4),
                                         ("  r*(-8)^(1/3)", 4),
                                         ("\t2^0.5 * (-1)^0.5", 9),
                                         ("sin((-2.0)^r)", 4),
                                         ("1 + 1/0", 4),
                                         ("r + 10^400", 4),
                                         ("\tr * (2 - 1/(r - r))", 10)])
def test_evaluation_error_offset_indexes_the_source(src, offset):
    # an error raised while evaluating points at the node that raised it
    with pytest.raises(ExprError) as exc_info:
        as_function(src)(r=1.5, theta=0.0, t=0.0)
    assert exc_info.value.offset == offset
    assert str(exc_info.value).endswith(f"at offset {offset}")


def test_as_function():
    f = as_function("r * cos(theta)")
    assert f(r=2.0, theta=0.0, t=0.0) == 2.0
    assert f.expression is not None
    for src in ("1/0", "r/(t - t)", "2^2000", "(-8)^(1/3)",
                "abs((-8)^(1/3))", "(-r)^0.5"):
        with pytest.raises(ExprError):
            as_function(src)(r=1.0, theta=0.0, t=0.0)


def test_negative_base_on_arrays_is_nan():
    # numpy powers give nan, not complex, which the flow rejects as data
    vals = ev("theta^0.5", theta=np.array([-1.0, 4.0]))
    assert np.isnan(vals[0]) and vals[1] == 2.0


# random expression generator for the round-trip and oracle properties


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
        prefix = children.map(lambda s: f"-{s}")
        power = st.tuples(children, children).map(
            lambda p: f"{p[0]} ^ {p[1]}")
        return st.one_of(binop, call1, call2, neg, prefix, power)

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
        except (ZeroDivisionError, OverflowError, ExprError) as exc:
            return type(exc).__name__

    # bit-identical: same AST evaluated along the same path
    assert run(node) == run(reparsed)
    # and printing is a fixed point after one pass
    assert to_source(reparsed) == printed


# Python's own evaluation of the ** spelling, in a namespace that holds
# only the numpy functions and the variables
_NUMPY = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "abs": np.abs,
          "min": np.minimum, "max": np.maximum}


def _outcome(thunk):
    try:
        with np.errstate(all="ignore"):
            value = thunk()
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__
    return type(value), np.asarray(value).tobytes()


@settings(max_examples=500, deadline=None)
@given(_exprs(), st.floats(0.1, 5), st.floats(-3, 3), st.floats(0, 2))
def test_evaluation_matches_python(src, r, theta, t):
    env = {"r": r, "theta": theta, "t": t}
    want = _outcome(lambda: eval(src.replace("^", "**"),
                                 {"__builtins__": {}}, {**_NUMPY, **env}))
    try:
        got = _outcome(lambda: evaluate(parse_expression(src), **env))
    except ExprError as exc:
        # a complex intermediate value: Python carries it on, to a complex
        # result, a complex-arithmetic error, or a real abs()
        assert "complex value" in str(exc)
        assert (not isinstance(want, tuple) or issubclass(want[0], complex)
                or "abs(" in src)
        return
    assert got == want
