"""Tiny arithmetic expression language for boundary and initial data.

The language is Python's expression syntax cut down to: decimal numbers
(read as floats), the variables r, theta, t, unary minus, the binary
operators + - * / and ^ (power, Python's ``**``: right-associative, and
binding tighter than a unary minus on its left), and calls of sin cos tan
sinh cosh tanh exp log sqrt abs (1 argument) and min max (2 arguments).
Python's own parser reads the text (``ast.parse``) and one walk admits
only those nodes.  Evaluation accepts scalars or numpy arrays.
"""

from __future__ import annotations

import ast
import operator as op
import re
import warnings

import numpy as np

VARIABLES = ("r", "theta", "t")

_FUNCS_1 = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
_FUNCS_2 = {"min": np.minimum, "max": np.maximum}
_FUNCS = {**_FUNCS_1, **_FUNCS_2}
_BINOPS = {ast.Add: op.add, ast.Sub: op.sub, ast.Mult: op.mul,
           ast.Div: op.truediv, ast.Pow: op.pow}
_BAD_CHAR = re.compile(r"[^0-9A-Za-z_.\s+\-*/^(),]")
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class ExprError(ValueError):
    """Parse failure; carries the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(expected)})"
                            if expected else ""))
        self.offset = offset
        self.expected = expected


def parse_expression(src: str) -> ast.expr:
    """Parse the source text into a checked ``ast.expr`` whose constants
    are floats; errors carry offsets into src."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    bad = _BAD_CHAR.search(src)
    if bad:
        raise ExprError(f"unexpected character {bad.group()!r}", bad.start())
    if "**" in src:
        raise ExprError("unexpected '**' (power is ^)", src.index("**"))
    # Python reads ^ as **; one space per whitespace character keeps one
    # line, and eval mode refuses leading blanks
    text = re.sub(r"\s", " ", src).replace("^", "**")
    body = text.lstrip(" ")
    hats = [m.start() + k for k, m in enumerate(re.finditer(r"\^", src))]

    def at(p: int) -> int:
        # offset p of body, moved back over the blanks and each ^ before it
        p += len(text) - len(body)
        return p - sum(h < p for h in hats)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # "1if" and the like: reject
            tree = ast.parse(body, mode="eval").body
        _check(tree, body, at)
    except SyntaxError as exc:   # offset 0: at the end of the input
        raise ExprError(exc.msg, at(exc.offset - 1 if exc.offset
                                    else len(body))) from None
    except (RecursionError, MemoryError):
        raise ExprError("expression nested too deeply", 0) from None
    return tree


def _check(node: ast.AST, body: str, at) -> None:
    """Admit only the language's nodes; record each node's offset in the
    source and set each constant to the float of its source slice."""
    node.offset = at(node.col_offset)
    if isinstance(node, ast.Constant):
        literal = body[node.col_offset:node.end_col_offset]
        if _NUMBER.fullmatch(literal):
            node.value = float(literal)
            return
    elif isinstance(node, ast.Name):
        if node.id in VARIABLES:
            return
        raise ExprError(f"unknown identifier {node.id!r}",
                        at(node.col_offset), VARIABLES)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _check(node.operand, body, at)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        _check(node.left, body, at)
        return _check(node.right, body, at)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name not in _FUNCS:
            raise ExprError(f"unknown function {name!r}", at(node.col_offset),
                            tuple(sorted(_FUNCS_1) + sorted(_FUNCS_2)))
        arity = 1 if name in _FUNCS_1 else 2
        # Python takes a trailing comma, sin(r,); the language does not
        end = node.end_col_offset
        if (len(node.args) != arity or node.keywords
                or "," in body[node.args[-1].end_col_offset:end]):
            raise ExprError(f"{name} takes {arity} argument"
                            + "s" * (arity > 1), at(node.col_offset))
        for arg in node.args:
            _check(arg, body, at)
        return
    raise ExprError(f"unexpected {ast.get_source_segment(body, node)!r}",
                    at(node.col_offset))


def evaluate(node: ast.expr, **env):
    """Evaluate with variables from env (scalars or numpy arrays).  numpy
    arithmetic runs with its floating-point warnings off: a division by
    zero or an overflow gives inf or nan, which the caller checks (the
    flow rejects a non-finite u0 or phi); Python floats still raise, and
    a Python-float power with a complex value raises ExprError."""
    try:
        with np.errstate(all="ignore"):
            return _evaluate(node, env)
    except (RecursionError, MemoryError):
        raise ExprError("expression nested too deeply", 0) from None


def _evaluate(node: ast.expr, env: dict):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ExprError(f"unbound variable {node.id!r}", node.offset)
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.BinOp):
        left, right = _evaluate(node.left, env), _evaluate(node.right, env)
        try:
            value = _BINOPS[type(node.op)](left, right)
        except (ZeroDivisionError, OverflowError) as exc:
            exc.offset = node.offset    # the node that raised, for as_function
            raise
        if isinstance(value, complex):
            raise ExprError(f"{to_source(node)} has a complex value",
                            node.offset)
        return value
    return _FUNCS[node.func.id](*(_evaluate(a, env) for a in node.args))


def to_source(node: ast.expr) -> str:
    """Print the tree back to source; parsing the output gives the same
    tree, so evaluation takes the same path."""
    return ast.unparse(node).replace("**", "^")


def as_function(src: str):
    """Compile source to a callable f(**env) over the declared variables.

    Python-float arithmetic raises on data such as 1/0 or 2^2000; the
    callable reports those as ExprError, like a parse failure, at the
    offset of the operation that raised.
    """
    node = parse_expression(src)

    def f(**env):
        try:
            return evaluate(node, **env)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ExprError(f"cannot evaluate {src!r}: {exc}",
                            exc.offset) from None

    f.expression = node
    return f
