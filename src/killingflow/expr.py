"""Tiny arithmetic expression language for boundary and initial data.

Grammar (recursive descent, ^ right-associative and binding tighter than
unary minus on its left operand):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Variables: r, theta, t.  Functions: sin cos tan sinh cosh tanh exp log
sqrt abs (1 argument) and min max (2 arguments).  Evaluation accepts
scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIABLES = ("r", "theta", "t")

_FUNCS_1 = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
}
_FUNCS_2 = {"min": np.minimum, "max": np.maximum}


class ExprError(ValueError):
    """Parse failure; carries the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(expected)})"
                            if expected else ""))
        self.offset = offset
        self.expected = expected


# AST nodes -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = object   # any of the node types above


# tokenizer -------------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            try:
                val = float(src[i:j])
            except ValueError:
                raise ExprError(f"bad number {src[i:j]!r}", i) from None
            tokens.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExprError(f"unexpected token {tok[1]!r}", tok[2], (kind,))
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take(self.peek()[0])[0]
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.take("-")
            return Unary("-", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            return Binary("^", base, self.factor())
        return base

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.take("num")
            return Num(float(value))
        if kind == "name":
            self.take("name")
            if self.peek()[0] == "(":
                self.take("(")
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                if value in _FUNCS_1:
                    if len(args) != 1:
                        raise ExprError(
                            f"{value} takes 1 argument, got {len(args)}",
                            offset)
                elif value in _FUNCS_2:
                    if len(args) != 2:
                        raise ExprError(
                            f"{value} takes 2 arguments, got {len(args)}",
                            offset)
                else:
                    raise ExprError(f"unknown function {value!r}", offset,
                                    tuple(sorted(_FUNCS_1) + sorted(_FUNCS_2)))
                return Call(value, tuple(args))
            if value not in VARIABLES:
                raise ExprError(f"unknown identifier {value!r}", offset,
                                VARIABLES)
            return Var(value)
        if kind == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ExprError(f"unexpected token {value!r}", offset,
                        ("number", "name", "("))


def parse_expression(src: str) -> Expr:
    """Parse the source text into an AST; errors carry byte offsets."""
    if not src or not src.strip():
        raise ExprError("empty expression", 0)
    p = _Parser(src)
    node = p.expr()
    kind, value, offset = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {value!r}", offset, (")",)
                        if value == ")" else ("end of input",))
    return node


def evaluate(node: Expr, **env):
    """Evaluate with variables from env (scalars or numpy arrays).  numpy
    arithmetic runs with its floating-point warnings off: a division by
    zero or an overflow gives inf or nan, which the caller checks (the
    flow rejects a non-finite u0 or phi); Python floats still raise."""
    with np.errstate(all="ignore"):
        return _evaluate(node, env)


def _evaluate(node: Expr, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprError(f"unbound variable {node.name!r}", 0)
        return env[node.name]
    if isinstance(node, Unary):
        return -_evaluate(node.arg, env)
    if isinstance(node, Binary):
        a = _evaluate(node.left, env)
        b = _evaluate(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a ** b
    if isinstance(node, Call):
        fn = _FUNCS_1.get(node.func) or _FUNCS_2[node.func]
        return fn(*(_evaluate(arg, env) for arg in node.args))
    raise TypeError(f"not an expression node: {node!r}")


def to_source(node: Expr) -> str:
    """Print the AST back to source; parsing the output reproduces the AST
    evaluation path exactly (fully parenthesized form)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{to_source(node.arg)})"
    if isinstance(node, Binary):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


def as_function(src: str):
    """Compile source to a callable f(**env) over the declared variables.

    Python-float arithmetic raises on data such as 1/0 or 2^2000; the
    callable reports those as ExprError, like a parse failure.
    """
    node = parse_expression(src)

    def f(**env):
        try:
            return evaluate(node, **env)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ExprError(f"cannot evaluate {src!r}: {exc}", 0) from None

    f.expression = node
    return f
