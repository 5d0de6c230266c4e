"""Small arithmetic expression language for coefficient fields and potentials.

Grammar (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* right-associative *)
    atom    = NUMBER | CONST | VAR
            | FUNC "(" expr { "," expr } ")"
            | "(" expr ")" ;
    NUMBER  = digits [ "." digits ] [ ("e"|"E") ["+"|"-"] digits ] ;
    VAR     = "x" | "x1" | ... | "xn" ;     (* "x" only when n = 1 *)
    CONST   = "pi" | "e" ;
    FUNC    = "sin" | "cos" | "exp" | "sqrt" | "abs" | "tanh"
            | "pow" | "min" | "max" ;

"^" binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``; the exponent
is parsed at the unary level, so ``2^-3`` is legal.  These are the rules of
Python's ``**``, so :func:`parse` hands the text, ``^`` spelled ``**``, to
Python's parser and maps its tree onto the grammar's nodes, refusing every
other node and number form.  Python's tokenizer also refuses an integer
with leading zeros (``007``; ``00.5`` is fine).  Expressions are immutable
trees; evaluation is pure and deterministic.  Division by zero and domain
violations (sqrt of a negative, ``0^-1``) raise :class:`EvalError` instead
of propagating NaN.

:func:`compile_expr` turns a tree, once, into one callable of a point: one
closure per node, with no walk over the tree per point.  It does the tree's
operations in the tree's order, with the same ``math`` functions, checks and
:class:`EvalError` messages, so its values are those of the tree bit for
bit.  :func:`evaluate` runs through it.
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from dataclasses import dataclass

FUNCTIONS = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, math.exp),
    "sqrt": (1, math.sqrt),
    "abs": (1, abs),
    "tanh": (1, math.tanh),
    "pow": (2, None),
    "min": (2, min),
    "max": (2, max),
}

CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax error with byte offset, expected-token note and source excerpt."""

    def __init__(self, offset, expected, source):
        self.offset = offset
        self.expected = expected
        lo, hi = max(0, offset - 12), min(len(source), offset + 12)
        self.excerpt = source[lo:hi]
        caret = " " * (offset - lo) + "^"
        super().__init__(
            f"expected {expected} at offset {offset}: {self.excerpt!r}\n"
            f"  {self.excerpt}\n  {caret}"
        )


class EvalError(ArithmeticError):
    """Domain or division error, reported with the offending subexpression."""

    def __init__(self, message, node):
        self.node = node
        super().__init__(f"{message} in subexpression '{pretty(node)}'")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    index: int  # zero-based coordinate


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expr = Num | Const | Var | Neg | BinOp | Call


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# characters outside the grammar's alphabet, and a "**" the user typed
_FOREIGN = re.compile(r"[^\w .+\-*/^(),]|\*\*", re.ASCII)
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_VAR = re.compile(r"x\d+", re.ASCII)


def parse(text, n):
    """Parse ``text`` as an expression in coordinates x1..xn.

    Raises :class:`ParseError` with an offset into ``text`` on malformed
    input or on identifiers outside the dimension.
    """
    body = re.sub(r"\s", " ", text).lstrip()  # eval mode takes no newline or leading blank
    lead = len(text) - len(body)
    # text offset of each character of ``src``: a "^" becomes two
    where = [lead + i for i, c in enumerate(body) for _ in range(1 + (c == "^"))] + [len(text)]

    def fail(col, expected):
        raise ParseError(where[max(0, min(col, len(where) - 1))], expected, text)

    if bad := _FOREIGN.search(body):
        raise ParseError(lead + bad.start(), "a token", text)
    src = body.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "2in x" warns first; make that its error
            tree = ast.parse(src, mode="eval").body
    except SyntaxError as exc:  # offset 0 marks the end; "; use an 0o prefix" is no advice here
        fail(exc.offset - 1 if exc.offset else len(src), f"an expression ({exc.msg.split(';')[0]})")

    def walk(node):
        at = node.col_offset
        if isinstance(node, ast.Constant):
            literal = src[at:node.end_col_offset]
            if not _NUMBER.fullmatch(literal):
                fail(at, "a number of digits, '.' and an exponent")
            return Num(float(literal))
        if isinstance(node, ast.Name):
            name = node.id
            if name in CONSTANTS:
                return Const(name)
            k = 1 if name == "x" and n == 1 else int(name[1:]) if _VAR.fullmatch(name) else 0
            if not 1 <= k <= n:
                fail(at, f"'(' after {name}" if name in FUNCTIONS else "a known identifier")
            return Var(k - 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return BinOp(_BINOPS[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in FUNCTIONS and node.func.col_offset == at:  # not (sin)(x)
            name, arity = node.func.id, FUNCTIONS[node.func.id][0]
            # the tree keeps no trailing comma: abs(x,) has one argument
            tail = src[node.args[-1].end_col_offset:node.end_col_offset] if node.args else ""
            if node.keywords or len(node.args) != arity or "," in tail:
                fail(at, f"{arity} argument(s) to {name}, with no trailing ','")
            return Call(name, tuple(walk(a) for a in node.args))
        fail(at, "a number, constant, coordinate, operator or function call")

    return walk(tree)


def evaluate(e, x):
    """Evaluate an expression tree at the point ``x`` (sequence of floats)."""
    return compile_expr(e, len(x))(x)


def compile_expr(e, n):
    """One callable of a point ``x``, a sequence of n coordinates, that
    evaluates ``e``: each node a closure over its children's closures and its
    own constant, so a point is no walk over the tree."""

    def lower(e):
        if isinstance(e, (Num, Const)):
            v = e.value if isinstance(e, Num) else CONSTANTS[e.name]
            return lambda x: v
        if isinstance(e, Var):
            i = e.index
            if i < n:
                return lambda x: float(x[i])

            def outside(x):
                raise EvalError(f"point has dimension {n}", e)
            return outside
        if isinstance(e, Neg):
            f = lower(e.arg)
            return lambda x: -f(x)
        if isinstance(e, BinOp):
            f, g = lower(e.left), lower(e.right)
            if e.op == "+":
                return lambda x: f(x) + g(x)
            if e.op == "-":
                return lambda x: f(x) - g(x)
            if e.op == "*":
                return lambda x: f(x) * g(x)
            if e.op == "/":
                def divide(x):
                    a = f(x)
                    b = g(x)
                    if b == 0.0:
                        raise EvalError("division by zero", e)
                    return a / b
                return divide
            return lambda x: _power(f(x), g(x), e)
        if isinstance(e, Call):
            fs = [lower(a) for a in e.args]
            if e.name == "pow":
                f, g = fs
                return lambda x: _power(f(x), g(x), e)
            fn = FUNCTIONS[e.name][1]
            if len(fs) == 2:
                f, g = fs

                def call2(x):
                    a = f(x)
                    b = g(x)
                    try:
                        return float(fn(a, b))
                    except (ValueError, OverflowError) as exc:
                        raise EvalError(str(exc), e) from exc
                return call2
            f, = fs
            sqrt = e.name == "sqrt"

            def call1(x):
                a = f(x)
                if sqrt and a < 0.0:
                    raise EvalError("sqrt of a negative number", e)
                try:
                    return float(fn(a))
                except (ValueError, OverflowError) as exc:
                    raise EvalError(str(exc), e) from exc
            return call1
        raise TypeError(f"not an expression node: {e!r}")

    return lower(e)


def reads_coordinates(e):
    """Whether the value of ``e`` depends on the point."""
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return reads_coordinates(e.arg)
    if isinstance(e, BinOp):
        return reads_coordinates(e.left) or reads_coordinates(e.right)
    return isinstance(e, Call) and any(map(reads_coordinates, e.args))


def _power(a, b, node):
    if a == 0.0 and b < 0.0:
        raise EvalError("zero raised to a negative power", node)
    try:
        r = a**b
    except (ZeroDivisionError, OverflowError) as exc:
        raise EvalError(str(exc), node) from exc
    if isinstance(r, complex):
        raise EvalError("negative base with non-integer exponent", node)
    return float(r)


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def pretty(e):
    """Render an expression; ``parse(pretty(e), n)`` returns an equal tree."""
    return _render(e, 0)


def _render(e, context):
    if isinstance(e, Num):
        text = repr(e.value)
        level = _LEVEL_ATOM if e.value >= 0 else _LEVEL_UNARY
    elif isinstance(e, Const):
        text, level = e.name, _LEVEL_ATOM
    elif isinstance(e, Var):
        text, level = f"x{e.index + 1}", _LEVEL_ATOM
    elif isinstance(e, Neg):
        text, level = "-" + _render(e.arg, _LEVEL_UNARY), _LEVEL_UNARY
    elif isinstance(e, Call):
        text = e.name + "(" + ", ".join(_render(a, 0) for a in e.args) + ")"
        level = _LEVEL_ATOM
    elif isinstance(e, BinOp):
        if e.op in "+-":
            text = _render(e.left, _LEVEL_ADD) + e.op + _render(e.right, _LEVEL_MUL)
            level = _LEVEL_ADD
        elif e.op in "*/":
            text = _render(e.left, _LEVEL_MUL) + e.op + _render(e.right, _LEVEL_UNARY)
            level = _LEVEL_MUL
        else:  # ^ right-associative: base must be an atom, exponent may be unary
            text = _render(e.left, _LEVEL_ATOM) + "^" + _render(e.right, _LEVEL_UNARY)
            level = _LEVEL_POW
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if level < context:
        return "(" + text + ")"
    return text
