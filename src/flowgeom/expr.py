"""Arithmetic expression language for user-defined coefficient fields.

Grammar (precedence low to high)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^', so ``-x1^2`` is ``-(x1^2)``.
Variables are ``x1 .. xn`` (1-based in source, 0-based in the tree).
Functions: sin cos tan exp log sqrt abs tanh sign.  Constants: pi, e.

Evaluation is plain IEEE double arithmetic and accepts scalar points or
batches (each variable an array); it is deterministic bit-for-bit for a
given input.  ``field(source, dim)`` is the one route from a config
expression, or a nested list of them, to values on a batch of points
``(..., dim)``: test functions, 1-forms and coefficient entries alike.

``derivative(t, j)`` is the symbolic partial derivative of a tree in ``x{j+1}``
with constant folding (sums and products with 0 or 1, constant operands):
a tree of the same grammar, so it evaluates, prints and re-parses like any
other.  At the kink of ``abs`` it takes ``sign(0) = 0``, the central
difference's value there.

>>> float(evaluate(parse("-x1^2"), [2.0]))
-4.0
>>> float(evaluate(parse("2*x1 + x2^3"), [1.5, 2.0]))
11.0
>>> to_source(parse("-(x1 + 1) * x2"))
'-(x1 + 1.0) * x2'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (ArityError, BadParams, DomainError, EvalFailure, ExprSyntaxError,
                     UnknownIdentifier)
from .linalg import _where, rows_like

__all__ = [
    "Expr", "Num", "Var", "Const", "Unary", "Binary", "Call",
    "parse", "evaluate", "field", "to_source", "max_var_index", "derivative",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Unary, Binary, Call]

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
    "sign": np.sign,
}
_CONSTS = {"pi": np.pi, "e": np.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            rest = source[pos:].lstrip()
            if not rest:
                break
            bad = pos + (len(source[pos:]) - len(rest))
            raise ExprSyntaxError(
                f"unexpected character {rest[0]!r} at offset {bad}", offset=bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(
                f"expected {op!r} at offset {off}, found {text or 'end of input'!r}",
                offset=off)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(
                f"unexpected {text!r} at offset {off}, expected operator or end",
                offset=off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = Binary(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = Binary(text, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCS:
                    raise UnknownIdentifier(
                        f"unknown function {text!r} at offset {off}", offset=off)
                self.advance()
                arg = self.expr()
                k2, t2, off2 = self.peek()
                if k2 == "op" and t2 == ",":
                    raise ArityError(
                        f"function {text!r} takes one argument (offset {off2})",
                        offset=off2)
                self.expect_op(")")
                return Call(text, arg)
            if re.fullmatch(r"x[1-9][0-9]*", text):
                return Var(int(text[1:]) - 1)
            if text in _CONSTS:
                return Const(text)
            if text in _FUNCS:
                raise ArityError(
                    f"function {text!r} needs parenthesized argument (offset {off})",
                    offset=off)
            raise UnknownIdentifier(
                f"unknown identifier {text!r} at offset {off}", offset=off)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"expected number, name, or '(' at offset {off}, found {text or 'end of input'!r}",
            offset=off)


def parse(source: str) -> Expr:
    """Parse a source string into an expression tree."""
    return _Parser(source).parse()


def max_var_index(e: Expr) -> int:
    """Largest variable index used (0-based); -1 if none."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return max_var_index(e.operand)
    if isinstance(e, Binary):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Call):
        return max_var_index(e.arg)
    return -1


def evaluate(e: Expr, point) -> float | np.ndarray:
    """Evaluate at ``point``, a sequence whose k-th entry is ``x{k+1}``.

    Entries may be scalars or equally-shaped arrays (batched evaluation).
    Raises DomainError on log/sqrt outside their domains, division by an
    exact zero, or any non-finite result from finite inputs (an overflow in
    any operation included).
    """
    try:
        with np.errstate(over="raise"):
            out = _eval(e, point)
    except FloatingPointError as exc:
        raise DomainError(f"overflow: {exc}") from None
    if np.ndim(out) == 0:
        return float(out)
    return out


def field(source, dim: int, names: list[str] | None = None
          ) -> Callable[[np.ndarray], np.ndarray]:
    """``source`` as a field on R^dim: a string or a tree, or a nested list of
    them of shape ``shape``, each parsed once.  ``f(y)`` maps ``y`` of shape
    ``(..., dim)`` to ``(..., *shape)`` in the layout of ``y``
    (``linalg.rows_like``).  A variable beyond ``x{dim}`` raises
    ``BadParams`` here, before any point is seen.

    An entry free of x is evaluated here, once, and broadcast over the batch;
    one whose evaluation faults (``log(0)``) is left to raise when ``f`` is
    called, as any other entry does.  Every other entry is one ``evaluate``
    call per call of ``f``, on the coordinates of ``y``, and an entry that
    leaves its domain raises ``DomainError``.  ``names``, one per entry in C
    order, marks a field of derivatives: there an entry that leaves its domain
    or gives a non-finite value raises ``EvalFailure`` naming the entry and
    the point, as the oracle's field calls do."""
    sources, shape = _entries(source)
    trees = [parse(s) if isinstance(s, str) else s for s in sources]
    for src, tree in zip(sources, trees):
        top = max_var_index(tree) + 1
        if top > dim:
            text = src if isinstance(src, str) else to_source(tree)
            raise BadParams(f"expression {text!r} uses x{top} but its points have "
                            f"dimension {dim}")
    const = np.zeros(shape)
    varying = []  # (entry, k, tree)
    for k, (entry, tree) in enumerate(zip(np.ndindex(*shape), trees)):
        if max_var_index(tree) < 0:
            try:
                const[entry] = evaluate(tree, ())
                continue
            except DomainError:
                pass
        varying.append((entry, k, tree))

    def f(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        coords = [y[..., i] for i in range(y.shape[-1])]
        out = rows_like(y, shape)
        out[...] = const
        for entry, k, tree in varying:
            try:
                out[(...,) + entry] = evaluate(tree, coords)
            except DomainError as exc:
                if names is None:
                    raise
                raise EvalFailure(f"{names[k]} failed near {_where(y)}: {exc}") from exc
        if names is not None and not np.isfinite(out).all():
            k = int(np.argmin(np.isfinite(out).reshape(-1, len(names)).all(axis=0)))
            raise EvalFailure(f"{names[k]} returned non-finite values near {_where(y)}")
        return out

    return f


def _entries(source) -> tuple[list, tuple[int, ...]]:
    """The entries of ``source``, a string or tree or a nested list of them,
    in C order, and the shape of the list; ``BadParams`` if it is ragged."""
    if not isinstance(source, (list, tuple)):
        return [source], ()
    parts = [_entries(s) for s in source]
    shapes = {shape for _, shape in parts}
    if len(shapes) > 1:
        raise BadParams(f"expression array {source!r} is ragged")
    inner = shapes.pop() if shapes else ()
    return [e for entries, _ in parts for e in entries], (len(parts),) + inner


def _check_finite(value, what: str):
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{what} produced a non-finite value")
    return value


def _eval(e: Expr, point):
    # literals as numpy scalars: Python float arithmetic ignores numpy's
    # error state, so an overflow among literals alone would give inf
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Const):
        return np.float64(_CONSTS[e.name])
    if isinstance(e, Var):
        if e.index >= len(point):
            raise ValueError(
                f"expression uses x{e.index + 1} but the point has dimension {len(point)}")
        return np.asarray(point[e.index], dtype=float)
    if isinstance(e, Unary):
        return -_eval(e.operand, point)
    if isinstance(e, Binary):
        lhs = _eval(e.left, point)
        rhs = _eval(e.right, point)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            if np.any(np.asarray(rhs) == 0.0):
                raise DomainError("division by zero")
            return lhs / rhs
        if e.op == "^":
            with np.errstate(invalid="ignore", divide="ignore"):
                return _check_finite(np.power(lhs, rhs), "power")
        raise AssertionError(e.op)
    if isinstance(e, Call):
        arg = _eval(e.arg, point)
        if e.func == "log" and np.any(np.asarray(arg) <= 0.0):
            raise DomainError("log of a non-positive value")
        if e.func == "sqrt" and np.any(np.asarray(arg) < 0.0):
            raise DomainError("sqrt of a negative value")
        if e.func == "tan":
            return _check_finite(np.tan(arg), "tan")
        return _FUNCS[e.func](arg)
    raise TypeError(f"not an expression node: {e!r}")


_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_source(e: Expr) -> str:
    """Canonical source string; ``parse(to_source(t)) == t`` for any tree
    whose literals are non-negative.  A negative literal (``derivative``
    folds constants into them) prints as ``-c`` and re-parses as ``Unary``
    over ``Num(c)``, which evaluates to the same value bit for bit."""
    return _print(e, 0)


def _print(e: Expr, parent_level: int) -> str:
    if isinstance(e, Num):
        text = repr(e.value)
        # a leading minus sign parses as unary minus, so it parenthesizes like one
        return f"({text})" if text[0] == "-" and parent_level > 3 else text
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, 0)})"
    if isinstance(e, Unary):
        inner = _print(e.operand, 3)
        text = f"-{inner}"
        return f"({text})" if parent_level > 3 else text
    if isinstance(e, Binary):
        lvl = _LEVEL[e.op]
        if e.op == "^":
            # right-associative; left operand must outrank '^'
            text = f"{_print(e.left, 5)}^{_print(e.right, 4)}"
        else:
            # left-associative; right operand printed at one level tighter
            text = f"{_print(e.left, lvl)} {e.op} {_print(e.right, lvl + 1)}"
        return f"({text})" if parent_level > lvl else text
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)


def _value(e: Expr) -> float | None:
    """The value of a literal (``Num``, ``Const`` or a negated literal), else None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return _CONSTS[e.name]
    if isinstance(e, Unary):
        inner = _value(e.operand)
        return None if inner is None else -inner
    return None


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """``Binary(op, a, b)`` with constant operands folded into one literal and
    the identities ``0 + b``, ``a - 0``, ``0 * b``, ``1 * b``, ``a / 1``,
    ``a ^ 1``, ``a ^ 0`` applied.  Folding keeps the value of every point
    where the unfolded tree evaluates."""
    va, vb = _value(a), _value(b)
    if va is not None and vb is not None:
        folded = _literal(Binary(op, Num(va), Num(vb)))
        if folded is not None:
            return folded
    if op == "+":
        if va == 0.0:
            return b
        if vb == 0.0:
            return a
    elif op == "-":
        if vb == 0.0:
            return a
        if va == 0.0:
            return _neg(b)
    elif op == "*":
        if va == 0.0 or vb == 0.0:
            return _ZERO
        if va == 1.0:
            return b
        if vb == 1.0:
            return a
    elif op == "/":
        if va == 0.0:
            return _ZERO
        if vb == 1.0:
            return a
    elif op == "^":
        if vb == 1.0:
            return a
        if vb == 0.0:
            return _ONE
    return Binary(op, a, b)


def _neg(e: Expr) -> Expr:
    v = _value(e)
    if v is not None:
        return _number(-v)
    if isinstance(e, Unary):
        return e.operand
    return Unary("-", e)


def derivative(e: Expr, j: int) -> Expr:
    """The partial derivative of ``e`` in ``x{j+1}`` (``j`` 0-based), folded.

    Every node and function of the grammar has its rule; ``abs`` gives
    ``sign(u) u'`` and ``sign`` gives 0.  A power ``u^v`` whose exponent is
    free of ``x{j+1}`` differentiates as ``v u^(v-1) u'``, one whose base is
    free of it as ``u^v log(u) v'``, any other as
    ``u^v (v' log(u) + v u' / u)``.
    """
    if isinstance(e, (Num, Const)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == j else _ZERO
    if isinstance(e, Unary):
        return _neg(derivative(e.operand, j))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du, dv = derivative(u, j), derivative(v, j)
        if e.op in "+-":
            return _fold(e.op, du, dv)
        if e.op == "*":
            return _fold("+", _fold("*", du, v), _fold("*", u, dv))
        if e.op == "/":
            # (u' - (u / v) v') / v: no v^2 that could underflow to zero
            return _fold("/", _fold("-", du, _fold("*", _fold("/", u, v), dv)), v)
        if e.op == "^":
            if dv == _ZERO:
                return _fold("*", _fold("*", v, _fold("^", u, _fold("-", v, _ONE))), du)
            log_u = _fold_call("log", u)
            if du == _ZERO:
                return _fold("*", _fold("*", e, log_u), dv)
            return _fold("*", e, _fold("+", _fold("*", dv, log_u),
                                       _fold("/", _fold("*", v, du), u)))
        raise AssertionError(e.op)
    if isinstance(e, Call):
        u = e.arg
        du = derivative(u, j)
        if du == _ZERO or e.func == "sign":
            return _ZERO
        if e.func == "sin":
            outer = Call("cos", u)
        elif e.func == "cos":
            outer = _neg(Call("sin", u))
        elif e.func == "tan":
            outer = _fold("+", _ONE, _fold("^", e, Num(2.0)))
        elif e.func == "exp":
            outer = e
        elif e.func == "log":
            return _fold("/", du, u)
        elif e.func == "sqrt":
            return _fold("/", du, _fold("*", Num(2.0), e))
        elif e.func == "abs":
            outer = Call("sign", u)
        elif e.func == "tanh":
            outer = _fold("-", _ONE, _fold("^", e, Num(2.0)))
        else:
            raise AssertionError(e.func)
        return _fold("*", outer, du)
    raise TypeError(f"not an expression node: {e!r}")


def _fold_call(func: str, u: Expr) -> Expr:
    """``Call(func, u)``, folded to a literal when ``u`` is one."""
    vu = _value(u)
    folded = None if vu is None else _literal(Call(func, Num(vu)))
    return Call(func, u) if folded is None else folded


def _literal(e: Expr) -> Num | None:
    """A node over literals as one literal; None where it leaves its domain
    or overflows, so that the error surfaces when the tree is evaluated."""
    try:
        with np.errstate(all="ignore"):
            v = float(_eval(e, ()))
    except DomainError:
        return None
    return _number(v) if np.isfinite(v) else None


def _number(v: float) -> Num:
    """``Num(v)``, with zero as +0.0: a folded zero is a derivative that vanishes."""
    return Num(v) if v != 0.0 else _ZERO
