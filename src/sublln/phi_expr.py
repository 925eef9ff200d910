"""Parser and evaluator for one-variable shape-function expressions.

Grammar (ASCII, standard precedence, left associative):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | primary
    primary := NUMBER | "x" | "(" expr ")"
             | "abs" "(" expr ")"
             | "min" "(" expr "," expr ")" | "max" "(" expr "," expr ")"

Division is only accepted when the divisor is a nonzero constant
subexpression, which keeps every accepted expression total on the reals.
Evaluation is numpy-vectorized.  :meth:`PhiExpression.enclose` bounds every
float value of a tree on an interval (Moore, *Interval Analysis*, 1966).

The shape catalog of :mod:`sublln.lln_rates` builds its trees directly, with
one node the grammar lacks: :class:`Clip`, ``np.clip`` itself, since a
``min(max(x, lo), hi)`` tree differs in the sign of zero
(``np.clip(-0.0, 0.0, 1.0)`` is ``-0.0``).  A built tree may use one node
as both factors of a product, as ``d*d`` does; the node then runs once.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["PhiSyntaxError", "PhiExpression", "parse_phi"]


class PhiSyntaxError(ValueError):
    """Malformed expression; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Abs:
    operand: "Node"


@dataclass(frozen=True)
class Min:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Max:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Clip:
    operand: "Node"
    lo: float
    hi: float


Node = Union[Num, Var, Neg, Add, Sub, Mul, Div, Abs, Min, Max, Clip]

_BINARY = {
    Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv, Min: np.minimum, Max: np.maximum
}

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WS = re.compile(r"[ \t\r\n]*")


def _is_constant(node: Node) -> bool:
    match node:
        case Num():
            return True
        case Var():
            return False
        case Neg(a) | Abs(a):
            return _is_constant(a)
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Min(a, b) | Max(a, b):
            return _is_constant(a) and _is_constant(b)
    raise TypeError(f"unknown node {node!r}")


def _compile(node: Node):
    """The tree as a function of x, one numpy operation per node, in the tree's order; a node used twice runs once."""
    match node:
        case Num(v):
            return lambda x: v
        case Var():
            return lambda x: x
        case Neg(a):
            f = _compile(a)
            return lambda x: -f(x)
        case Abs(a):
            f = _compile(a)
            return lambda x: np.abs(f(x))
        case Clip(a, lo, hi):
            f = _compile(a)
            return lambda x: np.clip(f(x), lo, hi)
        case Mul(a, b) if b is a:
            f = _compile(a)
            return lambda x: (v := f(x)) * v
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Min(a, b) | Max(a, b):
            f, g, op = _compile(a), _compile(b), _BINARY[type(node)]
            return lambda x: op(f(x), g(x))
    raise TypeError(f"unknown node {node!r}")


def _finite(low, high):
    """The endpoints, or NaN for both wherever either is not finite; later nodes carry the NaN."""
    ok = np.isfinite(low) & np.isfinite(high)
    return np.where(ok, low, np.nan), np.where(ok, high, np.nan)


def _enclose(node: Node, lo, hi):
    match node:
        case Num(v):
            return v, v
        case Var():
            return lo, hi
        case Neg(a):
            low, high = _enclose(a, lo, hi)
            return _finite(-high, -low)
        case Add(a, b):
            (la, ha), (lb, hb) = _enclose(a, lo, hi), _enclose(b, lo, hi)
            return _finite(la + lb, ha + hb)
        case Sub(a, b):
            (la, ha), (lb, hb) = _enclose(a, lo, hi), _enclose(b, lo, hi)
            return _finite(la - hb, ha - lb)
        case Mul(a, b) | Div(a, b):
            (la, ha), (lb, hb) = _enclose(a, lo, hi), _enclose(b, lo, hi)
            op = _BINARY[type(node)]
            c = [op(la, lb), op(la, hb), op(ha, lb), op(ha, hb)]
            return _finite(np.minimum.reduce(c), np.maximum.reduce(c))
        case Abs(a):
            low, high = _enclose(a, lo, hi)
            return _finite(np.maximum(np.maximum(low, -high), 0.0), np.maximum(-low, high))
        case Min(a, b) | Max(a, b):
            (la, ha), (lb, hb) = _enclose(a, lo, hi), _enclose(b, lo, hi)
            op = _BINARY[type(node)]
            return _finite(op(la, lb), op(ha, hb))
        case Clip(a, c_lo, c_hi):
            low, high = _enclose(a, lo, hi)
            return _finite(np.clip(low, c_lo, c_hi), np.clip(high, c_lo, c_hi))
    raise TypeError(f"unknown node {node!r}")


@dataclass(frozen=True)
class PhiExpression:
    """Expression tree, parsed from ``source`` or built with a descriptive one; callable on scalars or numpy arrays."""

    source: str
    root: Node

    def __post_init__(self):
        object.__setattr__(self, "_run", _compile(self.root))

    def evaluate(self, x):
        with np.errstate(all="ignore"):  # IEEE results: a caller names the first point where phi is not finite
            out = self._run(x)
        if isinstance(x, np.ndarray) and np.ndim(out) == 0:
            return np.full(x.shape, float(out))
        return out

    __call__ = evaluate

    def enclose(self, lo, hi):
        """``(low, high)`` with ``low <= evaluate(x) <= high`` for every float x in ``[lo, hi]``; arrays broadcast.

        The endpoints are computed in ordinary round-to-nearest, with no widening and no
        tolerance, and still bound every *float* evaluation of this tree on ``[lo, hi]``.
        Over a box of arguments the exact result of ``+``, ``-``, ``*`` and ``/`` by a
        constant lies between its exact values at the corners, and ``abs``, ``min``, ``max``,
        ``clip`` and negation are bounded by the same operations on the endpoints.  Rounding
        to nearest is monotone, so each rounded endpoint bounds the rounded operation at
        every point of the box, and induction over the tree gives the claim.  It bounds
        the float evaluation, not the real-valued function.  Where an endpoint of any
        subtree is NaN or infinite, both endpoints are NaN: a NaN evaluation
        (``inf - inf``) could hide behind a finite ``min``, ``max`` or ``clip``, so
        nothing is claimed there.
        """
        with np.errstate(all="ignore"):
            low, high = _enclose(self.root, lo, hi)
        low, high, _, _ = np.broadcast_arrays(low, high, lo, hi)
        return low, high


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _byte_offset(self, char_pos: int) -> int:
        return len(self.text[:char_pos].encode("utf-8"))

    def error(self, message: str, char_pos: int | None = None):
        raise PhiSyntaxError(message, self._byte_offset(self.pos if char_pos is None else char_pos))

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def parse(self) -> Node:
        node = self.expr()
        if self.peek() != "":
            self.error("unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while (op := self.peek()) in ("*", "/"):
            op_pos = self.pos
            self.pos += 1
            rhs = self.unary()
            if op == "*":
                node = Mul(node, rhs)
            else:
                if not _is_constant(rhs):
                    self.error("divisor must be a constant expression", op_pos)
                if float(_compile(rhs)(0.0)) == 0.0:
                    self.error("division by a zero constant", op_pos)
                node = Div(node, rhs)
        return node

    def unary(self) -> Node:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.primary()

    def primary(self) -> Node:
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if m := _NUMBER.match(self.text, self.pos):
            if not math.isfinite(value := float(m.group())):
                self.error(f"number {m.group()!r} overflows to {value}")
            self.pos = m.end()
            return Num(value)
        if m := _NAME.match(self.text, self.pos):
            name = m.group()
            name_pos = self.pos
            self.pos = m.end()
            if name == "x":
                return Var()
            if name == "abs":
                self.expect("(")
                node = Abs(self.expr())
                self.expect(")")
                return node
            if name in ("min", "max"):
                self.expect("(")
                a = self.expr()
                self.expect(",")
                b = self.expr()
                self.expect(")")
                return Min(a, b) if name == "min" else Max(a, b)
            self.error(f"unknown name {name!r}", name_pos)
        self.error(f"unexpected character {ch!r}")


def parse_phi(text: str) -> PhiExpression:
    """Parse an expression in the shape-function grammar; positioned errors."""
    return PhiExpression(text, _Parser(text).parse())
