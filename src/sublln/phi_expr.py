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
Evaluation is numpy-vectorized.
"""

from __future__ import annotations

import math
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


Node = Union[Num, Var, Neg, Add, Sub, Mul, Div, Abs, Min, Max]

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


def _eval(node: Node, x):
    match node:
        case Num(v):
            return v
        case Var():
            return x
        case Neg(a):
            return -_eval(a, x)
        case Add(a, b):
            return _eval(a, x) + _eval(b, x)
        case Sub(a, b):
            return _eval(a, x) - _eval(b, x)
        case Mul(a, b):
            return _eval(a, x) * _eval(b, x)
        case Div(a, b):
            return _eval(a, x) / _eval(b, x)
        case Abs(a):
            return np.abs(_eval(a, x))
        case Min(a, b):
            return np.minimum(_eval(a, x), _eval(b, x))
        case Max(a, b):
            return np.maximum(_eval(a, x), _eval(b, x))
    raise TypeError(f"unknown node {node!r}")


@dataclass(frozen=True)
class PhiExpression:
    """Parsed expression; callable on scalars or numpy arrays."""

    source: str
    root: Node

    def evaluate(self, x):
        with np.errstate(all="ignore"):  # IEEE results: a caller names the first point where phi is not finite
            out = _eval(self.root, x)
        if isinstance(x, np.ndarray) and np.ndim(out) == 0:
            return np.full(x.shape, float(out))
        return out

    __call__ = evaluate


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
                if float(_eval(rhs, 0.0)) == 0.0:
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
