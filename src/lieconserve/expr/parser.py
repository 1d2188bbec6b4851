"""Text to expression trees.

Grammar: identifiers ``[A-Za-z][A-Za-z0-9_]*`` (a trailing run of apostrophes
is accepted so printed derivative symbols like ``a'`` read back), the jet
alphabet (``t x u u_x u_t u_xx u_xt u_tt v v_t v_x`` and deeper spellings up
to third order, any subscript order), ``+ - * / ^`` with standard precedence,
``^`` right-associative, unary minus binding tighter than ``*``, parentheses,
``name(arg, ...)`` application of registered function symbols, and integer or
decimal literals read as exact rationals.  The result is normalized, so
``parse(to_text(e)) == e``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .functions import DEFAULT_TABLE, FunctionTable, UnknownFunctionError
from .tree import (Const, Expr, ExprError, Func, JET_NAME_RE, Jet,
                   MAX_JET_ORDER, Param, add, constant_value, mul, neg, power)


class ExprSyntaxError(ValueError):
    """Carries the 0-based offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (offset %d)" % (message, position))
        self.position = position


class UnknownSymbolError(ExprSyntaxError):
    pass


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*'*)|(?P<op>[-+*/^(),]))"
)

# binding powers
_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_MINUS_BP = 25  # tighter than * and /, looser than ^


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError("unexpected character %r" % stripped[0],
                                  len(text) - len(stripped))
        if m.group("num"):
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _symbol_for(name: str, pos: int, table: FunctionTable) -> Expr:
    if name in ("t", "x"):
        return Jet(name)
    m = JET_NAME_RE.match(name)
    if m:
        subs = m.group(2) or ""
        nx, nt = subs.count("x"), subs.count("t")
        if nx + nt > MAX_JET_ORDER:
            raise ExprSyntaxError("jet symbol %r exceeds supported order %d"
                                  % (name, MAX_JET_ORDER), pos)
        return Jet(m.group(1), nx, nt)
    if name in table and table[name].arity == 0:
        return Param(name)
    raise UnknownSymbolError("unknown symbol %r" % name, pos)


class _Parser:
    def __init__(self, text: str, table: FunctionTable):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, op: str):
        t = self.tok
        if t.kind != "op" or t.text != op:
            raise ExprSyntaxError("expected %r" % op, t.pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expression(0)
        t = self.tok
        if t.kind != "end":
            raise ExprSyntaxError("unexpected %r" % (t.text,), t.pos)
        return e

    def expression(self, rbp: int) -> Expr:
        left = self.nud(self.advance())
        while True:
            t = self.tok
            if t.kind != "op" or t.text not in _BP or _BP[t.text] <= rbp:
                break
            self.advance()
            left = self.led(t, left)
        return left

    def nud(self, t: _Token) -> Expr:
        if t.kind == "num":
            try:
                return Const(Fraction(t.text))
            except ValueError:      # past Python's integer-string limit
                raise ExprSyntaxError("number literal too long", t.pos) from None
        if t.kind == "name":
            nxt = self.tok
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(t)
            return _symbol_for(t.text, t.pos, self.table)
        if t.kind == "op":
            if t.text == "(":
                e = self.expression(0)
                self.expect(")")
                return e
            if t.text == "-":
                return neg(self.expression(_UNARY_MINUS_BP))
            if t.text == "+":
                return self.expression(_UNARY_MINUS_BP)
        if t.kind == "end":
            raise ExprSyntaxError("unexpected end of input", t.pos)
        raise ExprSyntaxError("unexpected %r" % t.text, t.pos)

    def call(self, name_tok: _Token) -> Expr:
        try:
            fdef = self.table[name_tok.text]
        except UnknownFunctionError:
            raise UnknownSymbolError("unknown function symbol %r" % name_tok.text,
                                     name_tok.pos) from None
        self.expect("(")
        args = [self.expression(0)]
        while self.tok.kind == "op" and self.tok.text == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        if len(args) != fdef.arity:
            raise ExprSyntaxError(
                "%s takes %d argument(s), got %d" % (fdef.name, fdef.arity, len(args)),
                name_tok.pos)
        return Func(fdef.name, args)

    def led(self, t: _Token, left: Expr) -> Expr:
        if t.text == "+":
            return add(left, self.expression(_BP["+"]))
        if t.text == "-":
            return add(left, neg(self.expression(_BP["-"])))
        if t.text == "*":
            return mul(left, self.expression(_BP["*"]))
        if t.text == "/":
            denominator = self.expression(_BP["/"])
            try:
                return mul(left, power(denominator, -1))
            except ExprError as err:
                raise ExprSyntaxError(str(err), t.pos) from None
        if t.text == "^":
            exp = constant_value(self.expression(_BP["^"] - 1))  # right-associative
            if exp is None:
                raise ExprSyntaxError("exponent must reduce to a rational constant",
                                      t.pos)
            try:
                return power(left, exp)
            except Exception as err:
                raise ExprSyntaxError(str(err), t.pos) from None
        raise ExprSyntaxError("unexpected %r" % t.text, t.pos)


def parse(text: str, table: FunctionTable | None = None) -> Expr:
    """Parse text into a normalized expression."""
    table = table if table is not None else DEFAULT_TABLE
    return _Parser(text, table).parse()
