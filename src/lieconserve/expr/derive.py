"""Partial differentiation and polynomial integration, treating every jet
symbol as an independent coordinate.  Opaque function applications follow
the chain rule through their argument list, using the derivative rules of
the function table."""

from __future__ import annotations

from fractions import Fraction

from .functions import DEFAULT_TABLE, FunctionTable
from .tree import (Atom, Expr, ExprError, Func, Jet, ONE, Param, Pow, Sum,
                   ZERO, _accumulate, _mono_mul, _rational, add, as_expr,
                   free_symbols, from_terms, mul, power, to_text)


class UnsupportedIntegrand(ExprError):
    """The integrand is not a polynomial in the integration variable."""


def diff(e: Expr, sym: Expr, table: FunctionTable | None = None) -> Expr:
    """d e / d sym for a Jet or Param symbol; result is normalized."""
    if not isinstance(sym, (Jet, Param)):
        raise ExprError("can only differentiate with respect to a symbol")
    table = table if table is not None else DEFAULT_TABLE
    return _diff(as_expr(e), sym, table)


def integrate(e: Expr, sym: Expr) -> Expr:
    """The antiderivative in sym (a Jet or Param symbol) of e, a polynomial
    in sym whose coefficients are free of it, with constant term 0.  Raises
    UnsupportedIntegrand for a negative power of sym, or for sym inside a
    function argument or a power base."""
    if not isinstance(sym, (Jet, Param)):
        raise ExprError("can only integrate with respect to a symbol")
    out = {}
    for mono, c in as_expr(e).terms.items():
        k = 0
        rest = []
        for a, n in mono:
            if a == sym:
                if n < 0:
                    raise UnsupportedIntegrand("power %d of %s" % (n, sym))
                k = n
            elif isinstance(a, (Func, Pow)) and sym in free_symbols(a):
                raise UnsupportedIntegrand("%s inside %s" % (sym, to_text(a)))
            else:
                rest.append((a, n))
        rest.append((sym, k + 1))
        out[tuple(sorted(rest))] = _rational(Fraction(c, k + 1))
    return from_terms(out)


def _diff(e: Expr, s: Atom, table: FunctionTable) -> Expr:
    if isinstance(e, Atom):
        return _diff_atom(e, s, table)
    partials: dict = {}     # atom -> terms of its derivative
    out: dict = {}
    for mono, c in e.terms.items():
        for i, (a, k) in enumerate(mono):
            if a == s:
                da = None
            elif isinstance(a, (Jet, Param)):
                continue
            else:
                da = partials.get(a)
                if da is None:
                    da = partials[a] = _diff_atom(a, s, table).terms
                if not da:
                    continue
            if k == 1:
                rest = mono[:i] + mono[i + 1:]
            else:
                rest = mono[:i] + ((a, k - 1),) + mono[i + 1:]
            if da is None:
                _accumulate(out, rest, c * k)
            else:
                for m, v in da.items():
                    _accumulate(out, _mono_mul(rest, m), c * k * v)
    return from_terms(out)


def _diff_atom(a: Atom, s: Atom, table: FunctionTable) -> Expr:
    if isinstance(a, Func):
        fdef = table[a.name]
        if fdef.arity != len(a.args):
            raise ExprError("arity mismatch for %s" % a.name)
        pieces = []
        for i, arg in enumerate(a.args):
            darg = _diff(arg, s, table)
            if darg != ZERO:
                pieces.append(mul(table.derivative_term(fdef, i, a.args), darg))
        return add(*pieces)
    if isinstance(a, Pow):
        db = _diff(a.base, s, table)
        if db == ZERO:
            return ZERO
        if a.exponent == -1:        # d(1/b) = -db/b^2
            return mul(Sum({((a, 2),): -1}), db)
        return mul(a.exponent, power(a.base, a.exponent - 1), db)
    return ONE if a == s else ZERO
