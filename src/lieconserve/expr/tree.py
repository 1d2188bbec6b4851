"""Normalized expressions over jet coordinates and opaque function symbols.

A normalized expression is a sparse sum ``{monomial: coefficient}`` with
nonzero exact rational coefficients.  A monomial is a tuple of ``(atom,
exponent)`` pairs sorted by atom, with nonzero integer exponents.  Atoms are
``Jet``, ``Param``, ``Func`` and the opaque ``Pow``.  The constructors keep
this form: sums and products merge dictionaries, integer exponents of one
atom add up, products distribute over sums, and positive integer powers of
sums expand up to ``_EXPAND_POW_CAP``.  A non-integer power is one atom,
never distributed or merged with its base: ``(u*x)^(1/2)`` is not
``u^(1/2)*x^(1/2)``, and ``(u^(1/2))^2`` is not ``u``, where u < 0.  A lone
atom is represented by itself, so ``==`` is structural equality.  Quotients
by sums stay factored; there is no rational-function normal form.

Atoms subclass ``str``: the string is the atom's canonical printed text, so
hashing, equality and the ordering of monomials run at C speed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Union

Rational = Union[int, Fraction]

MAX_JET_ORDER = 3

# Expanding (x + y)^n is bounded so normalization stays cheap; past the cap
# the power of a sum is one opaque atom.
_EXPAND_POW_CAP = 8

# Clearing denominators multiplies sums out; when a product could pass this
# many terms ``cleared_numerator`` gives up, and the zero test samples
# instead.  The cap bounds the work of each clearing round.
_CLEAR_TERM_CAP = 1000

# Exact constants stay printable: Python refuses str() of an integer past
# 4300 digits, so printing refuses any numerator, denominator or exponent
# past this many bits, and constant powers that would pass it raise.
_MAX_CONST_BITS = 13000        # about 3900 decimal digits

JET_NAME_RE = re.compile(r"^([uv])(?:_([xt]+))?$")

# binding strength of printed text, for parenthesization
_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 100


class ExprError(Exception):
    """Malformed expression construction or manipulation."""


class JetDepthError(ExprError):
    """A jet symbol beyond the supported derivative order was requested."""


def jet_name(field: str, nx: int, nt: int) -> str:
    if nx == 0 and nt == 0:
        return field
    return field + "_" + "x" * nx + "t" * nt


def _rational(value) -> Rational:
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Expr:
    """Base class of normalized expressions: ``Sum`` and the atoms."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return mul(self, power(as_expr(other), -1))

    def __rtruediv__(self, other):
        return mul(as_expr(other), power(self, -1))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, to_text(self))


class Sum(Expr):
    """Every normalized expression that is not a lone atom."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __eq__(self, other):
        return self is other or (isinstance(other, Sum) and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Const(Sum):
    """A rational constant."""

    __slots__ = ()

    def __init__(self, value: Rational):
        value = _rational(value)
        super().__init__({(): value} if value else {})


class Atom(Expr, str):
    """An indivisible factor; the string value is its canonical text."""

    prec = _PREC_ATOM

    @property
    def terms(self) -> dict:
        return {((self, 1),): 1}

    def __str__(self):
        return str.__str__(self)

    def __reduce__(self):
        return type(self), self._init


class Jet(Atom):
    """A jet-space coordinate: ``t``, ``x``, or a field derivative.

    ``field`` is one of ``t``/``x`` (base coordinates, no subscripts) or
    ``u``/``v`` with ``nx`` x-derivatives and ``nt`` t-derivatives.  Mixed
    subscripts are canonical with every ``x`` before every ``t``.
    """

    def __new__(cls, field: str, nx: int = 0, nt: int = 0):
        if field in ("t", "x"):
            if nx or nt:
                raise ExprError("coordinates t, x carry no jet subscripts")
        elif field in ("u", "v"):
            if nx < 0 or nt < 0:
                raise ExprError("negative derivative count")
            if nx + nt > MAX_JET_ORDER:
                raise JetDepthError(
                    "jet symbols are supported up to order %d, got %s"
                    % (MAX_JET_ORDER, jet_name(field, nx, nt)))
        else:
            raise ExprError("unknown field %r" % (field,))
        self = str.__new__(cls, jet_name(field, nx, nt))
        self.field, self.nx, self.nt = self._init = field, nx, nt
        return self

    @property
    def order(self) -> int:
        return self.nx + self.nt


class Param(Atom):
    """A named scalar parameter, independent of t, x and the fields."""

    def __new__(cls, name: str):
        if name in ("t", "x") or JET_NAME_RE.match(name):
            raise ExprError("%r names a jet coordinate, not a parameter" % name)
        self = str.__new__(cls, name)
        self.name, self._init = name, (name,)
        return self


class Func(Atom):
    """Application of an opaque function symbol to argument expressions."""

    def __new__(cls, name: str, args):
        args = tuple(as_expr(a) for a in args)
        self = str.__new__(cls, "%s(%s)" % (name, ", ".join(_render(a, 0) for a in args)))
        self.name, self.args = self._init = name, args
        return self


class Pow(Atom):
    """An opaque power ``base^exponent``, built only by ``power``.

    Either the exponent is a positive non-integer, or the base is a sum and
    the exponent is -1 (its reciprocal) or an integer past the expansion
    cap.  In a monomial the reciprocal of a sum only ever carries positive
    exponents.  Like a non-integer power, a power past the cap is not
    merged with other powers of its base: ``((1 + u)^9)^2`` stays apart
    from ``(1 + u)^18``.
    """

    def __new__(cls, base: Expr, exponent: Fraction):
        text = _render(base, _PREC_POW + 1)
        if exponent == -1:
            self = str.__new__(cls, "1/" + text)
            self.prec = _PREC_MUL
        else:
            q = _num_text(exponent)
            if exponent.denominator != 1:
                q = "(" + q + ")"
            self = str.__new__(cls, text + "^" + q)
            self.prec = _PREC_POW
        self.base, self.exponent = self._init = base, exponent
        return self


ZERO = Const(0)
ONE = Const(1)
TWO = Const(2)

T = Jet("t")
X = Jet("x")
U = Jet("u")
U_X = Jet("u", 1, 0)
U_T = Jet("u", 0, 1)
U_XX = Jet("u", 2, 0)
U_XT = Jet("u", 1, 1)
U_TT = Jet("u", 0, 2)
V = Jet("v")
V_X = Jet("v", 1, 0)
V_T = Jet("v", 0, 1)

# The formal argument of function instantiations: ``a := w + w^3/3``.
W = Param("w")


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(value)
    raise ExprError("cannot interpret %r as an expression" % (value,))


def constant_value(e: Expr) -> Optional[Rational]:
    """The value of a constant expression, None for anything else."""
    if isinstance(e, Atom):
        return None
    if not e.terms:
        return 0
    return e.terms.get(()) if len(e.terms) == 1 else None


# ---------------------------------------------------------------------------
# dictionary arithmetic


def from_terms(terms: dict) -> Expr:
    """The expression for a term dictionary: a lone atom stands for itself."""
    if len(terms) == 1:
        for mono, c in terms.items():
            if c == 1 and len(mono) == 1 and mono[0][1] == 1:
                return mono[0][0]
    return Sum(terms)


def _accumulate(out: dict, mono: tuple, c: Rational) -> None:
    prev = out.get(mono)
    if prev is None:
        out[mono] = c
    else:
        c += prev
        if c:
            out[mono] = c
        else:
            del out[mono]


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for a, k in m2:
        k += merged.get(a, 0)
        if k:
            merged[a] = k
        else:
            del merged[a]
    return tuple(sorted(merged.items()))


def _mul_terms(p: dict, q: dict) -> dict:
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1 and () in p:
        c = p[()]
        return q if c == 1 else {m: c * v for m, v in q.items()}
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _accumulate(out, _mono_mul(m1, m2), c1 * c2)
    return out


def _mono_power(mono: tuple, c: Rational, n: int) -> Expr:
    """(c * mono)^n for an integer n: atom exponents multiply."""
    kept = []
    sums = []
    for a, k in mono:
        if k * n < 0 and isinstance(a, Pow) and a.exponent == -1:
            sums.append(_int_power(a.base, -k * n))     # 1/(1/s) is s
        else:
            kept.append((a, k * n))
    width = max(c.numerator.bit_length(), c.denominator.bit_length()) - 1
    if abs(n) > 1 and abs(n) * width > _MAX_CONST_BITS:
        raise ExprError("constant power too large: exact constants are "
                        "limited to %d bits" % _MAX_CONST_BITS)
    coeff = Fraction(c) ** n if n < 0 else c ** n
    terms = {tuple(kept): _rational(coeff)}
    for s in sums:
        terms = _mul_terms(terms, s.terms)
    return from_terms(terms)


def _int_power(e: Expr, n: int) -> Expr:
    """e^n: a monomial distributes, a sum expands up to the cap, a negative
    power of a sum is a power of its reciprocal atom."""
    if n == 1:
        return e
    if n == 0:
        return ONE
    terms = e.terms
    if not terms:
        if n < 0:
            raise ExprError("zero raised to a negative power")
        return ZERO
    if len(terms) == 1:
        (mono, c), = terms.items()
        return _mono_power(mono, c, n)
    if n < 0:
        return from_terms({((Pow(e, Fraction(-1)), -n),): 1})
    if n > _EXPAND_POW_CAP:
        return Pow(e, Fraction(n))
    out = terms
    for _ in range(n - 1):
        out = _mul_terms(out, terms)
    return from_terms(out)


# ---------------------------------------------------------------------------
# normalizing constructors


def add(*terms) -> Expr:
    nonzero = [t for t in map(as_expr, terms) if t.terms]
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ZERO
    out = dict(nonzero[0].terms)
    for t in nonzero[1:]:
        for m, c in t.terms.items():
            _accumulate(out, m, c)
    return from_terms(out)


def mul(*factors) -> Expr:
    if len(factors) == 1:
        return as_expr(factors[0])
    terms = None
    for f in factors:
        ft = as_expr(f).terms
        terms = ft if terms is None else _mul_terms(terms, ft)
        if not terms:
            return ZERO
    return ONE if terms is None else from_terms(terms)


def neg(e) -> Expr:
    return from_terms({m: -c for m, c in as_expr(e).terms.items()})


def power(base, exponent) -> Expr:
    if isinstance(exponent, Expr):
        value = constant_value(exponent)
        if value is None:
            raise ExprError("exponents must be exact rationals")
        exponent = value
    q = Fraction(exponent)
    base = as_expr(base)
    if q.denominator == 1:
        return _int_power(base, q.numerator)
    if not base.terms:
        if q < 0:
            raise ExprError("zero raised to a negative power")
        return ZERO
    if q > 0:
        return Pow(base, q)
    return from_terms({((Pow(base, -q), -1),): 1})


def normalize(e) -> Expr:
    """Every expression is built normalized; this only accepts numbers too."""
    return as_expr(e)


class _PastCap(Exception):
    """Clearing denominators would pass ``_CLEAR_TERM_CAP`` terms."""


def _capped_mul(p: dict, q: dict) -> dict:
    if len(p) * len(q) > _CLEAR_TERM_CAP:
        raise _PastCap
    return _mul_terms(p, q)


def cleared_numerator(e: Expr) -> Optional[Expr]:
    """e times its denominators, or None once a product that this takes
    could pass ``_CLEAR_TERM_CAP`` terms.

    With ``K`` the largest exponent of a reciprocal atom ``1/s`` in e, each
    monomial's ``(1/s)^k`` is replaced by ``s^(K - k)``: the result is e
    times the product of the ``s^K``.  Reciprocals inside a cleared s come
    in with it and are cleared in the next round.  So wherever every cleared
    s is nonzero, which is wherever e is defined, the result vanishes
    exactly where e does.
    """
    terms = as_expr(e).terms
    try:
        while True:
            top: dict = {}
            for mono in terms:
                for a, k in mono:
                    if isinstance(a, Pow) and a.exponent == -1 and k > top.get(a, 0):
                        top[a] = k
            if not top:
                return from_terms(terms)
            powers = {a: [ONE.terms] for a in top}     # s^0, s^1, ...
            factors: dict = {}        # missing exponents -> product of powers
            emitted = 0
            out: dict = {}
            for mono, c in terms.items():
                have = dict(mono)
                missing = tuple(K - have.get(a, 0) for a, K in top.items())
                factor = factors.get(missing)
                if factor is None:
                    factor = ONE.terms
                    for a, j in zip(top, missing):
                        ps = powers[a]
                        while len(ps) <= j:
                            ps.append(_capped_mul(ps[-1], a.base.terms))
                        factor = _capped_mul(factor, ps[j])
                    factors[missing] = factor
                emitted += len(factor)
                if emitted > _CLEAR_TERM_CAP:
                    raise _PastCap
                kept = tuple((a, k) for a, k in mono if a not in top)
                for m, v in factor.items():
                    _accumulate(out, _mono_mul(kept, m), c * v)
            terms = out
    except _PastCap:
        return None


# ---------------------------------------------------------------------------
# traversal and queries


def atoms(e: Expr) -> set:
    """Every atom in e, including those inside arguments and bases."""
    if isinstance(e, Atom):
        out = {e}
    else:
        out = {a for mono in e.terms for a, _ in mono}
    for a in list(out):
        if isinstance(a, Func):
            for arg in a.args:
                out |= atoms(arg)
        elif isinstance(a, Pow):
            out |= atoms(a.base)
    return out


def walk(e: Expr) -> Iterator[Expr]:
    """e, then every atom inside it."""
    yield e
    yield from sorted(atoms(e) - {e})


def free_symbols(e: Expr) -> set:
    """All Jet and Param atoms occurring in e."""
    return {a for a in atoms(e) if isinstance(a, (Jet, Param))}


def function_names(e: Expr) -> set[str]:
    return {a.name for a in atoms(e) if isinstance(a, Func)}


def polynomial_terms(e: Expr, sym: Atom) -> list[tuple[int, Rational]]:
    """The ``(exponent, coefficient)`` terms of e, in term order, when e is
    a polynomial in the one symbol sym with rational coefficients; raises
    ExprError otherwise."""
    out = []
    for mono, c in as_expr(e).terms.items():
        if not mono:
            out.append((0, c))
        elif len(mono) == 1 and mono[0][0] == sym and mono[0][1] > 0:
            out.append((mono[0][1], c))
        else:
            raise ExprError("not a polynomial in %s: %s"
                            % (sym, _render_term(mono, c)[1]))
    return out


def max_jet_order(e: Expr) -> int:
    orders = [s.order for s in free_symbols(e) if isinstance(s, Jet) and s.field in ("u", "v")]
    return max(orders, default=0)


def replace_atoms(e: Expr, replace: Callable[[Atom], Optional[Expr]]) -> Expr:
    """Rebuild e with each atom a replaced by ``replace(a)``; None keeps it.

    ``replace`` is called once per distinct atom."""
    new: dict = {}
    out: dict = {}
    for mono, c in as_expr(e).terms.items():
        kept = []
        factors = []
        for a, k in mono:
            if a not in new:
                new[a] = replace(a)
            r = new[a]
            if r is None:
                kept.append((a, k))
            else:
                factors.append(_int_power(r, k).terms)
        if not factors:
            _accumulate(out, mono, c)
            continue
        terms = {tuple(kept): c}
        for f in factors:
            terms = _mul_terms(terms, f)
        for m, v in terms.items():
            _accumulate(out, m, v)
    return from_terms(out)


def substitute(e: Expr, bindings: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous substitution of Jet/Param symbols; result is normalized."""
    for target in bindings:
        if not isinstance(target, (Jet, Param)):
            raise ExprError("substitution targets must be symbols, got %r" % (target,))

    def replace(a: Atom) -> Optional[Expr]:
        if isinstance(a, Func):
            args = tuple(go(arg) for arg in a.args)
            return None if args == a.args else Func(a.name, args)
        if isinstance(a, Pow):
            base = go(a.base)
            return None if base == a.base else power(base, a.exponent)
        value = bindings.get(a)
        return None if value is None else as_expr(value)

    def go(expr: Expr) -> Expr:
        return replace_atoms(expr, replace)

    return go(as_expr(e))


# ---------------------------------------------------------------------------
# printing: terms and factors are ordered once, here

def _frac_key(c: Rational) -> tuple:
    return (c.numerator, c.denominator)


def _expr_key(e: Expr) -> tuple:
    """Print order of expressions: constants, t and x, parameters, function
    applications, the fields by order, powers, products, sums."""
    if isinstance(e, Jet):
        if e.field in ("t", "x"):
            return (1, e.field)
        return (4, e.field, e.order, e.nx, e.nt)
    if isinstance(e, Param):
        return (2, e.name)
    if isinstance(e, Func):
        return (3, e.name, len(e.args)) + tuple(_expr_key(a) for a in e.args)
    if isinstance(e, Pow):
        return _factor_key(e, 1)
    terms = sorted(e.terms.items(), key=_term_order)
    if len(terms) == 1:
        return _term_key(*terms[0])
    if not terms:
        return (0, (0, 1))
    return (7, len(terms)) + tuple(_term_key(m, c) for m, c in terms)


def _factor_key(a: Atom, k: int) -> tuple:
    base, q = (a.base, a.exponent * k) if isinstance(a, Pow) else (a, k)
    if q == 1:
        return _expr_key(base)
    return (5, _expr_key(base), _frac_key(q))


def _mono_key(mono: tuple) -> tuple:
    keys = sorted(_factor_key(a, k) for a, k in mono)
    return keys[0] if len(keys) == 1 else (6, len(keys)) + tuple(keys)


def _term_key(mono: tuple, c: Rational) -> tuple:
    if not mono:
        return (0, _frac_key(c))
    if c < 0:
        return (8, _term_key(mono, -c))
    if c == 1:
        return _mono_key(mono)
    keys = sorted(_factor_key(a, k) for a, k in mono)
    return (6, len(keys) + 1, (0, _frac_key(c))) + tuple(keys)


def _term_order(item) -> tuple:
    mono, _ = item
    return (0,) if not mono else (1, _mono_key(mono), mono)


def _render(e: Expr, prec: int) -> str:
    if isinstance(e, Atom):
        text, p = str.__str__(e), e.prec
    else:
        text, p = _render_sum(e)
    return "(" + text + ")" if p < prec else text


def _num_text(c: Rational) -> str:
    """str(c), refusing a numerator or denominator past the size limit."""
    if max(c.numerator.bit_length(),
           c.denominator.bit_length()) > _MAX_CONST_BITS:
        raise ExprError("constant too large to print: exact constants are "
                        "limited to %d bits" % _MAX_CONST_BITS)
    return str(c)


def _render_term(mono: tuple, c: Rational) -> tuple[bool, str]:
    """Render a term as (is_negative, unsigned text)."""
    negative = c < 0
    c = abs(c)
    if not mono:
        return negative, _num_text(c)
    nums: list[str] = []
    dens: list[str] = []
    if c.numerator != 1:
        nums.append(_num_text(c.numerator))
    if c.denominator != 1:
        dens.append(_num_text(c.denominator))
    for a, k in sorted(mono, key=lambda f: _factor_key(*f)):
        if isinstance(a, Pow) and a.exponent == -1:
            # "1/(1 + u)^2" would read back as 1/(1 + 2*u + u^2)
            if k == 1:
                dens.append(_render(a.base, _PREC_MUL + 1))
            else:
                nums.append(_render(a.base, _PREC_POW + 1)
                            + "^(-" + _num_text(k) + ")")
            continue
        target = nums if k > 0 else dens
        k = abs(k)
        target.append(_render(a, _PREC_MUL + 1) if k == 1
                      else _render(a, _PREC_POW + 1) + "^" + _num_text(k))
    if not nums:
        nums.append("1")
    text = "*".join(nums)
    if dens:
        if len(dens) == 1:
            text += "/" + dens[0]
        else:
            text += "/(" + "*".join(dens) + ")"
    return negative, text


def _render_sum(e: Sum) -> tuple[str, int]:
    terms = sorted(e.terms.items(), key=_term_order)
    if not terms:
        return "0", _PREC_ATOM
    if len(terms) == 1:
        mono, c = terms[0]
        negative, text = _render_term(mono, c)
        if negative:
            return "-" + text, _PREC_NEG
        if not mono and c.denominator == 1:
            return text, _PREC_ATOM
        return text, _PREC_MUL
    parts = []
    for mono, c in terms:
        negative, text = _render_term(mono, c)
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append("-")
        parts.append(text)
    return "".join(parts), _PREC_ADD


def to_text(e: Expr) -> str:
    """Render e in the input grammar; parsing the result recovers e."""
    return _render(as_expr(e), 0)
