"""Floating evaluation and the zero test.

Opaque function symbols of one argument are evaluated through polynomial
instantiations, expressions in the formal argument ``w``; primed symbols
evaluate as true derivatives of the instantiated polynomial, so identities
that hold for arbitrary smooth choices can be probed by sampling.
``evaluate`` takes floats or numpy arrays for the symbols.  ``is_zero``
answers structural zeros and zero numerators after clearing denominators
exactly, and otherwise samples jet points from a box that excludes a
neighbourhood of zero: one point in Python floats, then a numpy batch.
numpy is imported only for a batch or a numeric evaluation, so symbolic
work whose first points settle it never loads it.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

from .derive import diff
from .functions import DEFAULT_TABLE, FunctionDef, FunctionTable
from .tree import (Expr, ExprError, Func, Pow, Rational, W, ZERO, _rational,
                   add, as_expr, atoms, cleared_numerator, free_symbols,
                   from_terms, mul, polynomial_terms, power, replace_atoms,
                   substitute, to_text)


class EvaluationError(ExprError):
    """Evaluation hit a pole, an unbound symbol or a function symbol without
    an instantiation; carries the subexpression."""

    def __init__(self, message: str, subexpr: Expr | None = None):
        super().__init__(message if subexpr is None
                         else "%s in %s" % (message, subexpr))
        self.subexpr = subexpr


class InconclusiveZeroTest(ExprError):
    """Every sample hit a pole; the zero test has no information."""


class SeedError(ExprError):
    """The seed environment variable does not hold an integer."""


ENV_SEED = "LIECONSERVE_SEED"
_DEFAULT_SEED = 170824


def Poly(coeffs: Mapping[tuple[int], Rational]) -> Expr:
    """The instantiation ``sum of c*w^k`` over ``coeffs = {(k,): c}``, its
    terms in the order given: the coefficient form of an instantiation."""
    return from_terms({((W, k),) if k else (): _rational(c)
                       for (k,), c in coeffs.items() if c})


def polynomial_function(p: Expr):
    """p, a polynomial in w, as a function of a float or a numpy array: the
    sum of ``c*x**k`` in term order, the coefficients converted to floats
    once.  A constant gives an array of the argument's shape."""
    terms = [(k, float(c)) for k, c in polynomial_terms(p, W)]

    def call(x):
        acc = 0.0
        for k, c in terms:
            acc = acc + (c * x ** k if k else c)
        np = sys.modules.get("numpy")       # an array means numpy is loaded
        if np is not None and isinstance(x, np.ndarray) and np.ndim(acc) == 0:
            acc = np.full_like(x, acc, dtype=float)
        return acc

    return call


@dataclass
class JetPoint:
    """A concrete sample: symbol values plus function instantiations.  The
    values are floats or numpy arrays of one shape (a batch of points)."""

    values: dict[Expr, float | np.ndarray]
    functions: dict[str, Expr] = field(default_factory=dict)

    def describe(self) -> str:
        parts = ["%s=%.6g" % (sym, val)
                 for sym, val in sorted(self.values.items(),
                                        key=lambda kv: str(kv[0]))]
        for name in sorted(self.functions):
            parts.append("%s:=%s" % (name, to_text(self.functions[name])))
        return ", ".join(parts)


# Built once: every is_zero call without a config makes a ZeroTestConfig.
_PROBES = (W, add(2, power(W, 2)), add(W, mul(Fraction(1, 3), power(W, 3))))


def default_instantiations() -> list[Expr]:
    """The standard probe set, w, 2 + w^2 and w + w^3/3; each has a
    nonvanishing derivative off zero."""
    return list(_PROBES)


def resolve_instantiations(names: Iterable[str], given: Mapping[str, Expr],
                           table: FunctionTable) -> dict[str, Expr]:
    """Fill instantiations for the given base symbols, building derived ones
    (and their dependencies) from what is supplied."""
    out = dict(given)
    pending = list(names)
    while pending:
        name = pending.pop()
        if name in out:
            continue
        fdef = table[name]
        if fdef.derived_poly is not None:
            missing = [d for d in fdef.derived_deps if d not in out]
            if missing:
                pending.append(name)
                pending.extend(missing)
                continue
            out[name] = fdef.derived_poly(out)
        else:
            raise EvaluationError("no instantiation for function symbol %r" % name)
    return out


def _univariate(a: Func, table: FunctionTable) -> FunctionDef:
    """The definition of a one-argument application; any other raises, as
    instantiations are polynomials in one variable."""
    fdef = table[a.name]
    if fdef.arity != 1 or len(a.args) != 1:
        raise EvaluationError("function symbol %s has %d arguments; only "
                              "one-argument symbols can be instantiated"
                              % (a.name, len(a.args)), a)
    return fdef


def _instantiation(a: Func, functions: Mapping[str, Expr],
                   table: FunctionTable) -> Expr:
    """The polynomial in w of an application: its base's (built when the
    base is derived), differentiated per its order."""
    fdef = _univariate(a, table)
    p = resolve_instantiations((fdef.base,), functions, table)[fdef.base]
    for _ in range(fdef.order[0]):
        p = diff(p, W, table)
    return p


def _float_pow(x: float, k) -> float:
    """x**k in Python floats, but +-inf past the float range, as numpy's
    power gives, instead of OverflowError."""
    try:
        return x ** k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _walk(e: Expr, values: Mapping[Expr, float | np.ndarray],
          table: FunctionTable, functions: Mapping[str, Expr],
          mask: bool = False):
    """Evaluate e at one point (float values, Python's float arithmetic) or
    at a batch (array values, numpy's).

    Returns ``(value, scale, poles)``.  ``scale`` is the largest magnitude
    of an atom, term or sum met on the way, per point; the zero test
    compares ``|value|`` with ``tol*(1 + scale)``.  A pole (a zero
    denominator, or a negative base under a fractional power) raises
    EvaluationError, unless ``mask`` is set and the values are arrays:
    then ``poles`` is True at the points that hit one, and those points
    carry a harmless 1 in place of the bad base from there on.  A constant
    past the float range raises ExprError; a value that overflows becomes
    inf or nan.
    """
    np = sys.modules.get("numpy")           # an array means numpy is loaded
    batch = np is not None and any(isinstance(v, np.ndarray)
                                   for v in values.values())
    peak, power = (np.maximum, np.power) if batch else (max, _float_pow)
    scale = 0.0
    poles = False
    atom_values: dict = {}
    polys: dict = {}        # name -> float function of its instantiation

    def pole(where, x, message: str, a):
        nonlocal poles
        if not (np.any(where) if batch else where):
            return x
        if not (batch and mask):
            raise EvaluationError(message, a)
        poles = poles | where
        return np.where(where, 1.0, x)

    def atom_value(a):
        if isinstance(a, Func):
            p = polys.get(a.name)
            if p is None:
                p = polys[a.name] = polynomial_function(
                    _instantiation(a, functions, table))
            return p(go(a.args[0]))
        if isinstance(a, Pow):
            b = go(a.base)
            q = a.exponent
            if q == -1:
                return 1.0 / pole(b == 0.0, b, "division by zero", a)
            if q.denominator == 1:
                return power(b, q.numerator)
            b = pole(b < 0.0, b, "negative base with fractional exponent", a)
            return power(b, float(q))
        if a not in values:
            raise EvaluationError("unbound symbol", a)
        v = values[a]
        return (np.asarray(v, dtype=float) if batch and isinstance(v, np.ndarray)
                else float(v))

    def go(n: Expr):
        nonlocal scale
        total = 0.0
        for mono, c in n.terms.items():
            val = float(c)
            for a, k in mono:
                x = atom_values.get(a)
                if x is None:
                    x = atom_values[a] = atom_value(a)
                    scale = peak(scale, abs(x))
                if k == 1:
                    val = val * x
                else:
                    if k < 0:
                        x = pole(x == 0.0, x, "division by zero", a)
                    val = val * power(x, k)
            scale = peak(scale, abs(val))
            total = total + val
        scale = peak(scale, abs(total))
        return total

    try:
        return go(e), scale, poles
    except OverflowError:
        raise ExprError("a constant or power is past the floating-point "
                        "range (about 1.8e308)") from None


def evaluate(e: Expr, point: JetPoint,
             table: FunctionTable | None = None) -> float | np.ndarray:
    """Evaluate e at the point, or at every point of a batch when the values
    are arrays (the result is then an array of their shape, or a float for
    an expression that uses none of them).  Raises EvaluationError on
    poles, negative bases under fractional powers, unbound symbols or
    uninstantiated functions; in a batch, when any point has one.

    The operation order is ``float(c)``, then the factors multiplied in one
    by one, then the terms summed; an opaque function symbol is evaluated
    through ``polynomial_function`` of its instantiation.  A single point
    is evaluated as a batch of one, so it gets the same bits as the same
    point in any batch.  A function symbol of more than one argument raises
    EvaluationError.
    """
    import numpy as np
    table = table if table is not None else DEFAULT_TABLE
    values = point.values
    single = not any(isinstance(v, np.ndarray) for v in values.values())
    if single:
        values = {s: np.array([float(v)]) for s, v in values.items()}
    val = _walk(e, values, table, point.functions)[0]
    if single or not isinstance(val, np.ndarray):
        return float(np.ravel(val)[0])
    return val


@dataclass
class ZeroTestConfig:
    samples: int = 200
    box: tuple[float, float] = (0.1, 2.0)
    tolerance: float = 1e-9
    instantiations: dict[str, Sequence[Expr]] = field(default_factory=dict)
    default_set: Sequence[Expr] = field(default_factory=default_instantiations)
    seed: Optional[int] = None

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get(ENV_SEED)
        if env:
            try:
                return int(env)
            except ValueError:
                raise SeedError("%s must be an integer, got %r"
                                % (ENV_SEED, env)) from None
        return _DEFAULT_SEED


@dataclass
class ZeroVerdict:
    zero: bool
    method: str = "sampled"         # or "structural", "cleared": see is_zero
    witness: Optional[JetPoint] = None
    witness_value: Optional[float] = None
    samples_used: int = 0
    samples_skipped: int = 0

    @property
    def structural(self) -> bool:
        return self.method == "structural"

    def __bool__(self) -> bool:
        return self.zero

    def describe(self) -> str:
        if self.zero:
            how = {"structural": "structurally",
                   "cleared": "denominators cleared"}.get(
                       self.method, "on %d samples" % self.samples_used)
            return "zero (%s)" % how
        return "nonzero: %.6g at %s" % (self.witness_value, self.witness.describe())


def is_zero(e: Expr, config: ZeroTestConfig | None = None,
            table: FunctionTable | None = None) -> ZeroVerdict:
    """Decide whether e vanishes identically.

    Structural zeros (``method`` "structural") are reported without
    sampling.  Next the denominators are cleared (``cleared_numerator``); a
    numerator that is structurally zero ("cleared") proves e zero exactly
    wherever every cleared denominator is nonzero, that is, wherever e is
    defined.  Otherwise ("sampled") e is evaluated at random jet points for
    every combination of function instantiations: one point first, drawn
    from ``random.Random(seed)`` and evaluated in Python floats, then the
    rest of the combination's samples as one numpy batch.  The batches draw
    from one numpy generator seeded from that stream at the first batch, so
    the seed fixes every draw, and numpy is imported only when a batch is
    needed.  A value exceeding
    ``tol*(1 + largest subterm)`` yields a nonzero verdict with a witness;
    ``samples_used`` counts the points evaluated up to and including it.
    A point that hits a pole, or whose value overflows to inf or nan, is
    skipped (``samples_skipped``); if every sample is skipped the test
    raises ``InconclusiveZeroTest``.  A function symbol of more than one
    argument has no instantiation, and raises EvaluationError before any
    sampling.
    """
    table = table if table is not None else DEFAULT_TABLE
    cfg = config if config is not None else ZeroTestConfig()
    e = as_expr(e)
    if e == ZERO:
        return ZeroVerdict(zero=True, method="structural")
    if cleared_numerator(e) == ZERO:
        return ZeroVerdict(zero=True, method="cleared")

    symbols = sorted(free_symbols(e), key=str)
    base_names = {_univariate(a, table).base
                  for a in atoms(e) if isinstance(a, Func)}
    frontier = list(base_names)
    while frontier:
        fdef = table[frontier.pop()]
        for dep in fdef.derived_deps:
            if dep not in base_names:
                base_names.add(dep)
                frontier.append(dep)
    base_names = sorted(base_names)
    independent = [n for n in base_names if table[n].derived_poly is None]
    choice_lists = [list(cfg.instantiations.get(n, cfg.default_set))
                    for n in independent]

    rng = random.Random(cfg.resolved_seed())
    batch_rng = None            # numpy's, seeded from rng at the first batch
    lo, hi = cfg.box
    used = skipped = 0

    combos = list(itertools.product(*choice_lists)) if independent else [()]
    for combo in combos if cfg.samples > 0 else ():
        given = dict(zip(independent, combo))
        functions = resolve_instantiations(base_names, given, table)
        # one point in Python floats, which settles most nonzero cases
        point = {s: rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)
                 for s in symbols}
        try:
            val, scale, _ = _walk(e, point, table, functions)
        except EvaluationError:
            val = math.nan
        if not math.isfinite(val):
            skipped += 1
        elif abs(val) > cfg.tolerance * (1.0 + scale):
            return ZeroVerdict(zero=False, witness=JetPoint(point, functions),
                               witness_value=val, samples_used=used + 1,
                               samples_skipped=skipped)
        else:
            used += 1
        if cfg.samples == 1:
            continue

        # then the rest of the combo's samples as one numpy batch
        import numpy as np
        if batch_rng is None:
            batch_rng = np.random.default_rng(rng.getrandbits(64))
        size = cfg.samples - 1
        shape = (size, len(symbols))
        # an overflow is skipped below, like a pole, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            points = (batch_rng.uniform(lo, hi, size=shape)
                      * batch_rng.choice((-1.0, 1.0), size=shape))
            try:
                val, scale, poles = _walk(e, dict(zip(symbols, points.T)),
                                          table, functions, mask=True)
            except EvaluationError:
                val, scale, poles = 0.0, 0.0, True
            defined = ~np.broadcast_to(poles | ~np.isfinite(val), (size,))
            over = defined & (np.abs(val) > cfg.tolerance * (1.0 + scale))
        if over.any():
            i = int(over.argmax())
            values = {s: float(v) for s, v in zip(symbols, points[i])}
            here = int(defined[:i + 1].sum())
            return ZeroVerdict(
                zero=False, witness=JetPoint(values, functions),
                witness_value=float(np.broadcast_to(val, (size,))[i]),
                samples_used=used + here,
                samples_skipped=skipped + i + 1 - here)
        used += int(defined.sum())
        skipped += size - int(defined.sum())
    if used == 0:
        raise InconclusiveZeroTest(
            "all %d samples hit poles or overflowed while testing %s" % (skipped, e))
    return ZeroVerdict(zero=True, samples_used=used, samples_skipped=skipped)


def instantiate(e: Expr, functions: Mapping[str, Expr],
                table: FunctionTable | None = None) -> Expr:
    """Replace opaque function applications by their polynomial
    instantiations, symbolically; derived symbols are built on the fly.  A
    function symbol of more than one argument raises EvaluationError."""
    table = table if table is not None else DEFAULT_TABLE

    def replace(a) -> Optional[Expr]:
        if isinstance(a, Func):
            return substitute(_instantiation(a, functions, table),
                              {W: go(a.args[0])})
        if isinstance(a, Pow):
            base = go(a.base)
            return None if base == a.base else power(base, a.exponent)
        return None

    def go(expr: Expr) -> Expr:
        return replace_atoms(expr, replace)

    return go(e)
