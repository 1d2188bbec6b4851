"""Property and differential tests of the normal form over the grammar.

Random expression trees are printed fully parenthesized, parsed (which
normalizes them) and compared with a float evaluation of the tree itself,
with their own printed form, with central differences, and, for
polynomials, with sympy's expansion.  The zero test's exact step, clearing
denominators, is checked on planted quotient identities and against
sympy's ``cancel``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import STANDARD_POLYS
from lieconserve.expr import (DEFAULT_TABLE, ExprError, ExprSyntaxError,
                              Func, JetPoint, T, U, W, X, ZERO, add, diff,
                              evaluate, integrate, is_zero, mul, parse,
                              polynomial_function, polynomial_terms, power,
                              resolve_instantiations, substitute, to_text)
from lieconserve.expr.tree import cleared_numerator

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])

SYMBOLS = ("t", "x", "u", "u_x", "u_t")
FUNCTIONS = ("a", "a'", "A", "q")
EXPONENTS = tuple(Fraction(q) for q in ("-2", "-1", "2", "3", "1/2", "3/2", "-1/2"))
# poles and roots of small numbers make the float reference and the
# difference quotients meaningless, so such samples are skipped
_MARGIN = 0.2

FUNCS = resolve_instantiations({"a", "A", "q"}, STANDARD_POLYS, DEFAULT_TABLE)
FUNCS["a'"] = diff(FUNCS["a"], W)


class Undefined(Exception):
    pass


def _numbers():
    return st.one_of(st.integers(-3, 3).map(Fraction),
                     st.sampled_from([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]))


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*", "/")), children, children),
        st.tuples(st.just("^"), children, st.sampled_from(EXPONENTS)),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("call"), st.sampled_from(FUNCTIONS), children),
    )


def trees(symbols=SYMBOLS, leaves=8, extend=_extend):
    leaf = st.one_of(st.sampled_from(symbols), _numbers())
    return st.recursive(leaf, extend, max_leaves=leaves)


def text(node) -> str:
    if isinstance(node, str):
        return node
    if isinstance(node, Fraction):
        return "(%s)" % node
    op = node[0]
    if op == "neg":
        return "(-%s)" % text(node[1])
    if op == "call":
        return "%s(%s)" % (node[1], text(node[2]))
    if op == "^":
        return "(%s^(%s))" % (text(node[1]), node[2])
    return "(%s %s %s)" % (text(node[1]), op, text(node[2]))


def reference(node, values) -> tuple[float, float]:
    """(value, majorant): float evaluation of the tree as written, and a
    bound on the size of every term its expansion can produce."""
    if isinstance(node, str):
        v = values[node]
        return v, abs(v)
    if isinstance(node, Fraction):
        return float(node), abs(float(node))
    op = node[0]
    if op == "neg":
        v, m = reference(node[1], values)
        return -v, m
    if op == "call":
        v, m = reference(node[2], values)
        p = FUNCS[node[1]]
        bound = sum(abs(float(c)) * m ** k for k, c in polynomial_terms(p, W))
        return polynomial_function(p)(v), bound
    if op == "^":
        v, m = reference(node[1], values)
        q = node[2]
        if q < 0 and abs(v) < _MARGIN or q.denominator != 1 and v < _MARGIN:
            raise Undefined
        if q.denominator != 1:
            return v ** float(q), v ** float(q)
        if q < 0:
            return v ** int(q), abs(v) ** int(q)
        return v ** int(q), m ** int(q)
    (a, ma), (b, mb) = reference(node[1], values), reference(node[2], values)
    if op == "+":
        return a + b, ma + mb
    if op == "-":
        return a - b, ma + mb
    if op == "*":
        return a * b, ma * mb
    if abs(b) < _MARGIN:
        raise Undefined
    return a / b, ma / abs(b)


def sample(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {s: rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for s in SYMBOLS}


def point(values: dict[str, float]) -> JetPoint:
    return JetPoint({parse(s): v for s, v in values.items()}, FUNCS)


@SETTINGS
@given(trees(), st.integers(0, 2 ** 32))
def test_normalization_preserves_the_value(tree, seed):
    values = sample(seed)
    try:
        want, bound = reference(tree, values)
    except Undefined:
        assume(False)
    got = evaluate(parsed(tree), point(values))
    assert abs(got - want) <= 1e-9 * (1.0 + bound), text(tree)


def parsed(tree):
    """The normalized tree; skips trees that divide by an exact zero."""
    try:
        return parse(text(tree))
    except ExprError:
        assume(False)


@SETTINGS
@given(trees())
def test_printed_form_parses_back_to_the_same_expression(tree):
    e = parsed(tree)
    assert parse(to_text(e)) == e, text(tree)


@SETTINGS
@given(trees(), st.integers(0, 2 ** 32), st.sampled_from(("u", "u_x", "x")))
def test_diff_agrees_with_central_differences(tree, seed, var):
    h = 1e-5
    values = sample(seed)
    shifted = []
    try:
        _, bound = reference(tree, values)
        for step in (h, -h):
            moved = dict(values)
            moved[var] += step
            shifted.append(reference(tree, moved)[0])
    except Undefined:
        assume(False)
    d = diff(parsed(tree), parse(var))
    want = evaluate(d, point(values)) if d != ZERO else 0.0
    got = (shifted[0] - shifted[1]) / (2 * h)
    assert abs(want - got) <= 1e-5 * (1.0 + abs(want) + bound), text(tree)


def _polynomial_ops(children):
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*")), children, children),
        st.tuples(st.just("^"), children, st.sampled_from([Fraction(2), Fraction(3)])),
        st.tuples(st.just("neg"), children),
    )


@SETTINGS
@given(trees(symbols=("t", "x", "u"), leaves=10, extend=_polynomial_ops))
def test_polynomial_normal_form_matches_sympy_expand(tree):
    sympy = pytest.importorskip("sympy")
    source = text(tree)
    ours = {}
    for mono, c in parse(source).terms.items():
        powers = dict(mono)
        assert set(powers) <= {T, X, U} and min(powers.values(), default=1) > 0
        ours[tuple(powers.get(s, 0) for s in (T, X, U))] = Fraction(c)
    t, x, u = sympy.symbols("t x u")
    expanded = sympy.expand(sympy.sympify(source.replace("^", "**")))
    theirs = {k: Fraction(int(c.p), int(c.q))
              for k, c in sympy.Poly(expanded, t, x, u).as_dict().items() if c != 0}
    assert ours == theirs, source


def coefficient_polynomials(sym):
    """Polynomials in sym of degree <= 3 whose coefficients are small
    integers times monomials in x and a(x)."""
    ax = Func("a", (X,))
    term = st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(0, 3),
                     st.integers(0, 2), st.integers(0, 2))
    return st.lists(term, min_size=1, max_size=5).map(
        lambda terms: add(*(mul(c, power(sym, i), power(X, j), power(ax, k))
                            for c, i, j, k in terms)))


@SETTINGS
@given(st.sampled_from((U, W)).flatmap(
    lambda s: st.tuples(st.just(s), coefficient_polynomials(s))))
def test_integrate_is_inverted_by_diff(case):
    sym, e = case
    anti = integrate(e, sym)
    assert diff(anti, sym) == e, to_text(e)
    assert substitute(anti, {sym: ZERO}) == ZERO, to_text(e)


# ---------------------------------------------------------------------------
# the zero test's exact step: clearing denominators

POLY_ATOMS = ("t", "x", "u", "a(u)")


def polynomials(min_terms=1):
    """Polynomial text over t, x, u and a(u): small integer coefficients,
    exponents up to 2 per atom."""
    term = st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                     st.tuples(*[st.integers(0, 2) for _ in POLY_ATOMS]))
    return st.lists(term, min_size=min_terms, max_size=4).map(
        lambda terms: " + ".join(
            "(%d)" % c + "".join("*%s^%d" % (a, k)
                                 for a, k in zip(POLY_ATOMS, ks) if k)
            for c, ks in terms))


def _is_sum(source: str) -> bool:
    return len(parse(source).terms) >= 2


@SETTINGS
@given(polynomials(), polynomials(min_terms=2))
def test_planted_quotient_identities_are_cleared(p, q):
    assume(parse(p) != ZERO and _is_sum(q))
    verdict = is_zero(parse("(%s)*(%s)/(%s) - (%s)" % (p, q, q, p)))
    assert verdict.zero and verdict.method == "cleared", (p, q)
    assert verdict.samples_used == 0


@SETTINGS
@given(polynomials(), polynomials(min_terms=2), polynomials())
def test_a_perturbed_quotient_is_never_zero(p, q, r):
    # (P*Q + R)/Q - P is R/Q
    assume(parse(r) != ZERO and _is_sum(q))
    e = parse("((%s)*(%s) + (%s))/(%s) - (%s)" % (p, q, r, q, p))
    assert cleared_numerator(e) != ZERO, (p, q, r)
    verdict = is_zero(e)
    assert not verdict.zero and verdict.witness is not None, (p, q, r)


@SETTINGS
@given(polynomials(), polynomials(min_terms=2), polynomials(),
       polynomials(min_terms=2), st.booleans())
def test_sums_of_quotients_are_cleared_exactly_when_zero(p1, q1, p2, q2, planted):
    # monomials carry different sets of reciprocals here, each missing its
    # own product of denominators
    assume(_is_sum(q1) and _is_sum(q2))
    rest = ("((%s)*(%s) + (%s)*(%s))/((%s)*(%s))" % (p1, q2, p2, q1, q1, q2)
            if planted else "((%s) + (%s))/(%s)" % (p1, p2, q1))
    source = "(%s)/(%s) + (%s)/(%s) - %s" % (p1, q1, p2, q2, rest)
    e = parse(source)
    if planted:
        assert is_zero(e).method in ("structural", "cleared"), source
    if cleared_numerator(e) == ZERO:
        assert _sympy_says_zero(source), source


RATIONAL_EXPONENTS = tuple(Fraction(k) for k in (-2, -1, 2, 3))


def _rational_ops(children):
    return st.one_of(
        st.tuples(st.sampled_from(("+", "-", "*", "/")), children, children),
        st.tuples(st.just("^"), children, st.sampled_from(RATIONAL_EXPONENTS)),
        st.tuples(st.just("neg"), children),
    )


def rational_trees():
    return trees(symbols=("t", "x", "u", "a(u)"), leaves=6, extend=_rational_ops)


def _sympy_says_zero(source: str) -> bool:
    sympy = pytest.importorskip("sympy")
    expr = sympy.sympify(source.replace("^", "**"))
    if expr.has(sympy.zoo, sympy.nan):
        assume(False)            # undefined everywhere: nothing to check
    return sympy.cancel(sympy.together(expr)) == 0


@SETTINGS
@given(rational_trees(), rational_trees(), rational_trees(), st.booleans())
def test_every_cleared_verdict_is_a_rational_identity(body, factor, extra, planted):
    product = ("*", body, factor)
    top = product if planted else ("+", product, extra)
    source = text(("-", body, ("/", top, factor)))
    try:
        e = parse(source)
    except (ExprError, ExprSyntaxError):      # a division by an exact zero
        assume(False)
    if cleared_numerator(e) == ZERO:
        assert _sympy_says_zero(source), source


@pytest.mark.parametrize("source", [
    "1/(1 + 1/(1 + u)) - (1 + u)/(2 + u)",
    "1/(1 + u) + u/(1 + u) - 1",
    "t/(x*(1 + u)) + 1/(1 + u) - (t + x)/(x + x*u)",
    "a(u)/(1 + a(u)) + 1/(1 + a(u)) - 1",
])
def test_cleared_identities_agree_with_sympy(source):
    verdict = is_zero(parse(source))
    assert verdict.zero and verdict.method == "cleared", source
    assert _sympy_says_zero(source), source
