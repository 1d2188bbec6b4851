"""Expression core: parsing, printing, differentiation, evaluation."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import CORPUS, STANDARD_POLYS, bound_point, parsed_corpus
from lieconserve.expr import (Const, DEFAULT_TABLE, EvaluationError,
                              ExprError, ExprSyntaxError, FunctionDef,
                              InconclusiveZeroTest, Jet, JetPoint, ONE, Poly,
                              SeedError, U, U_X, UnknownSymbolError, W, X,
                              ZERO, ZeroTestConfig, build_default_table, diff,
                              evaluate, free_symbols, function_names,
                              instantiate, integrate, is_zero, normalize,
                              parse, polynomial_function, polynomial_terms,
                              power, resolve_instantiations, substitute,
                              to_text)
from lieconserve.expr.evaluate import _walk
from lieconserve.expr.tree import cleared_numerator


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


def test_corpus_round_trips_through_text():
    for s in CORPUS:
        e = parse(s)
        assert parse(to_text(e)) == e, s


def test_number_literals_become_exact_rationals():
    assert parse("3/4") == Const(Fraction(3, 4))
    assert parse("2.5") == Const(Fraction(5, 2))


def test_arithmetic_normalizes_to_canonical_forms():
    assert parse("u + u") == parse("2*u")
    assert parse("u*u") == parse("u^2")
    assert parse("u - u") == ZERO
    assert parse("u/u") == ONE
    assert to_text(parse("-u^2")) == "-u^2"       # unary minus binds looser than ^
    assert to_text(parse("u^2^3")) == "u^8"       # right-assoc, constant folding
    assert to_text(parse("2 - -u")) == "2 + u"
    # "1/(1 + u)^2" would read back as 1/(1 + 2*u + u^2)
    assert to_text(parse("u/(1 + u)^2")) == "u/(1 + 2*u + u^2)"
    assert to_text(parse("u*(1 + u)^(-2)")) == "u*(1 + u)^(-2)"


@pytest.mark.parametrize("text,widened", [
    # a non-integer power is not distributed over a product: at u = x = -1
    # the left power is defined and the product of roots is not
    ("(u*x)^(1/2)", "u^(1/2)*x^(1/2)"),
    # nor collapsed under an integer power: u^(1/2) needs u >= 0, u does not
    ("(u^(1/2))^2", "u"),
    ("u^(1/2)*u^(1/2)", "u"),
    ("(u^2)^(1/2)", "u"),
])
def test_non_integer_powers_stay_opaque(text, widened):
    assert parse(text) != parse(widened)
    assert parse(text + " - (" + widened + ")") != ZERO


def test_fractional_power_of_a_product_keeps_its_domain():
    point = JetPoint({U: -1.0, X: -4.0})
    assert evaluate(parse("(u*x)^(1/2)"), point) == pytest.approx(2.0)
    with pytest.raises(EvaluationError, match="fractional exponent"):
        evaluate(parse("u^(1/2)*x^(1/2)"), point)
    with pytest.raises(EvaluationError, match="fractional exponent"):
        evaluate(parse("(u^(1/2))^2"), JetPoint({U: -1.0}))
    # integer exponents of one atom still add up, as for any symbol
    assert parse("u^(1/2)*u^(-1/2)") == ONE
    assert parse("(1 + u)^(-1)*(1 + u)^(-1)") == parse("(1 + u)^(-2)")


def test_parse_and_diff_leave_the_default_table_unchanged():
    before = DEFAULT_TABLE.names()
    deep = parse("a" + "'" * 8 + "(u)")
    assert diff(deep, U) == parse("a" + "'" * 9 + "(u)")
    assert diff(parse("q(u)"), U) == parse("q'(u)")
    assert DEFAULT_TABLE.names() == before


def test_partial_symbols_of_multivariate_functions_follow_from_their_names():
    table = build_default_table().extended(FunctionDef("f", arity=2))
    before = table.names()
    mixed = diff(diff(parse("f(u, x)", table), U, table), X, table)
    assert to_text(mixed) == "f_d1_d2(u, x)"
    assert parse("f_d1_d2(u, x)", table) == mixed
    assert table.names() == before
    with pytest.raises(UnknownSymbolError):
        parse("f_d3(u, x)", table)


def test_function_symbols_of_two_arguments_are_refused_not_sampled():
    # an instantiation is a polynomial in one variable; fitted to f(x, u) it
    # dropped the second argument, and f(x, u) - f(x, x) sampled as zero
    table = build_default_table().extended(FunctionDef("f", arity=2))
    e = parse("f(x, u) - f(x, x)", table)
    message = "function symbol f has 2 arguments"
    with pytest.raises(EvaluationError, match=message):
        is_zero(e, table=table)
    with pytest.raises(EvaluationError, match="function symbol f_d2 has 2"):
        is_zero(diff(e, U, table), table=table)
    with pytest.raises(EvaluationError, match=message):
        evaluate(e, JetPoint({X: 0.5, U: 1.5}, {"f": W}), table)
    with pytest.raises(EvaluationError, match=message):
        instantiate(e, {"f": W}, table)


@pytest.mark.parametrize("text,message,position", [
    ("2*(x", "expected ')'", 4),
    ("u +", "unexpected end of input", 3),
    ("1 $ 2", "unexpected character", 2),
    ("u^u", "exponent must reduce to a rational constant", 1),
    ("u_xxxx", "exceeds supported order", 0),
    ("a(u,t)", "takes 1 argument(s), got 2", 0),
    ("", "unexpected end of input", 0),
    ("t/0", "zero raised to a negative power", 1),
])
def test_syntax_errors_carry_offsets(text, message, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert message in str(exc.value)
    assert "(offset %d)" % position in str(exc.value)
    assert exc.value.position == position


def test_huge_constants_raise_expression_errors():
    # Python refuses str() of integers past 4300 digits; neither parsing nor
    # printing may reach that limit with a bare ValueError
    with pytest.raises(ExprSyntaxError, match="limited to 13000 bits") as exc:
        parse("u*2^20000")
    assert exc.value.position == 3
    with pytest.raises(ExprSyntaxError, match="too long") as exc:
        parse("u + " + "7" * 5000)
    assert exc.value.position == 4
    assert parse("1^1000000000 + (-1)^1000000001") == ZERO     # no size
    big = parse("2^7000") * parse("2^7000")                     # 14001 bits
    for e in (big, big * U, 1 / (big * U), U ** big):
        with pytest.raises(ExprError, match="too large to print"):
            to_text(e)
    with pytest.raises(ExprError, match="too large to print"):
        power(big + U, Fraction(1, 2))       # the atom's text is rendered
    with pytest.raises(ExprError, match="constant power too large"):
        (parse("2^7000") * U) ** 2
    assert to_text(parse("2^12999")) == str(2 ** 12999)     # 13000 bits


def test_unknown_function_symbol_is_its_own_error():
    with pytest.raises(UnknownSymbolError):
        parse("b(u)")
    with pytest.raises(UnknownSymbolError):
        parse("w + 1")


def test_primed_function_names_parse_and_round_trip():
    e = parse("a'(u)")
    assert to_text(e) == "a'(u)"
    assert parse(to_text(e)) == e
    ee = parse("a''(u)*q'(x)")
    assert parse(to_text(ee)) == ee


def test_diff_knows_the_chain_rule_and_registered_rewrites():
    assert diff(parse("a(u)"), U) == parse("a'(u)")
    assert diff(parse("a(u)^2"), U) == parse("2*a(u)*a'(u)")
    # A is the flux antiderivative: A'(u) rewrites to u*a(u)
    assert diff(parse("A(u)"), U) == parse("a(u)*u")
    assert diff(parse("q(x)"), U) == ZERO
    assert diff(parse("u_x^2/2"), U_X) == U_X


def test_diff_matches_central_finite_differences_on_corpus():
    rng = random.Random(20260814)
    h = 1e-5
    exprs = parsed_corpus()
    checked = 0
    for e in exprs:
        for var in (U, U_X):
            sym = diff(e, var)
            for _ in range(2):
                point = bound_point([e], rng)
                values = dict(point.values)
                values.setdefault(var, rng.uniform(0.3, 1.5))
                base = JetPoint(values, point.functions)
                want = evaluate(sym, base) if sym != ZERO else 0.0
                up = dict(values); up[var] = values[var] + h
                dn = dict(values); dn[var] = values[var] - h
                got = (evaluate(e, JetPoint(up, point.functions))
                       - evaluate(e, JetPoint(dn, point.functions))) / (2 * h)
                assert abs(want - got) <= 1e-6 * (1 + abs(want)), to_text(e)
                checked += 1
    assert checked >= 100


def test_evaluate_oracles():
    table = DEFAULT_TABLE
    square = Poly({(2,): Fraction(1)})
    funcs = resolve_instantiations({"a", "A"}, {"a": square}, table)
    point = JetPoint({U: 3.0}, funcs)
    assert evaluate(parse("a(u)/a'(u)"), point) == pytest.approx(1.5)
    assert evaluate(parse("A(u)"), JetPoint({U: 2.0}, funcs)) == pytest.approx(4.0)


def test_evaluate_rejects_poles_and_unbound_symbols():
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(parse("1/u"), JetPoint({U: 0.0}))
    with pytest.raises(EvaluationError, match="unbound symbol"):
        evaluate(parse("u + t"), JetPoint({U: 1.0}))
    with pytest.raises(EvaluationError, match="fractional exponent"):
        evaluate(parse("(0 - u)^(1/2)"), JetPoint({U: 1.0}))


def test_is_zero_reports_structural_zeros_without_sampling():
    verdict = is_zero(parse("u - u"))
    assert verdict.zero and verdict.structural
    verdict = is_zero(parse("a(u)*u_x - u_x*a(u)"))
    assert verdict.zero and verdict.structural


def test_is_zero_clears_denominators_of_quotient_identities():
    # quotients over a common denominator are not combined by normalization
    verdict = is_zero(parse("1/(1 + u) + u/(1 + u) - 1"))
    assert verdict.zero and verdict.method == "cleared"
    assert not verdict.structural and verdict.samples_used == 0
    assert verdict.describe() == "zero (denominators cleared)"


def test_clearing_gives_up_past_its_term_cap_and_sampling_decides():
    # ten denominators in ten symbols: each cleared monomial takes a product
    # of nine of them, 512 terms, so the numerator would pass 1000 terms
    symbols = ("t", "x", "u", "u_x", "u_t", "u_xx", "u_xt", "u_tt", "v", "v_x")
    e = parse(" + ".join("1/(1 + %s) + %s/(1 + %s)" % (s, s, s)
                         for s in symbols) + " - 10")
    assert cleared_numerator(e) is None
    verdict = is_zero(e)
    assert verdict.zero and verdict.method == "sampled"
    assert verdict.samples_used == 200


def test_is_zero_samples_identities_that_clearing_cannot_see():
    # u^(1/2) is an opaque atom, so only sampling finds the identity; the
    # points with u < 0 are outside the domain and skipped
    verdict = is_zero(parse("u^(1/2)*u^(1/2) - u"))
    assert verdict.zero and verdict.method == "sampled"
    assert verdict.samples_used > 0 and verdict.samples_skipped > 0
    assert verdict.samples_used + verdict.samples_skipped == 200


def test_a_combo_whose_denominator_vanishes_is_skipped_whole():
    # with a := w the denominator -2*a'(u) + 2 is identically zero
    e = parse("((3*a(u) + 2)*(-2*a'(u) + 2) + u)/(-2*a'(u) + 2) - (3*a(u) + 2)")
    verdict = is_zero(e)
    assert not verdict.zero and verdict.method == "sampled"
    assert "a:=w," not in verdict.witness.describe() + ","
    assert verdict.samples_skipped == 200
    assert evaluate(e, verdict.witness) == pytest.approx(verdict.witness_value)


def per_point_verdict(e, seed: int):
    """The zero test's sampling written out as the reference for is_zero.
    Per probe combo, 200 points from one random.Random(seed) stream, a sign
    then a magnitude in 0.1..2 per symbol in name order; a combo under
    which some denominator of e is the zero polynomial (instantiate raises)
    is skipped whole after drawing its first point.  Opaque functions: a
    only."""
    probes = [substitute(parse(p), {U: W}) for p in ("u", "2 + u^2", "u + u^3/3")]
    symbols = sorted(free_symbols(e), key=str)
    rng = random.Random(seed)
    used = skipped = 0
    for poly in probes if function_names(e) else [None]:
        functions = ({} if poly is None
                     else resolve_instantiations({"a"}, {"a": poly}, DEFAULT_TABLE))
        try:
            instantiate(e, functions)
            vanishes = False
        except ExprError:
            vanishes = True
        for _ in range(200):
            values = {s: rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0)
                      for s in symbols}
            if vanishes:
                skipped += 200
                break
            try:
                val, scale = _walk(e, values, DEFAULT_TABLE, functions)
            except EvaluationError:
                val = math.nan
            if not math.isfinite(val):
                skipped += 1
                continue
            used += 1
            if abs(val) > 1e-9 * (1.0 + scale):
                return values, val, used, skipped
    return None, None, used, skipped


@pytest.mark.parametrize("text", [
    # tiny against the cancelling x^10 terms wherever |x| is large, so the
    # threshold of each point matters
    "t^6*u^(1/2)/10^8 + x^10*(1/(1 + u) + u/(1 + u) - 1)",
    "((3*a(u) + 2)*(-2*a'(u) + 2) + u)/(-2*a'(u) + 2) - (3*a(u) + 2)",
    "u^(1/2)*u^(1/2) - u",
    "(u*x)^(1/2) - u^(1/2)*x^(1/2)",
    "a'(u)*u^(1/2) - a(u)",
])
@pytest.mark.parametrize("seed", range(4))
def test_batched_sampling_matches_a_per_point_loop(text, seed):
    e = parse(text)
    values, value, used, skipped = per_point_verdict(e, seed)
    verdict = is_zero(e, ZeroTestConfig(seed=seed))
    assert verdict.zero == (values is None)
    assert (verdict.samples_used, verdict.samples_skipped) == (used, skipped)
    if values is not None:
        assert verdict.witness.values == values
        assert verdict.witness_value == pytest.approx(value, rel=1e-12)


def test_is_zero_produces_a_witness_for_nonzero_expressions():
    verdict = is_zero(parse("a'(u)*u"))
    assert not verdict.zero
    assert verdict.witness is not None
    assert abs(verdict.witness_value) > 0
    # the witness re-evaluates to the reported value
    again = evaluate(parse("a'(u)*u"), verdict.witness)
    assert again == pytest.approx(verdict.witness_value)


def test_is_zero_is_reproducible_and_seed_sensitive(monkeypatch):
    e = parse("a'(u)*u")
    w1 = is_zero(e).witness.values[U]
    w2 = is_zero(e).witness.values[U]
    assert w1 == w2
    monkeypatch.setenv("LIECONSERVE_SEED", "99")
    w3 = is_zero(e).witness.values[U]
    assert w3 != w1
    w4 = is_zero(e, ZeroTestConfig(seed=7)).witness.values[U]
    assert w4 != w3  # explicit seed beats the environment


def test_a_malformed_seed_variable_is_rejected(monkeypatch):
    monkeypatch.setenv("LIECONSERVE_SEED", "abc")
    with pytest.raises(SeedError, match="LIECONSERVE_SEED.*'abc'"):
        is_zero(parse("a'(u)*u"))
    assert not is_zero(parse("a'(u)*u"), ZeroTestConfig(seed=7)).zero


def test_a_constant_past_the_float_range_is_an_error_not_a_pole():
    for point in (JetPoint({U: 1.0}), JetPoint({U: np.ones(3)})):
        with pytest.raises(ExprError, match="floating-point range") as exc:
            evaluate(parse("u*2^2000"), point)
        assert not isinstance(exc.value, EvaluationError)
    with pytest.raises(ExprError, match="floating-point range") as exc:
        is_zero(parse("u*2^2000 + 1"))
    assert not isinstance(exc.value, EvaluationError)


def test_is_zero_raises_when_every_sample_hits_a_pole():
    # one of the two square roots has a negative base at every sample
    with pytest.raises(InconclusiveZeroTest):
        is_zero(parse("u^(1/2) + (0 - u)^(1/2)"))


def test_is_zero_skips_values_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy overflow warning
        # the first term overflows at every sample: no evidence, not "zero"
        with pytest.raises(InconclusiveZeroTest, match="overflowed"):
            is_zero(parse("2^1023*(2 + u^2)^9 + u"))
        # x^1100 overflows for |x| > 1.9 only, in the float point as in the
        # batch; the other points decide, whatever the seed draws first
        e = parse("x^1100*u - x^1100*u^(1/2)*u^(1/2)")
        for seed in range(20):
            verdict = is_zero(e, ZeroTestConfig(seed=seed))
            assert verdict.zero and verdict.method == "sampled"
            assert verdict.samples_used + verdict.samples_skipped == 200
            assert verdict.samples_skipped > 0


def test_poly_round_trip_and_rejections():
    e = parse("u^3/3 + 2*u")
    assert sorted(polynomial_terms(e, U)) == [(1, 2), (3, Fraction(1, 3))]
    p = substitute(e, {U: W})
    assert p == Poly({(3,): Fraction(1, 3), (1,): Fraction(2)})
    assert substitute(p, {W: U}) == e
    assert polynomial_function(p)(3.0) == pytest.approx(15.0)
    assert evaluate(p, JetPoint({W: 3.0})) == pytest.approx(15.0)
    for bad in ("a(u)", "u^(1/2)", "1/u", "u*t"):
        with pytest.raises(ExprError, match="not a polynomial in u"):
            polynomial_terms(parse(bad), U)


def test_function_symbols_evaluate_to_the_same_bits_singly_and_in_batches():
    functions = {"a": Poly({(1,): 1, (3,): Fraction(1, 3), (5,): Fraction(-2, 7)})}
    us = np.random.default_rng(3).uniform(-2.0, 2.0, 101)
    for text in ("a(u)", "A(u)/a'(u)", "a'(u)*u + a(u)^3", "a''(u)"):
        e = parse(text)
        batch = evaluate(e, JetPoint({U: us}, functions))
        single = [evaluate(e, JetPoint({U: float(u)}, functions)) for u in us]
        assert np.array_equal(batch, np.array(single)), text


def test_integrate_takes_any_symbol_and_leaves_other_jets_as_coefficients():
    assert integrate(parse("u_x*u + 1/x"), U) == parse("u_x*u^2/2 + u/x")
    assert integrate(Poly({(0,): 2, (2,): 1}), W) == Poly({(1,): 2, (3,): Fraction(1, 3)})
    assert integrate(ZERO, W) == ZERO
    with pytest.raises(ExprError):
        integrate(parse("u"), parse("a(u)"))


def test_instantiate_substitutes_polynomials_for_function_symbols():
    square = Poly({(2,): Fraction(1)})
    assert instantiate(parse("a(u)/a'(u)"), {"a": square}) == parse("u/2")
    # derived antiderivative is built from the base instantiation
    assert instantiate(parse("A(u)"), {"a": square}) == parse("u^4/4")


def test_jet_symbols_expose_orders():
    assert free_symbols(parse("u_xt + x")) == {Jet("u", 1, 1), Jet("x")}
    assert normalize(parse("u_xt")) == Jet("u", 1, 1)
