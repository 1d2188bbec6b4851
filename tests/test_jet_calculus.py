"""Total derivatives, the on-solution ladder, and adjoint construction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lieconserve.expr import (U, U_T, U_X, ZERO, ZeroTestConfig, is_zero,
                              normalize, parse)
from lieconserve.jet_calculus import (EvolutionSpec, SpecError,
                                      UnsupportedDepthError, adjoint_of,
                                      bind_adjoint_field, on_solution_reduce,
                                      total_derivative,
                                      variational_derivative)


def burgers() -> EvolutionSpec:
    return EvolutionSpec.quasilinear(parse("a(u)"), ZERO)


def test_total_derivatives_act_on_jets_and_functions():
    assert total_derivative(U, "x") == U_X
    assert total_derivative(U, "t") == U_T
    assert total_derivative(parse("a(u)"), "x") == parse("a'(u)*u_x")
    assert total_derivative(parse("x*u^2"), "x") == parse("u^2 + 2*x*u*u_x")
    assert total_derivative(parse("q(x)"), "t") == ZERO


def test_total_derivatives_commute():
    for s in ("a(u)*u_x", "x*u^2 + t*u", "q(x)*u + u_x*u_t"):
        e = parse(s)
        tx = total_derivative(total_derivative(e, "t"), "x")
        xt = total_derivative(total_derivative(e, "x"), "t")
        assert tx == xt or is_zero(tx - xt).zero, s


def test_total_derivative_refuses_to_exceed_jet_depth():
    with pytest.raises(UnsupportedDepthError):
        total_derivative(parse("u_xxx"), "x")


def test_solution_ladder_oracles_for_quasilinear_flux():
    spec = burgers()
    assert on_solution_reduce(U_T, spec) == parse("-a(u)*u_x")
    # u_tt = a^2 u_xx + 2 a a' u_x^2 once u_t is eliminated twice
    utt = on_solution_reduce(parse("u_tt"), spec)
    want = parse("a(u)^2*u_xx + 2*a(u)*a'(u)*u_x^2")
    assert is_zero(utt - want if utt != want else ZERO).zero
    # mixed jet: u_xt = -(a u_x)_x
    uxt = on_solution_reduce(parse("u_xt"), spec)
    assert is_zero(uxt + parse("a'(u)*u_x^2 + a(u)*u_xx")).zero


def test_solution_reduction_is_idempotent_and_eliminates_t_jets():
    from lieconserve.expr import Jet, walk
    spec = EvolutionSpec.quasilinear(parse("x*u"), parse("u^2"))
    for s in ("u_t", "u_tt", "u_xt", "t*u_t*u_x + u_xx"):
        once = on_solution_reduce(parse(s), spec)
        assert on_solution_reduce(once, spec) == once
        leftovers = [n for n in walk(once)
                     if isinstance(n, Jet) and n.field == "u" and n.nt > 0]
        assert not leftovers, s


def test_generic_spec_guards_inputs():
    with pytest.raises(SpecError):
        EvolutionSpec.generic(parse("u_xx"))      # too deep for a flux
    with pytest.raises(SpecError):
        EvolutionSpec.quasilinear(parse("u_x"), ZERO)
    with pytest.raises(SpecError):
        EvolutionSpec.generic(parse("v + u_x"))   # adjoint field not allowed


def test_linear_parts_detects_quasilinear_fluxes():
    spec = EvolutionSpec.generic(parse("a(u)*u_x + u^2"))
    parts = spec.linear_parts()
    assert parts is not None
    alpha, beta = parts
    assert alpha == parse("a(u)") and beta == parse("u^2")
    assert EvolutionSpec.generic(parse("u_x^2")).linear_parts() is None


def test_linear_parts_decides_the_curvature_with_the_given_zero_test():
    from lieconserve.symmetry import Generator, determining_residual_pair
    spec = EvolutionSpec.generic(parse("u_x^2*u/10^12 + u*u_x"))
    strict = ZeroTestConfig(tolerance=1e-15)
    assert spec.linear_parts(strict) is None
    with pytest.raises(SpecError, match="split residuals"):
        determining_residual_pair(spec, Generator(1, 0, 0), strict)
    # the default tolerance calls the curvature zero, then finds u_x left
    # in the coefficient
    with pytest.raises(SpecError, match="cannot isolate"):
        spec.linear_parts()


def test_variational_derivative_of_quadratic_lagrangians():
    # delta/delta u of u_x^2/2 is -u_xx
    assert variational_derivative(parse("u_x^2/2"), "u") == parse("-u_xx")
    # delta/delta v recovers the equation from the formal Lagrangian
    spec = burgers()
    lag = parse("v*(u_t + a(u)*u_x)")
    assert variational_derivative(lag, "v") == parse("u_t + a(u)*u_x")


def test_adjoint_of_burgers_is_minus_advection_on_v():
    assert adjoint_of(burgers()) == parse("-v_t - a(u)*v_x")


def test_adjoint_of_a_nonhomogeneous_flux():
    spec = EvolutionSpec.generic(parse("u*u_x + u^2"))
    assert adjoint_of(spec) == parse("-v_t + 2*u*v - u*v_x")


def test_adjoint_matches_term_transcription_on_random_linear_specs():
    from lieconserve.expr import diff
    rng = random.Random(41)

    def rand_poly_expr(vars_):
        terms = []
        for _ in range(rng.randint(1, 4)):
            deg = [rng.randint(0, 2) for _ in vars_]
            coeff = Fraction(rng.randint(-3, 3))
            if coeff == 0:
                continue
            term = parse(str(coeff))
            for v, d in zip(vars_, deg):
                for _ in range(d):
                    term = term * parse(v)
            terms.append(term)
        acc = ZERO
        for t in terms:
            acc = acc + t
        return normalize(acc)

    for _ in range(20):
        alpha = rand_poly_expr(("t", "x", "u"))
        beta = rand_poly_expr(("t", "x", "u"))
        spec = EvolutionSpec.quasilinear(alpha, beta)
        f = spec.f
        f_ux = diff(f, U_X)
        transcription = normalize(
            parse("-v_t")
            - parse("v_x") * f_ux
            + parse("v") * diff(f, U)
            - parse("v") * diff(diff(f, U_X), parse("x"))
            - parse("v") * U_X * diff(diff(f, U_X), U)
            - parse("v") * parse("u_xx") * diff(diff(f, U_X), U_X))
        got = adjoint_of(spec)
        d = normalize(got - transcription) if got != transcription else ZERO
        assert d == ZERO or is_zero(d).zero


def test_bind_adjoint_field_substitutes_total_derivatives():
    e = parse("v_t + v_x")
    bound = bind_adjoint_field(e, parse("u^2"))
    assert bound == parse("2*u*u_t + 2*u*u_x")
    # deeper jets of v get the matching total derivatives of phi
    spec = burgers()
    adj = adjoint_of(spec)
    self_sub = bind_adjoint_field(adj, U)
    assert self_sub == parse("-u_t - a(u)*u_x")
