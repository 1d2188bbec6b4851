"""Self- and quasi-self-adjointness classification and verification."""

from __future__ import annotations

import pytest

from lieconserve.adjointness import (AdjointnessVerdict,
                                     InconclusiveClassification,
                                     NOT_QUASI_SELF_ADJOINT,
                                     QUASI_SELF_ADJOINT, SELF_ADJOINT,
                                     classify, verify_substitution)
from lieconserve.expr import (Func, U, UnsupportedIntegrand, ZERO, integrate,
                              parse)
from lieconserve.jet_calculus import EvolutionSpec, SpecError


def spec(alpha: str, beta: str) -> EvolutionSpec:
    return EvolutionSpec.quasilinear(parse(alpha), parse(beta))


# The four-row classification contract. Each row is (alpha, beta, kind).
TABLE_ROWS = [
    ("a(u)", "0", SELF_ADJOINT),
    ("2*x", "u", SELF_ADJOINT),
    ("q(x)", "0", NOT_QUASI_SELF_ADJOINT),
    ("u", "u^2", NOT_QUASI_SELF_ADJOINT),
]


@pytest.mark.parametrize("alpha,beta,kind", TABLE_ROWS)
def test_classification_table(alpha, beta, kind):
    verdict = classify(spec(alpha, beta))
    assert verdict.kind == kind
    if kind == SELF_ADJOINT:
        assert verdict.phi == U
        assert verdict.admits_substitution
    else:
        assert not verdict.admits_substitution


@pytest.mark.parametrize("alpha,beta,kind", TABLE_ROWS)
def test_verifier_agrees_with_every_table_verdict(alpha, beta, kind):
    s = spec(alpha, beta)
    verdict = classify(s)
    report = verify_substitution(s, U)
    if kind == SELF_ADJOINT:
        assert report.passed
    else:
        # phi = u does not close the identity for the rejected rows
        assert not report.passed
        assert report.witness is not None
    assert verdict.kind == kind


def test_x_dependent_alpha_with_zero_beta_forces_constant_phi():
    verdict = classify(spec("q(x)", "0"))
    assert verdict.kind == NOT_QUASI_SELF_ADJOINT
    assert "phi" in verdict.diagnostics


def test_zero_beta_with_x_free_alpha_accepts_arbitrary_phi():
    s = spec("a(u)", "0")
    for phi in ("u", "u^2", "1 + u^3"):
        assert verify_substitution(s, parse(phi)).passed


def test_quasi_case_carries_an_opaque_phi_with_its_rewrite():
    s = spec("x*u^2", "1")          # r = phi'/phi = u^2
    verdict = classify(s)
    assert verdict.kind == QUASI_SELF_ADJOINT
    assert verdict.r == parse("u^2")
    assert isinstance(verdict.phi, Func) and verdict.phi.name == "phi"
    # the carried table rewrites phi' so the residual closes structurally
    report = verify_substitution(s, verdict.phi, verdict.table)
    assert report.passed


def test_matching_alpha_x_and_beta_u_is_rejected():
    # alpha_x = beta_u makes the identity read phi'*beta = 0
    verdict = classify(spec("a(u)", "1"))
    assert verdict.kind == NOT_QUASI_SELF_ADJOINT
    assert "phi'" in verdict.diagnostics


def test_nonpolynomial_log_derivative_is_rejected_with_explanation():
    verdict = classify(spec("u", "u^2"))        # r = -2/u
    assert verdict.kind == NOT_QUASI_SELF_ADJOINT
    assert "certified class" in verdict.diagnostics


def test_identity_still_closes_outside_the_certified_class():
    # phi = u^(-2) solves the identity for (u, u^2) even though the
    # classifier stays conservative about it
    report = verify_substitution(spec("u", "u^2"), parse("u^(-2)"))
    assert report.passed


def test_unintegrable_symbol_mix_raises_inconclusive():
    with pytest.raises(InconclusiveClassification) as exc:
        classify(spec("x*a(u)", "u"))
    assert "u-integral" in str(exc.value)
    assert exc.value.integrand is not None


def test_nonquasilinear_flux_is_not_quasi_self_adjoint():
    verdict = classify(EvolutionSpec.generic(parse("u_x^2")))
    assert verdict.kind == NOT_QUASI_SELF_ADJOINT
    assert "linear" in verdict.diagnostics


def test_t_or_x_dependent_log_derivative_is_rejected():
    # r = (alpha_x - beta_u)/beta depends on x here
    verdict = classify(spec("x*u^2", "u"))
    assert verdict.kind == NOT_QUASI_SELF_ADJOINT


def test_substitution_argument_must_be_a_function_of_u_alone():
    with pytest.raises(SpecError):
        verify_substitution(spec("a(u)", "0"), parse("x*u"))
    with pytest.raises(SpecError):
        verify_substitution(spec("a(u)", "0"), parse("u_x"))


def test_u_polynomial_antiderivative_helper():
    assert integrate(parse("u^2"), U) == parse("u^3/3")
    assert integrate(parse("2*x*u + t"), U) == parse("x*u^2 + t*u")
    for text in ("1/u", "a(u)", "u^(1/2)", "x/(1 + u)"):
        with pytest.raises(UnsupportedIntegrand):
            integrate(parse(text), U)


def test_verdict_exposes_the_reduction_factor():
    verdict = classify(spec("a(u)", "0"))
    assert isinstance(verdict, AdjointnessVerdict)
    assert verdict.factor is not None
    # F*|_{v=phi} + phi' F must vanish; the factor records the multiple
    assert verdict.kind == SELF_ADJOINT
