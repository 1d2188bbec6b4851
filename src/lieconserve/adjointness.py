"""Self- and quasi-self-adjointness of u_t + alpha*u_x + beta = 0.

An equation is quasi-self-adjoint when substituting v = phi(u) into the
adjoint equation reproduces a multiple of the original, the multiplier
being -phi'(u); it is self-adjoint when phi(u) = u works.  For the
quasilinear family the whole question reduces to the scalar identity

    phi'*beta + phi*(beta_u - alpha_x) = 0,

which the classifier analyzes case by case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .expr import (Const, Expr, ExprError, Func, FunctionDef, FunctionTable,
                   Jet, Param, T, U, U_T, UnsupportedIntegrand, X, ZERO,
                   ZeroTestConfig, add, as_expr, diff, free_symbols,
                   integrate, is_zero, mul, neg, power, substitute, to_text)
from .jet_calculus import EvolutionSpec, SpecError, adjoint_of, bind_adjoint_field

SELF_ADJOINT = "self_adjoint"
QUASI_SELF_ADJOINT = "quasi_self_adjoint"
NOT_QUASI_SELF_ADJOINT = "not_quasi_self_adjoint"


class InconclusiveClassification(ExprError):
    """The classification needs an antiderivative outside the supported
    class; carries the unintegrated expression."""

    def __init__(self, integrand: Expr):
        super().__init__("inconclusive: no closed form for the u-integral "
                         "of %s" % to_text(integrand))
        self.integrand = integrand


@dataclass(frozen=True)
class AdjointnessVerdict:
    kind: str
    phi: Optional[Expr]
    factor: Optional[Expr]
    diagnostics: str
    table: FunctionTable
    r: Optional[Expr] = None

    @property
    def admits_substitution(self) -> bool:
        return self.kind in (SELF_ADJOINT, QUASI_SELF_ADJOINT)


def _phi_symbol(r: Expr, table: FunctionTable) -> tuple[Expr, FunctionTable]:
    """An opaque phi(u) whose derivative rewrites as r(u)*phi(u), so that
    phi'/phi = r holds structurally without a closed form."""

    def rule(i: int, args: tuple[Expr, ...]) -> Expr:
        (w,) = args
        return mul(substitute(r, {U: w}) if w != U else r, Func("phi", (w,)))

    extended = table.extended(FunctionDef("phi", rewrite=rule))
    return Func("phi", (U,)), extended


def classify(spec: EvolutionSpec,
             config: ZeroTestConfig | None = None) -> AdjointnessVerdict:
    """Decide self- / quasi-self-adjointness of u_t + f = 0.

    The flux must be linear in u_x (anything else fails immediately); the
    coefficients are then analyzed through the phi identity above.  Raises
    InconclusiveClassification when the self-adjointness test needs an
    antiderivative outside the polynomial-in-u class.
    """
    table = spec.table

    def zero(e: Expr) -> bool:
        return e == ZERO or is_zero(e, config, table).zero

    parts = spec.linear_parts(config)
    if parts is None:
        return AdjointnessVerdict(
            NOT_QUASI_SELF_ADJOINT, None, None,
            "flux is not linear in u_x; the adjoint picks up u_xx terms "
            "no point substitution can cancel", table)
    alpha, beta = parts
    alpha_x = diff(alpha, X, table)
    beta_u = diff(beta, U, table)

    if zero(beta):
        if zero(alpha_x):
            return AdjointnessVerdict(
                SELF_ADJOINT, U, Const(-1),
                "beta = 0 with x-free alpha: the identity reads phi*0 = 0, "
                "so every phi(u) with nonvanishing derivative works; "
                "phi = u is reported", table)
        return AdjointnessVerdict(
            NOT_QUASI_SELF_ADJOINT, None, None,
            "beta = 0 but alpha depends on x, which forces phi = 0", table)

    r = mul(add(alpha_x, neg(beta_u)), power(beta, -1))
    if not zero(diff(r, T, table)) or not zero(diff(r, X, table)):
        return AdjointnessVerdict(
            NOT_QUASI_SELF_ADJOINT, None, None,
            "(alpha_x - beta_u)/beta depends on t or x, so no u-only phi "
            "can satisfy the identity", table, r=r)

    integrand = mul(U, alpha_x)
    try:
        anti = integrate(integrand, U)
    except UnsupportedIntegrand:
        raise InconclusiveClassification(integrand) from None
    g = add(mul(U, beta), neg(anti))
    if zero(diff(g, U, table)):
        return AdjointnessVerdict(
            SELF_ADJOINT, U, Const(-1),
            "u*beta - integral(u*alpha_x, u) has no u-dependence, so "
            "phi = u satisfies the identity", table, r=r)

    if zero(r):
        return AdjointnessVerdict(
            NOT_QUASI_SELF_ADJOINT, None, None,
            "alpha_x = beta_u makes the identity read phi'*beta = 0, "
            "forcing phi' = 0", table, r=r)

    try:
        integrate(r, U)
    except UnsupportedIntegrand:
        return AdjointnessVerdict(
            NOT_QUASI_SELF_ADJOINT, None, None,
            "phi'/phi = %s is not polynomial in u; any formal phi lies "
            "outside the certified class, so no verdict-backed multiplier "
            "exists" % to_text(r), table, r=r)

    phi, extended = _phi_symbol(r, table)
    factor = neg(mul(r, phi))
    return AdjointnessVerdict(
        QUASI_SELF_ADJOINT, phi, factor,
        "phi'/phi = %s depends on u alone; phi is carried opaquely with "
        "the rewrite phi' = (%s)*phi" % (to_text(r), to_text(r)),
        extended, r=r)


@dataclass(frozen=True)
class SubstitutionReport:
    residual: Expr
    passed: bool
    witness: Optional[object] = None

    def describe(self) -> str:
        if self.passed:
            return "identity holds; residual reduces to zero"
        return "identity fails; residual %s" % to_text(self.residual)


def verify_substitution(spec: EvolutionSpec, phi: Expr,
                        table: FunctionTable | None = None,
                        config: ZeroTestConfig | None = None) -> SubstitutionReport:
    """Check F*|_{v=phi(u)} + phi'(u)*F = 0 for a concrete phi over u."""
    table = table if table is not None else spec.table
    phi = as_expr(phi)
    for sym in free_symbols(phi):
        if isinstance(sym, Param):
            continue
        if not (isinstance(sym, Jet) and sym.field == "u"
                and sym.nx == 0 and sym.nt == 0):
            raise SpecError("phi must be a function of u alone, got %s"
                            % to_text(phi))
    adjoint = adjoint_of(spec)
    bound = bind_adjoint_field(adjoint, phi, table)
    equation = add(U_T, spec.f)
    residual = add(bound, mul(diff(phi, U, table), equation))
    if residual == ZERO:
        return SubstitutionReport(residual, True)
    verdict = is_zero(residual, config, table)
    return SubstitutionReport(residual, verdict.zero,
                              None if verdict.zero else verdict.witness)
