"""Conserved vectors for u_t + f = 0 and their symbolic certification.

A pair (C0, C1) is a conservation law when D_t C0 + D_x C1 vanishes on
solutions.  Vectors are built from symmetry generators through the formal
Lagrangian v*(u_t + f): the two-field form keeps v free, the phi-weighted
form closes the system with v = phi(u) and needs the equation to be
(quasi-)self-adjoint.  The simplified catalog for u_t + a(u)u_x = 0 is
shipped verbatim and certified rather than re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .adjointness import (NOT_QUASI_SELF_ADJOINT, SELF_ADJOINT,
                          AdjointnessVerdict, classify)
from .expr import (Const, Expr, ExprError, Func, FunctionTable, Jet, T, U,
                   U_T, U_X, V, X, ZERO, ZeroTestConfig, add, as_expr, diff,
                   free_symbols, is_zero, mul, neg, power, to_text)
from .jet_calculus import (EvolutionSpec, SpecError, bind_adjoint_field,
                           on_solution_reduce, total_derivative)
from .symmetry import Generator


class NotSelfAdjointError(ExprError):
    """Refusal to build a phi-weighted vector; carries the classification."""

    def __init__(self, verdict: AdjointnessVerdict):
        super().__init__("equation is %s: %s"
                         % (verdict.kind, verdict.diagnostics))
        self.verdict = verdict


@dataclass(frozen=True)
class ConservedVector:
    """Density C0 and flux C1, first-order jets plus v or a bound phi."""

    c0: Expr
    c1: Expr
    provenance: str = ""
    table: Optional[FunctionTable] = None

    def __post_init__(self):
        object.__setattr__(self, "c0", as_expr(self.c0))
        object.__setattr__(self, "c1", as_expr(self.c1))

    def involves_adjoint_field(self) -> bool:
        return any(isinstance(s, Jet) and s.field == "v"
                   for comp in (self.c0, self.c1)
                   for s in free_symbols(comp))


def build_vector_general(spec: EvolutionSpec, g: Generator) -> ConservedVector:
    """Two-field conserved vector (W*v, W*v*f_ux) with W = eta + tau*f -
    xi*u_x; v stays a free field solving the adjoint equation."""
    table = spec.table
    f = spec.f
    lagrangian = mul(V, add(U_T, f))
    w = add(g.eta, neg(mul(g.xi, U_X)), neg(mul(g.tau, U_T)))
    c0 = on_solution_reduce(add(mul(g.tau, lagrangian), mul(w, V)), spec)
    c1 = on_solution_reduce(
        add(mul(g.xi, lagrangian), mul(w, V, diff(f, U_X, table))), spec)
    label = g.name or str(g)
    return ConservedVector(c0, c1, "two-field pair from %s" % label, table)


def build_vector_self(spec: EvolutionSpec, g: Generator,
                      phi: Optional[Expr] = None,
                      config: ZeroTestConfig | None = None) -> ConservedVector:
    """phi-weighted vector

        C0 = [eta + tau*beta + (tau*alpha - xi)*u_x]*phi,
        C1 = [eta*alpha + xi*beta - (tau*alpha - xi)*u_t]*phi,

    with phi = u in the self-adjoint case.  C1 keeps the u_t symbol;
    reduce on solutions when needed.  Refuses when the classification does
    not admit any substitution."""
    verdict = classify(spec, config)
    if not verdict.admits_substitution:
        raise NotSelfAdjointError(verdict)
    table = verdict.table
    phi = verdict.phi if phi is None else as_expr(phi)
    alpha, beta = spec.linear_parts(config)
    drift = add(mul(g.tau, alpha), neg(g.xi))
    c0 = mul(add(g.eta, mul(g.tau, beta), mul(drift, U_X)), phi)
    c1 = mul(add(mul(g.eta, alpha), mul(g.xi, beta),
                 neg(mul(drift, U_T))), phi)
    label = g.name or str(g)
    return ConservedVector(c0, c1,
                           "phi-weighted pair from %s with phi = %s"
                           % (label, to_text(phi)), table)


def burgers_claw_catalog(table: FunctionTable | None = None
                         ) -> list[tuple[str, ConservedVector]]:
    """The simplified conservation laws of u_t + a(u)u_x = 0, keyed by the
    generator each one descends from.  A(u) is the density antiderivative,
    A' = u*a; the quotients require a' != 0."""
    from .expr import DEFAULT_TABLE
    table = table if table is not None else DEFAULT_TABLE
    a = Func("a", (U,))
    A = Func("A", (U,))
    ap = diff(a, U, table)
    inv = power(ap, -1)
    u, t, x = U, T, X
    half = Const(1) / 2
    drift = add(x, neg(mul(t, a)))        # x - t*a(u)
    entries = [
        ("X3", mul(half, u, u), A),
        ("X4", mul(a, u, inv), add(mul(a, a, u, inv), neg(A))),
        ("X5", mul(u, inv), add(mul(a, u, inv), neg(mul(half, u, u)))),
        ("X6", add(mul(a, a, u, inv), A), mul(a, a, a, u, inv)),
        ("X7", add(mul(drift, u, inv), mul(half, t, u, u)),
               add(mul(drift, a, u, inv), mul(Const(2), t, A),
                   neg(mul(half, x, u, u)))),
        ("X8", add(mul(drift, a, u, inv), mul(x, u, u), neg(mul(t, A))),
               add(mul(drift, a, a, u, inv), mul(x, A))),
    ]
    return [(label,
             ConservedVector(c0, c1, "catalog law for %s" % label, table))
            for label, c0, c1 in entries]


CATALOG_ALIASES = {"l%d" % (i + 1): "X%d" % (i + 3) for i in range(6)}


@dataclass(frozen=True)
class DivergenceReport:
    residual: Expr
    passed: bool
    witness: Optional[object] = None
    method: str = "structural"         # the zero test's ZeroVerdict.method

    def describe(self) -> str:
        if self.passed:
            return "divergence vanishes on solutions"
        return "divergence on solutions is %s" % to_text(self.residual)


def divergence_residual(cv: ConservedVector, spec: EvolutionSpec,
                        phi: Optional[Expr] = None,
                        config: ZeroTestConfig | None = None) -> DivergenceReport:
    """D_t C0 + D_x C1, reduced onto the solution manifold.

    Vectors carrying the free adjoint field require a phi to bind it
    first; phi-weighted and catalog vectors are checked as they are.
    """
    table = cv.table if cv.table is not None else spec.table
    c0, c1 = cv.c0, cv.c1
    if cv.involves_adjoint_field():
        if phi is None:
            raise SpecError("the vector involves the free field v; "
                            "supply a phi(u) binding to certify it")
        c0 = bind_adjoint_field(c0, phi, table)
        c1 = bind_adjoint_field(c1, phi, table)
    elif phi is not None:
        raise SpecError("phi supplied but the vector has no v to bind")
    divergence = add(total_derivative(c0, "t", table),
                     total_derivative(c1, "x", table))
    residual = on_solution_reduce(divergence, spec)
    if residual == ZERO:
        return DivergenceReport(residual, True)
    verdict = is_zero(residual, config, table)
    return DivergenceReport(residual, verdict.zero,
                            None if verdict.zero else verdict.witness,
                            verdict.method)
