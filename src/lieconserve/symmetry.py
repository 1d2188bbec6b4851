"""Lie point symmetry verification for u_t + f(t, x, u, u_x) = 0.

A generator X = tau*d/dt + xi*d/dx + eta*d/du is a symmetry when its first
prolongation annihilates the equation on solutions.  The module evaluates
the resulting determining residuals, both for generic flux and in the
split (alpha, beta) form, and ships the classical generator catalog for
u_t + a(u)u_x = 0.  Residuals are verified, never solved for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .expr import (DEFAULT_TABLE, Expr, Func, FunctionTable, Jet, ONE, T, U,
                   U_T, U_TT, U_X, U_XT, U_XX, X, ZERO, ZeroTestConfig, add,
                   as_expr, diff, free_symbols, mul, neg, power, to_text)
from .jet_calculus import EvolutionSpec, SpecError, on_solution_reduce, total_derivative


@dataclass(frozen=True)
class Generator:
    """X = tau*d/dt + xi*d/dx + eta*d/du with components over (t, x, u)."""

    tau: Expr
    xi: Expr
    eta: Expr
    name: Optional[str] = None

    def __post_init__(self):
        for label in ("tau", "xi", "eta"):
            comp = as_expr(getattr(self, label))
            for sym in free_symbols(comp):
                if isinstance(sym, Jet) and sym.field not in ("t", "x") and (
                        sym.field != "u" or sym.nx or sym.nt):
                    raise SpecError(
                        "generator component %s may involve t, x, u only; "
                        "found %s" % (label, sym))
            object.__setattr__(self, label, comp)

    def __str__(self):
        parts = ["(%s)d/d%s" % (to_text(c), v)
                 for c, v in ((self.tau, "t"), (self.xi, "x"), (self.eta, "u"))
                 if c != ZERO]
        body = " + ".join(parts) if parts else "0"
        return "%s: %s" % (self.name, body) if self.name else body


def scale_generator(lam: Expr, g: Generator) -> Generator:
    """Componentwise multiplication by lambda(u).  Preserves the symmetry
    property when beta = 0 and g is projectable; the residual check stays
    the arbiter otherwise."""
    lam = as_expr(lam)
    name = None if g.name is None else "(%s)*%s" % (to_text(lam), g.name)
    return Generator(mul(lam, g.tau), mul(lam, g.xi), mul(lam, g.eta), name)


def _component_partials(g: Generator, table: FunctionTable):
    d = {}
    for label, comp in (("tau", g.tau), ("xi", g.xi), ("eta", g.eta)):
        for var, sym in (("t", T), ("x", X), ("u", U)):
            d[label + "_" + var] = diff(comp, sym, table)
    return d


def determining_residual_generic(spec: EvolutionSpec, g: Generator) -> Expr:
    """Left side of the scalar determining equation for generic flux;
    vanishes identically in (t, x, u, u_x) exactly when g is a symmetry."""
    table = spec.table
    f = spec.f
    p = _component_partials(g, table)
    f_x = diff(f, X, table)
    f_t = diff(f, T, table)
    f_u = diff(f, U, table)
    f_ux = diff(f, U_X, table)
    return add(
        p["eta_t"],
        neg(mul(p["xi_t"], U_X)),
        mul(add(p["tau_t"], neg(p["eta_u"]), mul(p["xi_u"], U_X)), f),
        mul(g.xi, f_x),
        mul(g.tau, f_t),
        mul(g.eta, f_u),
        neg(mul(p["tau_u"], power(f, 2))),
        mul(add(p["eta_x"], mul(p["eta_u"], U_X), neg(mul(p["xi_x"], U_X)),
                neg(mul(p["xi_u"], power(U_X, 2)))), f_ux),
        mul(add(p["tau_x"], mul(p["tau_u"], U_X)), f, f_ux),
    )


def determining_residual_pair(spec: EvolutionSpec, g: Generator,
                              config: ZeroTestConfig | None = None
                              ) -> tuple[Expr, Expr]:
    """The split residuals (R1, R2) for f = alpha*u_x + beta; the generic
    residual equals R1 + u_x*R2, and g is a symmetry iff both vanish.
    config is the zero test's, for deciding that f is linear in u_x."""
    parts = spec.linear_parts(config)
    if parts is None:
        raise SpecError("split residuals need f linear in u_x")
    alpha, beta = parts
    table = spec.table
    p = _component_partials(g, table)
    a_t, a_x, a_u = (diff(alpha, s, table) for s in (T, X, U))
    b_t, b_x, b_u = (diff(beta, s, table) for s in (T, X, U))
    r1 = add(
        p["eta_t"],
        mul(beta, add(p["tau_t"], neg(p["eta_u"]))),
        mul(b_x, g.xi),
        mul(b_t, g.tau),
        mul(b_u, g.eta),
        neg(mul(power(beta, 2), p["tau_u"])),
        mul(alpha, p["eta_x"]),
        mul(alpha, beta, p["tau_x"]),
    )
    r2 = add(
        neg(p["xi_t"]),
        mul(alpha, p["tau_t"]),
        mul(beta, p["xi_u"]),
        mul(a_x, g.xi),
        mul(a_t, g.tau),
        mul(a_u, g.eta),
        neg(mul(alpha, beta, p["tau_u"])),
        neg(mul(alpha, p["xi_x"])),
        mul(power(alpha, 2), p["tau_x"]),
    )
    return r1, r2


def prolongation_residual(spec: EvolutionSpec, g: Generator) -> Expr:
    """Independent cross-check: apply the first prolongation of g to
    u_t + f and reduce onto the solution manifold.  Agrees with
    determining_residual_generic."""
    table = spec.table
    f = spec.f
    w = add(g.eta, neg(mul(g.tau, U_T)), neg(mul(g.xi, U_X)))
    eta_t = add(total_derivative(w, "t", table),
                mul(g.tau, U_TT), mul(g.xi, U_XT))
    eta_x = add(total_derivative(w, "x", table),
                mul(g.tau, U_XT), mul(g.xi, U_XX))
    applied = add(
        mul(g.tau, diff(f, T, table)),
        mul(g.xi, diff(f, X, table)),
        mul(g.eta, diff(f, U, table)),
        eta_t,
        mul(eta_x, diff(f, U_X, table)),
    )
    return on_solution_reduce(applied, spec)


def burgers_catalog(table: FunctionTable = DEFAULT_TABLE) -> list[Generator]:
    """Generators of u_t + a(u)u_x = 0: the eight projectable basis fields
    plus the u-dependent translation family tau(u)d/dt + xi(u)d/dx.
    Valid where a'(u) does not vanish."""
    a = Func("a", (U,))
    ap = diff(a, U, table)
    inv = power(ap, -1)
    t, x = T, X
    gens = [
        Generator(ONE, ZERO, ZERO, "X1"),
        Generator(ZERO, ONE, ZERO, "X2"),
        Generator(t, x, ZERO, "X3"),
        Generator(t, ZERO, neg(mul(a, inv)), "X4"),
        Generator(ZERO, t, inv, "X5"),
        Generator(x, ZERO, neg(mul(power(a, 2), inv)), "X6"),
        Generator(mul(t, t), mul(t, x), mul(add(x, neg(mul(t, a))), inv), "X7"),
        Generator(mul(t, x), mul(x, x),
                  mul(a, add(x, neg(mul(t, a))), inv), "X8"),
        Generator(Func("tau", (U,)), Func("xi", (U,)), ZERO, "Xf"),
    ]
    return gens
