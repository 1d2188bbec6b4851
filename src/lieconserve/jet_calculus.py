"""Jet-space calculus for u_t + f(t, x, u, u_x) = 0.

Total derivatives, reduction onto the solution manifold, the variational
derivative, and the formal adjoint of the linearized operator.  The jet
alphabet stops at third order, so total derivatives accept input of order
at most two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .expr import (DEFAULT_TABLE, Expr, ExprError, FunctionTable, Jet,
                   JetDepthError, Param, U, U_T, U_X, V, ZERO, ZeroTestConfig,
                   add, as_expr, diff, free_symbols, is_zero, max_jet_order,
                   mul, neg, substitute)
from .expr.tree import MAX_JET_ORDER

T_SYM = Jet("t")
X_SYM = Jet("x")


class UnsupportedDepthError(JetDepthError):
    """The operation would need jet symbols beyond the supported order."""


class SpecError(ExprError):
    """The equation data is malformed for this representation."""


def _reject(sym: Expr, why: str) -> None:
    raise SpecError("%s: %s" % (why, sym))


def _check_flux(f: Expr) -> None:
    for sym in free_symbols(f):
        if isinstance(sym, Param):
            continue
        assert isinstance(sym, Jet)
        if sym.field in ("t", "x"):
            continue
        if sym.field == "v":
            _reject(sym, "flux may not involve the adjoint field")
        if sym.nt > 0 or sym.nx > 1:
            _reject(sym, "flux may depend on u_x at most")


def _check_coefficient(e: Expr, label: str) -> None:
    for sym in free_symbols(e):
        if isinstance(sym, Param):
            continue
        assert isinstance(sym, Jet)
        if sym.field in ("t", "x"):
            continue
        if sym.field == "v" or sym.nt > 0 or sym.nx > 0:
            _reject(sym, "%s must be a function of t, x, u" % label)


@dataclass(frozen=True)
class EvolutionSpec:
    """An equation u_t + f = 0, optionally split as f = alpha*u_x + beta."""

    f: Expr
    alpha: Optional[Expr] = None
    beta: Optional[Expr] = None
    table: FunctionTable = DEFAULT_TABLE

    @classmethod
    def generic(cls, f: Expr, table: FunctionTable = DEFAULT_TABLE) -> "EvolutionSpec":
        f = as_expr(f)
        _check_flux(f)
        return cls(f=f, table=table)

    @classmethod
    def quasilinear(cls, alpha: Expr, beta: Expr,
                    table: FunctionTable = DEFAULT_TABLE) -> "EvolutionSpec":
        alpha = as_expr(alpha)
        beta = as_expr(beta)
        _check_coefficient(alpha, "alpha")
        _check_coefficient(beta, "beta")
        f = add(mul(alpha, U_X), beta)
        return cls(f=f, alpha=alpha, beta=beta, table=table)

    def u_t_value(self) -> Expr:
        """What u_t equals on solutions."""
        return neg(self.f)

    def linear_parts(self, config: ZeroTestConfig | None = None
                     ) -> Optional[tuple[Expr, Expr]]:
        """(alpha, beta) with f = alpha*u_x + beta, or None if f is not
        linear in u_x; config is the zero test's, for the u_x-curvature.
        Coefficients must come out free of u_x."""
        if self.alpha is not None:
            return self.alpha, self.beta
        curvature = diff(diff(self.f, U_X, self.table), U_X, self.table)
        if curvature != ZERO and not is_zero(curvature, config, self.table).zero:
            return None
        alpha = diff(self.f, U_X, self.table)
        if any(isinstance(s, Jet) and s.field == "u" and s.nx > 0
               for s in free_symbols(alpha)):
            raise SpecError("cannot isolate the u_x coefficient of %s" % self.f)
        beta = self.f - alpha * U_X
        return alpha, beta


def total_derivative(e: Expr, coord: str,
                     table: FunctionTable = DEFAULT_TABLE) -> Expr:
    """Total t- or x-derivative on the jet space."""
    if coord not in ("t", "x"):
        raise ValueError("coord must be 't' or 'x'")
    e = as_expr(e)
    if max_jet_order(e) >= MAX_JET_ORDER:
        raise UnsupportedDepthError(
            "total derivative of an order-%d expression needs jets beyond "
            "order %d" % (max_jet_order(e), MAX_JET_ORDER))
    base = T_SYM if coord == "t" else X_SYM
    pieces = [diff(e, base, table)]
    for sym in free_symbols(e):
        if not isinstance(sym, Jet) or sym.field in ("t", "x"):
            continue
        partial = diff(e, sym, table)
        if partial == ZERO:
            continue
        bumped = (Jet(sym.field, sym.nx, sym.nt + 1) if coord == "t"
                  else Jet(sym.field, sym.nx + 1, sym.nt))
        pieces.append(mul(partial, bumped))
    return add(*pieces)


# Prerequisites for each reducible t-jet of u: which lower rungs its
# replacement is built from.
_LADDER_DEPS = {
    (0, 1): (),
    (1, 1): ((0, 1),),
    (2, 1): ((1, 1),),
    (0, 2): ((0, 1), (1, 1)),
    (1, 2): ((0, 2),),
    (0, 3): ((0, 2), (0, 1), (1, 1), (2, 1)),
}


def _solution_ladder(spec: EvolutionSpec,
                     needed: set[tuple[int, int]]) -> dict[Expr, Expr]:
    closure: set[tuple[int, int]] = set()
    frontier = list(needed)
    while frontier:
        key = frontier.pop()
        if key in closure:
            continue
        closure.add(key)
        frontier.extend(_LADDER_DEPS[key])

    table = spec.table
    rungs: dict[tuple[int, int], Expr] = {}

    def sub_t_jets(e: Expr) -> Expr:
        binds = {}
        for sym in free_symbols(e):
            if isinstance(sym, Jet) and sym.field == "u" and sym.nt > 0:
                binds[sym] = rungs[(sym.nx, sym.nt)]
        return substitute(e, binds) if binds else e

    if (0, 1) in closure:
        rungs[(0, 1)] = spec.u_t_value()
    if (1, 1) in closure:
        rungs[(1, 1)] = total_derivative(rungs[(0, 1)], "x", table)
    if (2, 1) in closure:
        rungs[(2, 1)] = total_derivative(rungs[(1, 1)], "x", table)
    if (0, 2) in closure:
        rungs[(0, 2)] = sub_t_jets(total_derivative(rungs[(0, 1)], "t", table))
    if (1, 2) in closure:
        rungs[(1, 2)] = total_derivative(rungs[(0, 2)], "x", table)
    if (0, 3) in closure:
        rungs[(0, 3)] = sub_t_jets(total_derivative(rungs[(0, 2)], "t", table))

    return {Jet("u", nx, nt): rungs[(nx, nt)] for (nx, nt) in closure}


def on_solution_reduce(e: Expr, spec: EvolutionSpec) -> Expr:
    """Eliminate every t-derivative of u using u_t = -f and its
    differential consequences.  Derivatives of the adjoint field are left
    alone.  Idempotent."""
    e = as_expr(e)
    needed = {(s.nx, s.nt) for s in free_symbols(e)
              if isinstance(s, Jet) and s.field == "u" and s.nt > 0}
    if not needed:
        return e
    unknown = needed - set(_LADDER_DEPS)
    if unknown:
        raise UnsupportedDepthError("no reduction for jets %s" % sorted(unknown))
    return substitute(e, _solution_ladder(spec, needed))


def variational_derivative(lagrangian: Expr, fieldname: str,
                           table: FunctionTable = DEFAULT_TABLE) -> Expr:
    """Euler operator applied to a first- or second-order Lagrangian density
    with respect to the named field."""
    if fieldname not in ("u", "v"):
        raise ValueError("fieldname must be 'u' or 'v'")
    lagrangian = as_expr(lagrangian)
    out = diff(lagrangian, Jet(fieldname), table)
    first = {(1, 0): "x", (0, 1): "t"}
    for (nx, nt), coord in first.items():
        partial = diff(lagrangian, Jet(fieldname, nx, nt), table)
        if partial != ZERO:
            out = out - total_derivative(partial, coord, table)
    second = {(2, 0): ("x", "x"), (1, 1): ("x", "t"), (0, 2): ("t", "t")}
    for (nx, nt), (c1, c2) in second.items():
        partial = diff(lagrangian, Jet(fieldname, nx, nt), table)
        if partial != ZERO:
            out = out + total_derivative(
                total_derivative(partial, c2, table), c1, table)
    return out


def adjoint_of(spec: EvolutionSpec) -> Expr:
    """Formal adjoint of F = u_t + f, acting on the field v.

    Obtained as the variational derivative in u of v*(u_t + f); the result
    involves v, v_t, v_x and, when f depends on u_x, also u_xx.
    """
    lagrangian = mul(V, add(U_T, spec.f))
    return variational_derivative(lagrangian, "u", spec.table)


def bind_adjoint_field(e: Expr, phi: Expr,
                       table: FunctionTable = DEFAULT_TABLE) -> Expr:
    """Substitute v = phi and each v-derivative by the matching total
    derivative of phi.  phi may involve t, x, u."""
    phi = as_expr(phi)
    binds: dict[Expr, Expr] = {}
    for sym in free_symbols(e):
        if not (isinstance(sym, Jet) and sym.field == "v"):
            continue
        value = phi
        for _ in range(sym.nt):
            value = total_derivative(value, "t", table)
        for _ in range(sym.nx):
            value = total_derivative(value, "x", table)
        binds[sym] = value
    return substitute(e, binds) if binds else as_expr(e)
