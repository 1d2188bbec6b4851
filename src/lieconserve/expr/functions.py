"""Registry of opaque function symbols and their derivative behaviour.

A registered symbol either introduces primed derivative symbols on
differentiation (``a`` -> ``a'`` -> ``a''``) or carries a rewrite rule that
expresses its derivative through already-known symbols (the density
antiderivative ``A`` rewrites as ``A'(u) = u*a(u)``).  Derivative symbols
are never registered: their definitions follow from their names on lookup,
so parsing and differentiating leave a table unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .tree import Expr, ExprError, Func, W, mul


class UnknownFunctionError(ExprError):
    pass


@dataclass(frozen=True)
class FunctionDef:
    """One opaque symbol.

    ``base``/``order`` record lineage: ``a''`` has base ``a`` and order
    ``(2,)``.  ``rewrite`` maps the argument expressions to the derivative
    with respect to argument ``i`` (then the chain rule applies).
    ``derived_poly`` builds this symbol's instantiation, a polynomial in
    ``w``, from the instantiations of the symbols named in
    ``derived_deps``.  Instantiations exist for one-argument symbols only.
    """

    name: str
    arity: int = 1
    base: str = ""
    order: tuple[int, ...] = ()
    rewrite: Optional[Callable[[int, tuple[Expr, ...]], Expr]] = None
    derived_poly: Optional[Callable[[Mapping[str, Expr]], Expr]] = None
    derived_deps: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.base:
            object.__setattr__(self, "base", self.name)
        if not self.order:
            object.__setattr__(self, "order", (0,) * self.arity)


def _partial_name(base: str, order: Sequence[int], arity: int) -> str:
    if arity == 1:
        return base + "'" * order[0]
    return base + "".join("_d%d" % (i + 1) * k for i, k in enumerate(order))


_DERIVED_NAME_RE = re.compile(r"^(.+?)('+|(?:_d\d+)+)$")


class FunctionTable:
    """Immutable symbol registry; ``extended`` returns a copy with more
    symbols."""

    def __init__(self, defs: Optional[dict[str, FunctionDef]] = None):
        self._defs: dict[str, FunctionDef] = dict(defs or {})

    def extended(self, *fdefs: FunctionDef) -> "FunctionTable":
        out = FunctionTable(self._defs)
        for fdef in fdefs:
            out._defs[fdef.name] = fdef
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._defs or self._derived(name) is not None

    def __getitem__(self, name: str) -> FunctionDef:
        fdef = self._defs.get(name) or self._derived(name)
        if fdef is None:
            raise UnknownFunctionError("unregistered function symbol %r" % name)
        return fdef

    def names(self) -> list[str]:
        return sorted(self._defs)

    def _derived(self, name: str) -> Optional[FunctionDef]:
        """The derivative symbol a name spells over a registered base:
        ``a''`` for a univariate ``a``, ``f_d1_d2`` for a multivariate ``f``."""
        m = _DERIVED_NAME_RE.match(name)
        fdef = self._defs.get(m.group(1)) if m else None
        if fdef is None:
            return None
        slots = m.group(2).split("_d")
        order = ((len(m.group(2)),) if fdef.arity == 1
                 else tuple(slots.count(str(i + 1)) for i in range(fdef.arity)))
        if _partial_name(fdef.name, order, fdef.arity) != name:
            return None
        return FunctionDef(name, fdef.arity, base=fdef.name, order=order)

    def partial(self, fdef: FunctionDef, i: int) -> FunctionDef:
        """The symbol standing for d(fdef)/d(argument i)."""
        order = tuple(k + (1 if j == i else 0) for j, k in enumerate(fdef.order))
        name = _partial_name(fdef.base, order, fdef.arity)
        return FunctionDef(name, fdef.arity, base=fdef.base, order=order)

    def derivative_term(self, fdef: FunctionDef, i: int, args: tuple[Expr, ...]) -> Expr:
        """d fdef(args) / d args[i], before the chain-rule factor."""
        if fdef.rewrite is not None:
            return fdef.rewrite(i, args)
        return Func(self.partial(fdef, i).name, args)


def _density_antiderivative_rewrite(i: int, args: tuple[Expr, ...]) -> Expr:
    # A'(w) = w*a(w): the flux potential used throughout the transport catalog
    (w,) = args
    return mul(w, Func("a", (w,)))


def build_default_table() -> FunctionTable:
    return FunctionTable().extended(
        FunctionDef("a"),          # wave speed, function of u
        FunctionDef("A", rewrite=_density_antiderivative_rewrite,
                    derived_poly=_density_antiderivative_poly,
                    derived_deps=("a",)),
        FunctionDef("q"),          # spatial profile, function of x
        FunctionDef("phi"),        # multiplier candidates, function of u
        FunctionDef("tau"),        # generator components depending on u only
        FunctionDef("xi"),
    )


def _density_antiderivative_poly(polys: Mapping[str, Expr]) -> Expr:
    from .derive import integrate
    return integrate(mul(W, polys["a"]), W)


DEFAULT_TABLE = build_default_table()
