"""Shared expression corpus, sampling helpers, and acceptance reporting."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

# One line per acceptance scenario, echoed after the run (see the
# pytest_terminal_summary hook at the bottom).
ACCEPTANCE_LINES: list[str] = []

from lieconserve.expr import (DEFAULT_TABLE, Expr, Jet, JetPoint, Poly,
                              free_symbols, function_names, parse,
                              resolve_instantiations)

# A broad cross-section of the grammar: bare symbols, rationals, powers
# with negative and fractional exponents, registered function symbols and
# their primes, and composite densities of the kind the builders emit.
CORPUS = [
    "u", "t", "x", "u_x", "u_t", "u_xx", "u_xt", "u_tt",
    "v", "v_x", "v_t",
    "0", "1", "3/4", "2.5",
    "-u", "u + 1", "u - t", "x*u", "u/2",
    "u^2", "u^3/3", "u^(-1)", "u^(1/2)",
    "(u + 1)^2", "1/(1 + u)", "u^2 - 2*u + 1", "(u - 1)^2/(u + 1)",
    "3*x^2 - x*t + t^2/4",
    "a(u)", "a'(u)", "A(u)", "q(x)", "q'(x)",
    "phi(u)", "tau(u)", "xi(u)",
    "a(u)*u_x", "a(u)*u_x + u^2", "u/a'(u)", "a(u)^2/a'(u)",
    "x - t*a(u)", "(x - t*a(u))*u/a'(u) + t*u^2/2",
    "2*t*A(u) - x*u^2/2", "-t*u^3/3 + x*u^2/2",
    "u_x^2", "u_x*u_t", "(1 + u^3)*t",
    "a(u)*a'(u)*u", "q(x)*u_x + u",
    "phi(u)*(u_x - u_t/2)", "tau(u)*x + xi(u)*t",
    "u_xx + u_tt",
    "(u*x)^(1/2)", "(u^(1/2))^2", "u*(1 + u)^(-2)", "(1 + u)^9/(1 + u)",
]

# Base instantiations used when a sampled point must evaluate function
# symbols.  a' = 1 + w^2 never vanishes, so quotients by a'(u) are safe.
STANDARD_POLYS = {
    "a": Poly({(1,): Fraction(1), (3,): Fraction(1, 3)}),
    "q": Poly({(0,): Fraction(2), (2,): Fraction(1)}),
    "phi": Poly({(2,): Fraction(1)}),
    "tau": Poly({(0,): Fraction(1), (1,): Fraction(1)}),
    "xi": Poly({(1,): Fraction(2)}),
}


def bound_point(exprs: list[Expr], rng: random.Random,
                box: tuple[float, float] = (0.3, 1.5)) -> JetPoint:
    """A sample binding every jet symbol in the given expressions, with the
    standard function instantiations (derived symbols resolved)."""
    table = DEFAULT_TABLE
    jets: set[Expr] = set()
    bases: set[str] = set()
    for e in exprs:
        jets |= {s for s in free_symbols(e) if isinstance(s, Jet)}
        bases |= {table[n].base for n in function_names(e)}
    functions = resolve_instantiations(bases, STANDARD_POLYS, table)
    values = {j: rng.uniform(*box) for j in jets}
    return JetPoint(values, functions)


def parsed_corpus() -> list[Expr]:
    return [parse(s) for s in CORPUS]


def random_poly_expr(rng: random.Random,
                     var_names: tuple[str, ...] = ("t", "x", "u"),
                     degree: int = 3, max_terms: int = 4) -> Expr:
    """A random polynomial over the named symbols, total degree bounded."""
    from lieconserve.expr import Const, ZERO, normalize
    acc = ZERO
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.randint(-3, 3)
        if coeff == 0:
            continue
        exps = []
        budget = degree
        for _ in var_names:
            e = rng.randint(0, budget)
            exps.append(e)
            budget -= e
        term = Const(Fraction(coeff))
        for name, e in zip(var_names, exps):
            for _ in range(e):
                term = term * parse(name)
        acc = acc + term
    return normalize(acc)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS...`` in a fresh interpreter that imports this
    checkout's package, so modules loaded by other tests do not count."""
    import lieconserve
    src = str(Path(lieconserve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
