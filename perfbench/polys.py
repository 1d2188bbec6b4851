"""Exact sparse polynomials over (t, x, u) for input generation and oracles.

The benchmark builds its inputs as these dictionaries and prints them as
text for the program to parse, so every known answer (derivatives, the
self-adjointness criterion, planted identities) is computed here,
independently of the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

VARS = ("t", "x", "u")
Poly = dict  # {(i, j, k): Fraction} for t^i x^j u^k, no zero coefficients


def clean(p: Poly) -> Poly:
    return {k: v for k, v in p.items() if v != 0}


def add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for k, v in p.items():
            out[k] = out.get(k, Fraction(0)) + v
    return clean(out)


def scale(p: Poly, c) -> Poly:
    return clean({k: v * c for k, v in p.items()})


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, Fraction(0)) + v1 * v2
    return clean(out)


def diff(p: Poly, var: str) -> Poly:
    i = VARS.index(var)
    out: Poly = {}
    for k, v in p.items():
        if k[i]:
            kk = k[:i] + (k[i] - 1,) + k[i + 1:]
            out[kk] = out.get(kk, Fraction(0)) + v * k[i]
    return clean(out)


def text(p: Poly) -> str:
    """Source text in the program's expression language."""
    if not p:
        return "0"
    terms = []
    for k in sorted(p):
        c = p[k]
        factors = ["(%s)" % c if c.denominator != 1 or c < 0 else str(c)]
        for name, e in zip(VARS, k):
            if e:
                factors.append(name if e == 1 else "%s^%d" % (name, e))
        terms.append("*".join(factors))
    return " + ".join(terms)


def random_poly(rng: random.Random, var_names=VARS, degree: int = 3,
                max_terms: int = 4, draws: int | None = None) -> Poly:
    """Random polynomial drawn like the acceptance-suite generator: up to
    max_terms term draws (exactly ``draws`` if given), integer coefficients
    in [-3, 3], total degree bounded."""
    acc: Poly = {}
    for _ in range(draws if draws is not None else rng.randint(1, max_terms)):
        coeff = rng.randint(-3, 3)
        if coeff == 0:
            continue
        exps = {}
        budget = degree
        for name in var_names:
            e = rng.randint(0, budget)
            exps[name] = e
            budget -= e
        key = tuple(exps.get(name, 0) for name in VARS)
        acc = add(acc, {key: Fraction(coeff)})
    return acc


def _univariate_divide(num: dict, den: dict):
    """Exact division in Q[u] ({power: coeff}); the quotient or None."""
    num = dict(num)
    dtop = max(den)
    quot: dict = {}
    while num:
        ntop = max(num)
        if ntop < dtop:
            return None
        c = num[ntop] / den[dtop]
        quot[ntop - dtop] = c
        for k, v in den.items():
            kk = k + ntop - dtop
            num[kk] = num.get(kk, Fraction(0)) - c * v
            if num[kk] == 0:
                del num[kk]
    return quot


def u_polynomial_ratio(n: Poly, b: Poly):
    """n/b as a polynomial in u alone, or None when it is not one."""
    if not b:
        return None
    k0 = next(iter(b))
    slice_of = lambda p: {k[2]: v for k, v in p.items() if k[:2] == k0[:2]}
    quot = _univariate_divide(slice_of(n), slice_of(b))
    if quot is None:
        return None
    r = {(0, 0, e): c for e, c in quot.items()}
    return r if add(mul(r, b), scale(n, -1)) == {} else None


SELF_ADJOINT = "self_adjoint"
QUASI_SELF_ADJOINT = "quasi_self_adjoint"
NOT_QUASI_SELF_ADJOINT = "not_quasi_self_adjoint"


def expected_adjointness(alpha: Poly, beta: Poly) -> str:
    """Classification of u_t + alpha*u_x + beta = 0 from the identity
    phi'*beta = phi*(alpha_x - beta_u): with beta = 0 every phi works iff
    alpha_x = 0; otherwise phi'/phi = r = (alpha_x - beta_u)/beta must
    depend on u alone, phi = u works iff r = 1/u, and a certified phi
    exists iff r is a nonzero polynomial in u."""
    alpha_x = diff(alpha, "x")
    if not beta:
        return SELF_ADJOINT if not alpha_x else NOT_QUASI_SELF_ADJOINT
    n = add(alpha_x, scale(diff(beta, "u"), -1))
    for var in ("t", "x"):
        # d/dvar (n/b) = 0  <=>  n_var*b - n*b_var = 0
        if add(mul(diff(n, var), beta), scale(mul(n, diff(beta, var)), -1)):
            return NOT_QUASI_SELF_ADJOINT
    u = {(0, 0, 1): Fraction(1)}
    if not add(beta, scale(mul(u, n), -1)):        # r = 1/u
        return SELF_ADJOINT
    if not n:
        return NOT_QUASI_SELF_ADJOINT
    return (QUASI_SELF_ADJOINT if u_polynomial_ratio(n, beta) is not None
            else NOT_QUASI_SELF_ADJOINT)
