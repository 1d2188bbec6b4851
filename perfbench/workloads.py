"""Seeded workloads: input generation, the timed operation and its known answer.

Each workload is a ``Workload`` with four parts:

- ``make_blocks(rng)`` builds the next block of inputs from the seeded
  generator.  Every block has the same mix of kinds, and a run always ends on
  a block boundary, so the mix of a run does not depend on how fast the
  program is.  Block n is the same for a given seed however fast it comes.
- ``prepare(item)`` turns an input into the arguments of the operation,
  outside the timed region.
- ``run(prepared)`` is the operation that is timed (and traced).
- ``check(item, prepared, result)`` compares the result with an answer known from the
  construction of the input or from the paper; it is never a digest of the
  program's earlier output.  It runs outside the timed and traced region.

``cli-cold`` is not here: its operations are fresh subprocesses, see
``worker.py`` and ``cli_commands``.
"""

from __future__ import annotations

import fnmatch
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import polys

@dataclass
class Item:
    kind: str
    data: Any


@dataclass
class Workload:
    make_blocks: Callable[[random.Random], list]
    prepare: Callable[[Item], Any]
    run: Callable[[Any], Any]
    check: Callable[[Item, Any, Any], bool]


def _lc():
    """The program under test, imported lazily so that set-up time covers it."""
    import lieconserve
    return lieconserve


# ---------------------------------------------------------------------------
# symbolic-scan: normalization-heavy residual algebra

def _scan_block(rng: random.Random) -> list[Item]:
    # 8 random tuples drawn like the acceptance-3 generator, one t-free spec
    # with X1 = d/dt and one x-free spec with X2 = d/dx (both must verify).
    # Tuple i gives component j (i + j) % 4 + 1 term draws, so every block
    # has the same mix of sizes, which set an op's cost.
    items = []
    for i in range(8):
        comps = tuple(polys.random_poly(rng, draws=(i + j) % 4 + 1) for j in range(5))
        items.append(Item("random", comps))
    one = {(0, 0, 0): Fraction(1)}
    alpha, beta = (polys.random_poly(rng, ("x", "u")) for _ in range(2))
    items.append(Item("t-free+X1", (alpha, beta, one, {}, {})))
    alpha, beta = (polys.random_poly(rng, ("t", "u")) for _ in range(2))
    items.append(Item("x-free+X2", (alpha, beta, {}, one, {})))
    rng.shuffle(items)
    for item in items:
        item.data = tuple(polys.text(p) for p in item.data) + (item.data,)
    return items


def _scan_run(texts):
    lc = _lc()
    alpha, beta, tau, xi, eta = (lc.expr.parse(s) for s in texts)
    spec = lc.EvolutionSpec.quasilinear(alpha, beta)
    g = lc.Generator(tau, xi, eta)
    verdict = lc.classify(spec)
    whole = lc.determining_residual_generic(spec, g)
    r1, r2 = lc.determining_residual_pair(spec, g)
    prolonged = lc.prolongation_residual(spec, g)
    return verdict, whole, r1, r2, prolonged


def _same(lc, a, b) -> bool:
    return a == b or lc.expr.is_zero(a - b).zero


def _scan_check(item: Item, texts, result) -> bool:
    lc = _lc()
    verdict, whole, r1, r2, prolonged = result
    alpha, beta = item.data[5][:2]
    if verdict.kind != polys.expected_adjointness(alpha, beta):
        return False
    if not _same(lc, whole, lc.expr.normalize(r1 + lc.expr.U_X * r2)):
        return False
    if not _same(lc, whole, prolonged):
        return False
    if item.kind != "random":
        return all(_same(lc, r, lc.expr.ZERO) for r in (whole, r1, r2))
    return True


# ---------------------------------------------------------------------------
# identity-certify: the randomized zero test on planted quotient identities

_FUNCS = {"a": ("a(u)", "a'(u)"), "q": ("q(x)",), "tau": ("tau(u)",),
          "xi": ("xi(u)",)}
# Per block: four identities over one opaque function (a, q, tau, xi once
# each), two over two (a complementary pair), two over three (one with a and
# q-tau-xi, which costs more), three non-identities over 1, 2 and 3
# functions and one structural zero.  Fixing which functions each slot holds
# keeps the cost mix of a block independent of the seed.  The median op is a
# one-function identity and the tail a three-function one.
_NAMES = tuple(sorted(_FUNCS))


def _identity_specs(rng: random.Random) -> list[tuple[str, tuple[str, ...]]]:
    pair = ("a", rng.choice(_NAMES[1:]))
    dropped = rng.choice(_NAMES[1:])
    with_a = tuple(n for n in _NAMES if n != dropped)
    return ([("identity", (n,)) for n in _NAMES]
            + [("identity", pair), ("identity", tuple(n for n in _NAMES if n not in pair))]
            + [("identity", with_a), ("identity", _NAMES[1:])]
            + [("non-identity", tuple(rng.sample(_NAMES, k))) for k in (1, 2, 3)]
            + [("structural", tuple(rng.sample(_NAMES, 2)))])


def _coeff(rng: random.Random) -> int:
    return rng.choice((1, 2, 3, -1, -2, -3))


def _identity_item(rng: random.Random, kind: str, names: tuple[str, ...]) -> Item:
    atoms = [a for n in names for a in _FUNCS[n]]
    # P = c*f1*...*fk + c carries every chosen function; Q = c*g + c is a
    # sum, so the quotient cannot cancel structurally and every one of the
    # 3^k instantiation combos is sampled.
    p = "(%d)*%s + %d" % (_coeff(rng), "*".join(_FUNCS[n][0] for n in names),
                          _coeff(rng))
    q = "(%d)*%s + %d" % (_coeff(rng), rng.choice(atoms), rng.randint(1, 3))
    if kind == "identity":
        text = "(%s)*(%s)/(%s) - (%s)" % (p, q, q, p)
    elif kind == "non-identity":        # equals u/Q, never zero
        text = "((%s)*(%s) + u)/(%s) - (%s)" % (p, q, q, p)
    else:                               # cancels in the normal form
        text = "(%s)*(%s) - (%s)*(%s)" % (p, q, q, p)
    return Item(kind, text)


def _identity_block(rng: random.Random) -> list[Item]:
    items = [_identity_item(rng, kind, names) for kind, names in _identity_specs(rng)]
    rng.shuffle(items)
    return items


def _identity_prepare(item: Item):
    return _lc().expr.parse(item.data)


def _identity_run(e):
    return _lc().expr.is_zero(e)


def _identity_check(item: Item, e, verdict) -> bool:
    if item.kind == "non-identity":
        return not verdict.zero and verdict.witness is not None
    return verdict.zero


# ---------------------------------------------------------------------------
# numeric-transport: conservation laws along exact characteristics

_SPEEDS = {"u": {1: Fraction(1)}, "u + u^3/3": {1: Fraction(1), 3: Fraction(1, 3)}}
_TWO_PI = 2.0 * math.pi
_BUMP = (0.5, 0.0, 0.375)          # amplitude, center, half-width
_BUMP_DOMAIN = (-1.2, 1.2)
# Per block: q-drift of the energy u^2/2 on periodic sine data (Q = pi/2),
# the wrong density u^3 on the same data (Q = 0, must miss pi/2), flux
# balance of the X7 and X8 catalog laws on compact bump data, and X7 with a
# misprinted density (the t*u^2/2 term dropped), which must fail.
# Each slot fixes (kind, a(u), nodes), so an op's cost depends on its slot
# and the seed moves only the times and the order.
_NUM_MIX = (("q-drift", "u", 1024), ("q-drift", "u + u^3/3", 2048),
            ("q-drift", "u", 4096), ("wrong-density", "u", 2048),
            ("flux-X7", "u", 2048), ("flux-X8", "u", 1024),
            ("flux-misprint", "u + u^3/3", 1024))


def _shock_time(speed: str, f, df, lo: float, hi: float) -> float:
    """t* = -1/min (a o u0)', on a dense grid, for choosing safe times."""
    xs = np.linspace(lo, hi, 200001)
    u = f(xs)
    da = sum(float(c) * k * u ** (k - 1) for k, c in _SPEEDS[speed].items())
    return -1.0 / float((da * df(xs)).min())


def _bump(xi):
    amp, c, h = _BUMP
    q = np.abs(xi - c) / h
    return amp * np.where(q <= 1, (4 - 6 * q ** 2 + 3 * q ** 3) / 4,
                          np.where(q <= 2, (2 - q) ** 3 / 4, 0.0))


def _bump_slope(xi):
    amp, c, h = _BUMP
    q = np.abs(xi - c) / h
    return (amp / h) * np.sign(xi - c) * np.where(
        q <= 1, (-12 * q + 9 * q ** 2) / 4, np.where(q <= 2, -3 * (2 - q) ** 2 / 4, 0.0))


_SHOCK: dict = {}


def _t_star(periodic: bool, speed: str) -> float:
    key = (periodic, speed)
    if key not in _SHOCK:
        _SHOCK[key] = (_shock_time(speed, np.sin, np.cos, 0.0, _TWO_PI) if periodic
                       else _shock_time(speed, _bump, _bump_slope, *_BUMP_DOMAIN))
    return _SHOCK[key]


def _numeric_item(rng: random.Random, kind: str, speed: str, nodes: int) -> Item:
    periodic = kind in ("q-drift", "wrong-density")
    t_star = _t_star(periodic, speed)
    ntimes = 2 if periodic else 1
    times = sorted(round(rng.uniform(0.2, 0.8) * t_star, 6) for _ in range(ntimes))
    return Item(kind, {"speed": speed, "nodes": nodes, "times": times})


def _numeric_block(rng: random.Random) -> list[Item]:
    items = [_numeric_item(rng, *slot) for slot in _NUM_MIX]
    rng.shuffle(items)
    return items


def _numeric_prepare(item: Item):
    lc = _lc()
    parse = lc.expr.parse
    d = item.data
    if item.kind in ("q-drift", "wrong-density"):
        c0 = parse("u^2/2" if item.kind == "q-drift" else "u^3")
        c1 = parse("A(u)")          # autonomous flux: selects q-drift mode
    else:
        law = dict(lc.burgers_claw_catalog())["X8" if item.kind == "flux-X8" else "X7"]
        c0, c1 = law.c0, law.c1
        if item.kind == "flux-misprint":
            c0 = c0 - parse("t*u^2/2")
    return item.kind, d["speed"], d["nodes"], tuple(d["times"]), c0, c1


def _numeric_run(prepared):
    lc = _lc()
    kind, speed, nodes, times, c0, c1 = prepared
    a = lc.expr.Poly({(k,): c for k, c in _SPEEDS[speed].items()})
    if kind in ("q-drift", "wrong-density"):
        sol = lc.CharacteristicSolution(a, lc.sine_profile(), (0.0, _TWO_PI))
        tol = 1e-6
    else:
        sol = lc.CharacteristicSolution(a, lc.spline_bump_profile(*_BUMP),
                                        _BUMP_DOMAIN, boundary="compact")
        tol = 1e-5
    functions = {"a": a}
    c0 = lc.expr.instantiate(c0, functions)
    c1 = lc.expr.instantiate(c1, functions)
    return lc.verify_law(sol, c0, c1, times, nodes=nodes, tol=tol)


def _numeric_check(item: Item, prepared, report) -> bool:
    half_pi = math.pi / 2
    if item.kind == "q-drift":
        return (report.mode == "q-drift" and report.passed
                and all(abs(q - half_pi) <= 1e-6 * half_pi
                        for q in report.q_values + (report.q_reference,)))
    if item.kind == "wrong-density":
        # the integral of u^3 over a period is conserved too, but it is 0
        return (report.mode == "q-drift"
                and all(abs(q - half_pi) > 1e-3 for q in report.q_values))
    if item.kind == "flux-misprint":
        return report.mode == "flux-balance" and not report.passed
    return report.mode == "flux-balance" and report.passed


WORKLOADS = {
    "symbolic-scan": Workload(_scan_block, lambda item: item.data[:5],
                              _scan_run, _scan_check),
    "identity-certify": Workload(_identity_block, _identity_prepare,
                                 _identity_run, _identity_check),
    "numeric-transport": Workload(_numeric_block, _numeric_prepare,
                                  _numeric_run, _numeric_check),
}


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command

_CLASSIFY_ROWS = (("2*x", "u", "self-adjoint", 0), ("a(u)", "0", "self-adjoint", 0),
                  ("q(x)", "0", "not-quasi-self-adjoint", 2),
                  ("u", "u^2", "not-quasi-self-adjoint", 2))


def cli_commands(rng: random.Random) -> list[tuple[list[str], int, list[str]]]:
    """One cycle of README commands: (argv, exit code, lines that must appear).

    In the expected lines '*' matches any run of characters.  Seven commands,
    so that the median op of a run of whole cycles is one of them."""
    rows = rng.sample(_CLASSIFY_ROWS, 2)
    gen = rng.choice(["X%d" % i for i in range(1, 9)])
    eta = rng.choice(("u", "1", "u^2"))
    law = rng.choice(["l%d" % i for i in range(1, 7)])
    speed = rng.choice(sorted(_SPEEDS))
    t_star = _t_star(True, speed)
    times = sorted(round(rng.uniform(0.2, 0.8) * t_star, 6) for _ in range(3))
    bump_times = sorted(round(rng.uniform(0.2, 0.8), 6) for _ in range(2))
    return [
        (["classify", "--alpha", alpha, "--beta", beta], code, ["verdict: %s" % kind])
        for alpha, beta, kind, code in rows
    ] + [
        (["verify", "--builtin", "burgers", "--generator", gen], 0,
         ["symmetry check: pass"]),
        (["verify", "--builtin", "burgers", "--tau", "0", "--xi", "0", "--eta", eta],
         2, ["R2 = * NONZERO at*", "symmetry check: fail"]),
        (["claw", "--builtin", "burgers", "--catalog", law], 0,
         ["divergence on solutions: 0 (certified)"]),
        (["claw", "--builtin", "burgers", "--catalog", "l1", "--a", speed,
          "--numeric", "sin", "--domain", "0", repr(_TWO_PI),
          "--times"] + [repr(t) for t in times] + ["--nodes", "2048"], 0,
         ["numeric check (q-drift, tol 1e-06):"]
         + ["  t = %.12g: Q = 1.57079*" % t for t in times]   # Q = pi/2
         + ["  max deviation * -> pass"]),
        (["claw", "--builtin", "burgers", "--catalog", "l5", "--a", "u",
          "--numeric", "bump", "--boundary", "compact", "--domain", "-3", "3",
          "--times"] + [repr(t) for t in bump_times] + ["--nodes", "2048",
                                                        "--tol", "1e-5"], 0,
         ["numeric check (flux-balance, tol 1e-05):", "  max deviation * -> pass"]),
    ]


def output_matches(stdout: str, expected: list[str]) -> bool:
    """Every expected line appears; '*' matches any run of characters."""
    lines = stdout.splitlines()
    return all(any(fnmatch.fnmatchcase(line, pat) for line in lines)
               for pat in expected)
