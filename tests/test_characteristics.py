"""Exact characteristic solutions and numeric conservation checks."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from lieconserve.characteristics import (CharacteristicSolution,
                                         CharacteristicsError, InitialProfile,
                                         conserved_integral,
                                         gaussian_profile,
                                         polynomial_profile, shock_time,
                                         sine_profile, spline_bump_profile,
                                         verify_law)
from lieconserve.conservation import burgers_claw_catalog
from lieconserve.expr import (DEFAULT_TABLE, EvaluationError, Func, JetPoint,
                              Poly, Pow, T, U, U_X, W, X, ZERO, diff,
                              evaluate, instantiate, parse, polynomial_terms,
                              substitute)
from lieconserve.expr.evaluate import _walk
from lieconserve.jet_calculus import EvolutionSpec, on_solution_reduce

IDENT = Poly({(1,): Fraction(1)})        # a(u) = u
TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def sine_solution(**kw) -> CharacteristicSolution:
    return CharacteristicSolution(IDENT, sine_profile(), (0.0, TWO_PI), **kw)


def test_shock_time_for_sine_data_is_one():
    assert shock_time(IDENT, sine_profile(), (0.0, TWO_PI)) == pytest.approx(
        1.0, abs=1e-9)


def test_shock_time_for_the_bump_profile():
    u0 = spline_bump_profile(0.5, 0.0, 0.375)
    # steepest descent of the cubic kernel: slope amp/halfwidth = 4/3
    assert shock_time(IDENT, u0, (-1.2, 1.2)) == pytest.approx(0.75, abs=1e-9)


def test_shock_time_for_gaussian_data_is_exact_to_rounding():
    # a = u^2 on exp(-x^2): the slope -4x exp(-2x^2) is steepest at x = 1/2
    square = Poly({(2,): Fraction(1)})
    t_star = shock_time(square, gaussian_profile(), (-6.0, 6.0))
    exact = math.sqrt(math.e) / 2.0
    assert abs(t_star - exact) <= 1e-14 * exact


def test_monotone_increasing_data_never_shocks():
    u0 = polynomial_profile(IDENT, "x")
    assert shock_time(IDENT, u0, (0.0, 1.0)) == math.inf


def test_characteristic_solution_oracle_point():
    sol = sine_solution()
    u, u_x = sol.solve_at(math.pi, 0.5)
    assert u == pytest.approx(0.0, abs=1e-12)
    assert u_x == pytest.approx(-2.0, abs=1e-9)


def test_solution_satisfies_the_implicit_equation():
    sol = sine_solution()
    for tx in ((0.3, 0.2), (2.0, 0.5), (5.5, 0.8), (TWO_PI - 0.1, 0.94)):
        x, t = tx
        u, _ = sol.solve_at(x, t)
        assert u == pytest.approx(math.sin(x - u * t), abs=1e-10)


def test_slope_matches_finite_differences_of_the_solution():
    sol = sine_solution()
    h = 1e-6
    for x, t in ((1.0, 0.4), (4.0, 0.7)):
        _, u_x = sol.solve_at(x, t)
        up, _ = sol.solve_at(x + h, t)
        dn, _ = sol.solve_at(x - h, t)
        assert u_x == pytest.approx((up - dn) / (2 * h), rel=1e-5)


def test_periodic_solutions_wrap_around():
    sol = sine_solution()
    u1, s1 = sol.solve_at(1.0, 0.5)
    u2, s2 = sol.solve_at(1.0 + TWO_PI, 0.5)
    assert u1 == pytest.approx(u2, abs=1e-10)
    assert s1 == pytest.approx(s2, abs=1e-8)


def test_horizon_is_a_pre_shock_safety_margin():
    sol = sine_solution()
    assert sol.horizon() == pytest.approx(0.95, abs=1e-9)
    with pytest.raises(CharacteristicsError, match="horizon"):
        sol.solve_at(1.0, 0.96)
    with pytest.raises(CharacteristicsError, match="negative"):
        sol.solve_at(1.0, -0.1)


def test_conserved_energy_integral_matches_half_pi():
    sol = sine_solution()
    density = parse("u^2/2")
    for t in (0.0, 0.25, 0.5, 0.75, 0.9):
        q = conserved_integral(sol, density, t, nodes=2048)
        assert q == pytest.approx(math.pi / 2, rel=1e-9)


def test_quadrature_convergence_on_a_non_periodic_window():
    # the integrand loses periodicity on [0, pi/3], so composite Simpson
    # shows its clean fourth-order error decay there
    sol = CharacteristicSolution(IDENT, sine_profile(), (0.0, math.pi / 3),
                                 boundary="compact")
    exact = math.pi / 12 - math.sqrt(3) / 16
    errors = []
    for nodes in (64, 128, 256):
        q = conserved_integral(sol, parse("u^2/2"), 0.0, nodes=nodes)
        errors.append(abs(q - exact))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


def test_simpson_is_exact_on_a_cubic_density():
    sol = sine_solution()
    q = conserved_integral(sol, parse("x^3 - 2*x + 1"), 0.0, nodes=64)
    exact = TWO_PI ** 4 / 4.0 - TWO_PI ** 2 + TWO_PI
    assert abs(q - exact) <= 1e-13 * exact


def test_conserved_integral_validates_node_count():
    sol = sine_solution()
    with pytest.raises(ValueError, match="even"):
        conserved_integral(sol, parse("u"), 0.1, nodes=65)
    with pytest.raises(ValueError, match="64"):
        conserved_integral(sol, parse("u"), 0.1, nodes=32)


def test_verify_law_uses_q_drift_for_periodic_autonomous_fluxes():
    sol = sine_solution()
    report = verify_law(sol, parse("u^2/2"), parse("u^3/3"),
                        (0.25, 0.5, 0.75, 0.9), nodes=2048)
    assert report.mode == "q-drift"
    assert report.passed
    assert report.deviation <= 1e-12


def test_verify_law_uses_flux_balance_on_compact_support():
    u0 = spline_bump_profile(0.5, 0.0, 0.375)
    sol = CharacteristicSolution(IDENT, u0, (-1.2, 1.2), boundary="compact")
    # seventh catalog law at a = id: density xu - tu^2/2, flux xu^2/2 - tu^3/3
    report = verify_law(sol, parse("x*u - t*u^2/2"), parse("x*u^2/2 - t*u^3/3"),
                        (0.2, 0.4), nodes=2048, tol=1e-5)
    assert report.mode == "flux-balance"
    assert report.passed
    assert report.deviation < 1e-6


def test_verify_law_rejects_times_beyond_the_horizon():
    sol = sine_solution()
    with pytest.raises(CharacteristicsError, match="horizon"):
        verify_law(sol, parse("u^2/2"), parse("u^3/3"), (0.25, 0.96))


def test_flux_balance_rejects_times_whose_difference_step_passes_the_horizon():
    u0 = spline_bump_profile(0.5, 0.0, 0.375)
    sol = CharacteristicSolution(IDENT, u0, (-1.2, 1.2), boundary="compact")
    t = sol.horizon() - 5e-5
    with pytest.raises(CharacteristicsError) as exc:
        verify_law(sol, parse("x*u - t*u^2/2"), parse("x*u^2/2 - t*u^3/3"),
                   (0.2, t), nodes=256, tol=1e-5)
    message = str(exc.value)
    assert "%g" % t in message and "horizon" in message
    assert "%g" % (t + 1e-4) not in message     # no time the caller never passed


def test_smooth_transport_conserves_every_u_integral():
    # before characteristics cross, any integral of G(u) over a full period
    # is constant in time, including for densities that are not catalog laws;
    # a wrong density therefore shows near-zero drift yet the wrong value
    sol = sine_solution()
    qs = [conserved_integral(sol, parse("u^3"), t, nodes=2048)
          for t in (0.25, 0.5, 0.75, 0.9)]
    drift = max(abs(q - qs[0]) for q in qs)
    assert drift <= 1e-10
    # the values sit far from the conserved-energy reference pi/2
    assert min(abs(q - math.pi / 2) for q in qs) > 1e-3


@pytest.mark.parametrize("speed", ["u", "u + u^3/3"])
def test_array_evaluation_matches_pointwise_evaluation_bit_for_bit(speed):
    spec = EvolutionSpec.quasilinear(Func("a", (U,)), ZERO)
    functions = {"a": substitute(parse(speed), {U: W})}
    rng = np.random.default_rng(11)
    t = 0.37
    xs = rng.uniform(-3.0, 3.0, 200)
    us = rng.uniform(0.1, 2.0, 200) * rng.choice((-1.0, 1.0), 200)
    uxs = rng.uniform(-2.0, 2.0, 200)
    laws = burgers_claw_catalog()
    assert len(laws) == 6
    for label, cv in laws:
        for part in (cv.c0, cv.c1):
            e = instantiate(on_solution_reduce(part, spec), functions)
            batch = evaluate(e, JetPoint({T: t, X: xs, U: us, U_X: uxs}))
            single = [evaluate(e, JetPoint({T: t, X: x, U: u, U_X: ux}))
                      for x, u, ux in zip(xs, us, uxs)]
            assert np.array_equal(batch, np.array(single)), (label, e)
            # exact rational evaluation at the same float points is the
            # reference
            for x, u, ux, got in zip(xs, us, uxs, batch):
                want, scale = exact_value(e, {T: t, X: x, U: u, U_X: ux})
                assert abs(got - want) <= 16 * EPS * (1.0 + scale), (label, e)


def test_symbolic_and_numeric_instantiation_agree_on_the_catalog():
    # instantiate-then-evaluate expands the polynomial symbolically; a
    # JetPoint's functions evaluate a(u) numerically, then combine
    spec = EvolutionSpec.quasilinear(Func("a", (U,)), ZERO)
    functions = {"a": Poly({(1,): Fraction(1), (3,): Fraction(1, 3)})}
    rng = np.random.default_rng(7)
    values = {T: 0.37, X: rng.uniform(-3.0, 3.0, 200),
              U: rng.uniform(0.1, 2.0, 200) * rng.choice((-1.0, 1.0), 200),
              U_X: rng.uniform(-2.0, 2.0, 200)}
    for label, cv in burgers_claw_catalog():
        for part in (cv.c0, cv.c1):
            e = on_solution_reduce(part, spec)
            numeric, scale, _ = _walk(e, values, DEFAULT_TABLE, functions)
            symbolic = evaluate(instantiate(e, functions), JetPoint(values))
            assert np.all(np.abs(symbolic - numeric) <= 8 * EPS * (1.0 + scale)), label


@pytest.mark.parametrize("speed", ["u", "u + u^3/3", "2 + u^2",
                                   "u^5/7 - 3*u^2 + 1/3"])
def test_wave_speed_evaluation_agrees_with_exact_rationals(speed):
    a = substitute(parse(speed), {U: W})
    sol = CharacteristicSolution(a, sine_profile(), (0.0, TWO_PI))
    points = [Fraction(k, 64) for k in range(-160, 161)]   # exact as floats
    got = sol._a(np.array(points, dtype=float))
    got_slope = sol._da(np.array(points, dtype=float))
    for p, evaluated in ((a, got), (diff(a, W), got_slope)):
        terms = polynomial_terms(p, W)
        for x, value in zip(points, evaluated):
            want = sum(Fraction(c) * x ** k for k, c in terms)
            scale = sum(abs(Fraction(c) * x ** k) for k, c in terms)
            assert abs(value - float(want)) <= 4 * EPS * float(scale), (speed, x)


def exact_value(e, values) -> tuple[float, float]:
    """(value, largest |atom|, |term| or |sum| met), computed in exact
    rationals at the given float point; integer powers only."""
    scale = Fraction(0)

    def atom(a) -> Fraction:
        if isinstance(a, Pow):
            assert a.exponent.denominator == 1, a
            return go(a.base) ** int(a.exponent)
        return Fraction(values[a])

    def go(n) -> Fraction:
        nonlocal scale
        total = Fraction(0)
        for mono, c in n.terms.items():
            term = Fraction(c)
            for a, k in mono:
                x = atom(a)
                scale = max(scale, abs(x))
                term *= x ** k
            scale = max(scale, abs(term))
            total += term
        scale = max(scale, abs(total))
        return total

    value = go(e)
    return float(value), float(scale)


def test_array_evaluation_keeps_pole_and_domain_checks():
    sol = sine_solution()        # u = 0 exactly at x = 0, negative on (pi, 2pi)
    with pytest.raises(EvaluationError, match="division by zero in u"):
        conserved_integral(sol, parse("1/u"), 0.5, nodes=256)
    with pytest.raises(EvaluationError, match="negative base"):
        conserved_integral(sol, parse("u^(1/2)"), 0.5, nodes=256)


@pytest.mark.parametrize("speed", ["u", "u^2", "u + u^3/3"])
@pytest.mark.parametrize("profile, domain, boundary", [
    (sine_profile(), (0.0, TWO_PI), "periodic"),
    (gaussian_profile(), (-6.0, 6.0), "compact"),
    (spline_bump_profile(0.5, 0.0, 0.375), (-1.2, 1.2), "compact"),
])
def test_characteristic_feet_solve_the_implicit_equation_to_rounding(
        speed, profile, domain, boundary):
    a = substitute(parse(speed), {U: W})
    sol = CharacteristicSolution(a, profile, domain, boundary)
    t = sol.horizon()                    # 0.95 t*
    xs = np.linspace(domain[0], domain[1], 2049)
    xi, u = sol._feet(xs, t)
    assert np.array_equal(u, profile(xi))
    residual = np.abs(xi + evaluate(a, JetPoint({W: profile(xi)})) * t - xs)
    assert np.all(residual <= 8.0 * EPS * (1.0 + np.abs(xs)))


def test_callable_densities_receive_whole_arrays():
    sol = sine_solution()
    seen = []

    def energy(t, x, u, ux):
        seen.append((x, np.shape(u)))
        return u ** 2 / 2

    q = conserved_integral(sol, energy, 0.5, nodes=2048)
    assert q == pytest.approx(math.pi / 2, rel=1e-9)
    assert [shape for _, shape in seen] == [(2049,)]
    # x is the image of a uniform foot grid: it spans the periodic domain,
    # and its nodes crowd where the characteristics converge
    x = seen[0][0]
    assert x.shape == (2049,)
    assert x[0] == 0.0 and x[-1] == pytest.approx(TWO_PI, abs=1e-14)
    spacing = np.diff(x)
    assert np.all(spacing > 0.0)
    assert spacing.max() > 2.5 * spacing.min()      # J from 0.5 to 1.5
    # a constant callable is spread over the nodes
    one = conserved_integral(sol, lambda t, x, u, ux: 1.0, 0.5, nodes=64)
    assert one == pytest.approx(TWO_PI, rel=1e-14)


def test_conserved_integral_refuses_node_counts_past_the_limit(monkeypatch):
    sol = sine_solution()

    def no_solve(*args):
        raise AssertionError("solved before the node count was checked")

    monkeypatch.setattr(sol, "solve_many", no_solve)
    monkeypatch.setattr(sol, "_feet", no_solve)
    with pytest.raises(ValueError, match="at most 1048576"):
        conserved_integral(sol, parse("u"), 0.1, nodes=2 ** 20 + 2)


def test_conserved_integral_checks_the_time_itself():
    sol = sine_solution()
    with pytest.raises(CharacteristicsError, match="horizon"):
        conserved_integral(sol, parse("u"), 0.96)
    with pytest.raises(CharacteristicsError, match="negative"):
        conserved_integral(sol, parse("u"), -0.1)


@pytest.mark.parametrize("speed", ["u", "u + u^3/3"])
@pytest.mark.parametrize("nodes", [1024, 2048, 4096])
def test_sine_energy_is_half_pi_to_rounding_up_to_the_horizon(speed, nodes):
    # on the foot grid the integrand is a smooth periodic function of xi,
    # so Simpson is exact to rounding however steep the profile in x
    a = substitute(parse(speed), {U: W})
    sol = CharacteristicSolution(a, sine_profile(), (0.0, TWO_PI))
    times = [f * sol.shock_time for f in (0.2, 0.5, 0.8)] + [sol.horizon()]
    report = verify_law(sol, parse("u^2/2"), instantiate(parse("A(u)"), {"a": a}),
                        times, nodes=nodes)
    assert report.mode == "q-drift" and report.passed
    for q in report.q_values + (report.q_reference,):
        assert abs(q - math.pi / 2) <= 1e-13


def test_flux_balance_holds_next_to_the_horizon_on_gaussian_data():
    # l1 at a = u on exp(-x^2), t = 0.949 t*: the x grid under-resolved the
    # steepened profile and failed this true law at 512 and 2048 nodes
    sol = CharacteristicSolution(IDENT, gaussian_profile(), (-6.0, 6.0),
                                 boundary="compact")
    report = verify_law(sol, parse("u^2/2"), parse("u^3/3"),
                        (1.10636506927,), nodes=512, tol=1e-5)
    assert report.mode == "flux-balance"
    assert report.passed
    assert report.deviation <= 1e-10
    # u^2/2 is conserved: Q equals its t = 0 value sqrt(pi/2)/2
    assert report.q_values[0] == pytest.approx(math.sqrt(math.pi / 2) / 2,
                                               abs=1e-14)


def test_flux_balance_solves_both_boundaries_in_one_call(monkeypatch):
    u0 = spline_bump_profile(0.5, 0.0, 0.375)
    sol = CharacteristicSolution(IDENT, u0, (-1.2, 1.2), boundary="compact")
    solved = []
    solve_many = sol.solve_many

    def record(xs, t):
        solved.append(list(xs))
        return solve_many(xs, t)

    def no_single(*args):
        raise AssertionError("a boundary was solved on its own")

    monkeypatch.setattr(sol, "solve_many", record)
    monkeypatch.setattr(sol, "solve_at", no_single)
    report = verify_law(sol, parse("x*u - t*u^2/2"), parse("x*u^2/2 - t*u^3/3"),
                        (0.2, 0.4), nodes=256, tol=1e-5)
    assert report.passed
    assert solved == [[-1.2, 1.2], [-1.2, 1.2]]


def test_the_shock_grid_is_evaluated_once_per_solution():
    sizes = []
    sine = sine_profile()

    def f(xi):
        sizes.append(np.size(xi))
        return sine(xi)

    u0 = InitialProfile(f, sine.derivative, "sine")
    sol = CharacteristicSolution(IDENT, u0, (0.0, TWO_PI))
    assert sizes.count(4096) == 1
    assert sol.shock_time == shock_time(IDENT, sine_profile(), (0.0, TWO_PI))


@pytest.mark.parametrize("times, tol, message", [
    ((0.25, math.nan), 1e-6, "times must be finite"),
    ((math.inf,), 1e-6, "times must be finite"),
    ((0.25,), -1.0, "tol must be positive"),
    ((0.25,), 0.0, "tol must be positive"),
    ((0.25,), math.nan, "tol must be positive"),
])
def test_verify_law_rejects_bad_requests_up_front(times, tol, message):
    sol = sine_solution()
    with pytest.raises(ValueError, match=message):
        verify_law(sol, parse("u^2/2"), parse("u^3/3"), times, tol=tol)
