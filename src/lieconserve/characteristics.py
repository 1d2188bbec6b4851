"""Exact pre-shock solutions of u_t + a(u)u_x = 0 and law verification.

Along a characteristic the solution is constant: u(x, t) = u0(xi) where
xi + a(u0(xi))*t = x (Whitham, Linear and Nonlinear Waves, 1974, ch. 2).
The map is invertible up to the shock time t* = -1/min (a o u0)';
everything here stays strictly before t*.  Conserved integrals
Q(t) = integral of C0 dx are computed by composite Simpson quadrature in
the foot variable xi, where dx = (1 + t*a'(u0)*u0') dxi and the integrand
is as smooth as the initial profile however steep the solution is in x;
only the ends of the domain are inverted.  Laws are verified either
through Q-constancy (periodic, x,t-free flux) or through the flux balance
dQ/dt + C1(x_hi) - C1(x_lo) = 0.

numpy is imported by the functions that compute, not by this module, so
symbolic work that imports the package never loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .expr import (Expr, Param, T, U, U_X, W, X, as_expr, diff, evaluate,
                   free_symbols, polynomial_function, JetPoint, FunctionTable,
                   DEFAULT_TABLE)

PRE_SHOCK_FRACTION = 0.95
_SHOCK_GRID = 4096
_ZOOM_PASSES = 8       # each pass shrinks the bracket 32-fold
_ZOOM_POINTS = 65
_NEWTON_CAP = 100      # a bisection fallback halves the bracket each time
_EPS = sys.float_info.epsilon
MAX_NODES = 2 ** 20


class CharacteristicsError(RuntimeError):
    pass


@dataclass(frozen=True)
class InitialProfile:
    """Initial datum with an exact derivative, defined on all of R."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def __call__(self, xi):
        return self.f(xi)

    def derivative(self, xi):
        return self.df(xi)


def sine_profile(amplitude: float = 1.0, shift: float = 0.0) -> InitialProfile:
    import numpy as np
    amp = float(amplitude)
    off = float(shift)
    return InitialProfile(lambda xi: off + amp * np.sin(xi),
                          lambda xi: amp * np.cos(xi), "sine")


def gaussian_profile(amplitude: float = 1.0, center: float = 0.0,
                     width: float = 1.0) -> InitialProfile:
    import numpy as np
    amp, c, w = float(amplitude), float(center), float(width)

    def f(xi):
        return amp * np.exp(-((xi - c) / w) ** 2)

    def df(xi):
        return f(xi) * (-2.0 * (xi - c) / w ** 2)

    return InitialProfile(f, df, "gaussian")


def spline_bump_profile(amplitude: float = 1.0, center: float = 0.0,
                        halfwidth: float = 1.0) -> InitialProfile:
    """Cubic B-spline kernel bump, compactly supported on
    |x - center| <= 2*halfwidth, C^2 everywhere, max slope amplitude/halfwidth."""
    import numpy as np
    amp, c, h = float(amplitude), float(center), float(halfwidth)

    def f(xi):
        q = np.abs(np.asarray(xi, dtype=float) - c) / h
        inner = (4.0 - 6.0 * q ** 2 + 3.0 * q ** 3) / 4.0
        outer = (2.0 - q) ** 3 / 4.0
        return amp * np.where(q <= 1.0, inner, np.where(q <= 2.0, outer, 0.0))

    def df(xi):
        xi = np.asarray(xi, dtype=float)
        s = np.sign(xi - c)
        q = np.abs(xi - c) / h
        inner = (-12.0 * q + 9.0 * q ** 2) / 4.0
        outer = -3.0 * (2.0 - q) ** 2 / 4.0
        return (amp / h) * s * np.where(q <= 1.0, inner,
                                        np.where(q <= 2.0, outer, 0.0))

    return InitialProfile(f, df, "spline-bump")


def polynomial_profile(p: Expr, label: str = "polynomial") -> InitialProfile:
    """The profile u0(xi) = p(xi) for p a polynomial in w."""
    return InitialProfile(polynomial_function(p),
                          polynomial_function(diff(p, W)), label)


BUILTIN_PROFILES = {
    "sin": sine_profile,
    "gaussian": gaussian_profile,
    "bump": spline_bump_profile,
}


def _shock_scan(da, u0: InitialProfile,
                domain: tuple[float, float]) -> tuple[float, np.ndarray]:
    """(t*, u0 on the dense grid) for the wave-speed derivative da as a
    float function; the grid values serve the caller too."""
    import numpy as np
    lo, hi = float(domain[0]), float(domain[1])

    def slope(xi, u):
        return np.asarray(da(u) * u0.derivative(xi), dtype=float)

    xs = np.linspace(lo, hi, _SHOCK_GRID)
    grid_u = u0(xs)
    vals = slope(xs, grid_u)
    if not np.all(np.isfinite(vals)):
        raise CharacteristicsError("characteristic slope is not finite on the domain")
    i = int(np.argmin(vals))
    m = float(vals[i])
    for _ in range(_ZOOM_PASSES):
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)],
                         _ZOOM_POINTS)
        vals = slope(xs, u0(xs))
        i = int(np.argmin(vals))
        m = min(m, float(vals[i]))
    return (math.inf if m >= 0.0 else -1.0 / m), grid_u


def shock_time(a: Expr, u0: InitialProfile,
               domain: tuple[float, float]) -> float:
    """First crossing time t* = -1/min (a o u0)' for a a polynomial in w;
    +inf when the slope never decreases.  Dense grid minimum, sharpened by
    zooming: each pass samples a small grid over the bracket around the
    current minimum."""
    return _shock_scan(polynomial_function(diff(a, W)), u0, domain)[0]


@dataclass
class CharacteristicSolution:
    """Exact solution of u_t + a(u)u_x = 0 for a concrete a, a polynomial
    in w, and initial profile; valid for t below PRE_SHOCK_FRACTION times
    the shock time."""

    a: Expr
    u0: InitialProfile
    domain: tuple[float, float]
    boundary: str = "periodic"
    inversion_tol: float = 1e-12
    shock_time: float = field(init=False)

    def __post_init__(self):
        import numpy as np
        if self.boundary not in ("periodic", "compact"):
            raise ValueError("boundary must be 'periodic' or 'compact'")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("domain bounds must be finite with x_lo < x_hi")
        self._a = polynomial_function(self.a)
        self._da = polynomial_function(diff(self.a, W))
        self.shock_time, grid_u = _shock_scan(self._da, self.u0, self.domain)
        speeds = np.asarray(self._a(grid_u), dtype=float)
        pad = 0.05 * (speeds.max() - speeds.min()) + 1e-6
        self._c_lo = float(speeds.min()) - pad
        self._c_hi = float(speeds.max()) + pad

    def horizon(self) -> float:
        return PRE_SHOCK_FRACTION * self.shock_time

    def _check_time(self, t: float) -> None:
        if t < 0.0:
            raise CharacteristicsError("negative time %g" % t)
        if t > self.horizon():
            raise CharacteristicsError(
                "t = %g is past the pre-shock horizon %g" % (t, self.horizon()))

    def _feet(self, xs: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Characteristic feet xi and u0(xi): solve xi + a(u0(xi))*t = x
        componentwise by Newton's method safeguarded by a guaranteed
        bracket.  A Newton step that leaves its row's bracket is replaced
        by the bracket midpoint."""
        import numpy as np
        if t == 0.0:
            return xs.copy(), self.u0(xs)

        def g(xi):
            return xi + self._a(self.u0(xi)) * t - xs

        lo = xs - self._c_hi * t
        hi = xs - self._c_lo * t
        glo, ghi = g(lo), g(hi)
        for _ in range(8):
            bad = glo > 0.0
            if not bad.any():
                break
            lo = np.where(bad, lo - (hi - lo), lo)
            glo = g(lo)
        for _ in range(8):
            bad = ghi < 0.0
            if not bad.any():
                break
            hi = np.where(bad, hi + (hi - lo), hi)
            ghi = g(hi)
        if (glo > 0.0).any() or (ghi < 0.0).any():
            raise CharacteristicsError(
                "characteristic bracket failed at t = %g (pre-shock "
                "inversion should always bracket)" % t)
        xi = np.clip(xs - self._a(self.u0(xs)) * t, lo, hi)
        tiny = 4.0 * _EPS * (1.0 + np.max(np.abs(xs)))
        for _ in range(_NEWTON_CAP):
            u = self.u0(xi)
            residual = xi + self._a(u) * t - xs
            hi = np.where(residual > 0.0, xi, hi)
            lo = np.where(residual < 0.0, xi, lo)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = residual / (1.0 + t * self._da(u) * self.u0.derivative(xi))
                new = xi - step
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            moved = np.max(np.abs(new - xi))
            xi = new
            if moved <= tiny:
                break
        u = self.u0(xi)
        if (np.max(np.abs(xi + self._a(u) * t - xs))
                > self.inversion_tol * (1.0 + np.max(np.abs(xs)))):
            raise CharacteristicsError(
                "characteristic inversion stalled above tolerance %g"
                % self.inversion_tol)
        return xi, u

    def solve_many(self, xs: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(u, u_x) arrays at fixed time along the given x samples."""
        import numpy as np
        self._check_time(t)
        xs = np.asarray(xs, dtype=float)
        xi, u = self._feet(xs, t)
        du = self.u0.derivative(xi)
        denom = 1.0 + t * self._da(u) * du
        return u, du / denom

    def solve_at(self, x: float, t: float) -> tuple[float, float]:
        u, ux = self.solve_many([float(x)], t)
        return float(u[0]), float(ux[0])


def _array_density(e: Expr, table: FunctionTable):
    """The expression over t, x, u, u_x (every opaque function already
    instantiated) as a callable of those four, evaluated on whole arrays."""
    e = as_expr(e)
    allowed = {T, X, U, U_X}
    for sym in free_symbols(e):
        if isinstance(sym, Param) or sym in allowed:
            continue
        raise CharacteristicsError(
            "numeric densities may depend on t, x, u, u_x only; found %s" % sym)

    def call(t, x, u, ux):
        return evaluate(e, JetPoint({T: t, X: x, U: u, U_X: ux}), table)

    return call


def conserved_integral(sol: CharacteristicSolution, density, t: float,
                       nodes: int = 1024,
                       table: FunctionTable = DEFAULT_TABLE) -> float:
    """Composite Simpson integral of the density over the domain at fixed
    t, taken in the characteristic foot variable xi.

    With x = xi + a(u0(xi))*t and J = 1 + t*a'(u0)*u0' (at least
    1 - PRE_SHOCK_FRACTION before the horizon),
    Q(t) = integral of C0(t, x, u0, u0'/J) * J dxi over [xi(lo), xi(hi)],
    or [xi(lo), xi(lo) + L] on a periodic domain of length L.  Only those
    endpoints are inverted, and the integrand is as smooth in xi as the
    initial profile up to the shock.  The density is an Expr over
    (t, x, u, u_x) or a callable of the same four, called once with t a
    float and x, u, u_x arrays over all nodes (x is not uniform for
    t > 0); it returns an array of their shape (or a constant).  nodes
    counts subintervals: even, at least 64 and at most MAX_NODES."""
    import numpy as np
    if nodes < 64 or nodes % 2:
        raise ValueError("nodes must be even and at least 64")
    if nodes > MAX_NODES:
        raise ValueError("nodes must be at most %d, got %d" % (MAX_NODES, nodes))
    fn = _array_density(density, table) if isinstance(density, Expr) else density
    sol._check_time(t)
    lo, hi = sol.domain
    periodic = sol.boundary == "periodic"
    feet = sol._feet(np.asarray([lo] if periodic else [lo, hi], dtype=float), t)[0]
    start = float(feet[0])
    end = start + (hi - lo) if periodic else float(feet[1])
    xi = np.linspace(start, end, nodes + 1)
    u, du = sol.u0(xi), sol.u0.derivative(xi)
    jac = 1.0 + t * sol._da(u) * du
    x = xi + sol._a(u) * t
    ys = np.broadcast_to(np.asarray(fn(t, x, u, du / jac), dtype=float),
                         xi.shape) * jac
    h = (end - start) / nodes
    return float(h / 3.0 * np.sum(ys[:-1:2] + 4.0 * ys[1::2] + ys[2::2]))


@dataclass(frozen=True)
class ConservationReport:
    mode: str                      # "q-drift" or "flux-balance"
    times: tuple[float, ...]
    q_values: tuple[float, ...]
    q_reference: float
    deviation: float
    tolerance: float
    passed: bool

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return "%s: %s, max deviation %.3e (tol %.1e)" % (
            self.mode, status, self.deviation, self.tolerance)


_FLUX_STEP = 1e-4


def verify_law(sol: CharacteristicSolution, c0: Expr, c1: Expr,
               times: Sequence[float], nodes: int = 1024,
               tol: float = 1e-6,
               table: FunctionTable = DEFAULT_TABLE) -> ConservationReport:
    """Numerically certify D_t C0 + D_x C1 = 0 along the exact solution.

    Both components must already be instantiated (no opaque symbols) and
    free of u_t.  Periodic domain with a flux free of explicit t, x uses
    Q-constancy; anything else uses the flux balance with a centered
    dQ/dt.  Times past the pre-shock horizon are rejected.
    """
    import numpy as np
    times = tuple(float(t) for t in times)
    for t in times:
        if not math.isfinite(t):
            raise ValueError("times must be finite, got %r" % t)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite, got %r" % tol)
    horizon = sol.horizon()
    for t in times:
        if t > horizon:
            raise CharacteristicsError(
                "time %g is past the pre-shock horizon %g" % (t, horizon))
    flux_autonomous = not any(
        sym in (T, X) for sym in free_symbols(as_expr(c1)))
    c0_fn = _array_density(c0, table)
    c1_fn = _array_density(c1, table)

    def q_at(t: float) -> float:
        return conserved_integral(sol, c0_fn, t, nodes, table)

    if sol.boundary == "periodic" and flux_autonomous:
        q0 = q_at(0.0)
        qs = tuple(q_at(t) for t in times)
        deviation = max(abs(q - q0) for q in qs) if qs else 0.0
        passed = deviation <= tol * (1.0 + abs(q0))
        return ConservationReport("q-drift", times, qs, q0, deviation,
                                  tol, passed)

    for t in times:
        if t - _FLUX_STEP < 0.0:
            raise CharacteristicsError(
                "flux balance needs interior times; %g is too close to 0" % t)
        if t + _FLUX_STEP > horizon:
            raise CharacteristicsError(
                "flux balance needs interior times; %g is within %g of the "
                "pre-shock horizon %g" % (t, _FLUX_STEP, horizon))
    ends = np.asarray(sol.domain, dtype=float)
    worst = 0.0
    qs = []
    for t in times:
        qs.append(q_at(t))
        dq = (q_at(t + _FLUX_STEP) - q_at(t - _FLUX_STEP)) / (2.0 * _FLUX_STEP)
        u, ux = sol.solve_many(ends, t)
        flux = np.broadcast_to(np.asarray(c1_fn(t, ends, u, ux), dtype=float), (2,))
        balance = dq + flux[1] - flux[0]
        worst = max(worst, abs(balance))
    passed = worst <= tol
    return ConservationReport("flux-balance", times, tuple(qs),
                              qs[0] if qs else 0.0, worst, tol, passed)
