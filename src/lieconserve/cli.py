"""Command-line front end.

Three subcommands: ``classify`` (adjointness verdict), ``verify``
(determining-equation residuals for a generator), ``claw`` (build a
conserved vector, certify it symbolically, optionally run the numeric
scenario).  Exit codes: 0 success/pass, 1 parse or configuration error,
2 fail or refusal, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .adjointness import (InconclusiveClassification, SELF_ADJOINT, classify)
from .characteristics import (BUILTIN_PROFILES, CharacteristicSolution,
                              CharacteristicsError, InitialProfile,
                              polynomial_profile, verify_law)
from .conservation import (CATALOG_ALIASES, NotSelfAdjointError,
                           build_vector_self, burgers_claw_catalog,
                           divergence_residual)
from .expr import (Expr, ExprError, ExprSyntaxError, Func,
                   InconclusiveZeroTest, U, W, X, ZERO, ZeroTestConfig,
                   instantiate, is_zero, parse, polynomial_terms, substitute,
                   to_text)
from .jet_calculus import EvolutionSpec, on_solution_reduce
from .symmetry import (Generator, burgers_catalog,
                       determining_residual_generic,
                       determining_residual_pair, scale_generator)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


def fmt(x: float) -> float:
    """Round a float to 12 significant digits.  Text and JSON reports both
    go through here, so they carry identical numeric values."""
    return float("%.12g" % float(x))


def fmt_s(x: float) -> str:
    return "%.12g" % float(x)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_expr(text: str, what: str) -> Expr:
    try:
        return parse(text)
    except ExprSyntaxError as ex:
        raise CliError("cannot parse %s: %s" % (what, ex)) from None


def build_parser() -> _Parser:
    p = _Parser(prog="lieconserve",
                description="Adjointness classification, symmetry "
                            "verification and conservation laws for "
                            "u_t + f(t,x,u,u_x) = 0")
    p.add_argument("--config", help="key = value file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    def add_equation(sp):
        sp.add_argument("--alpha", help="u_x coefficient, expression over t,x,u")
        sp.add_argument("--beta", help="source term, expression over t,x,u")
        sp.add_argument("--f", help="full flux, expression over t,x,u,u_x")
        sp.add_argument("--builtin", choices=["burgers"],
                        help="predefined equation u_t + a(u)u_x = 0")

    def add_generator(sp):
        sp.add_argument("--generator", help="catalog label X1..X8 or Xf")
        sp.add_argument("--tau", default="0")
        sp.add_argument("--xi", default="0")
        sp.add_argument("--eta", default="0")
        sp.add_argument("--lambda", dest="lam",
                        help="scale the generator by lambda(u)")

    def add_zero_test(sp):
        sp.add_argument("--zt-samples", type=int, default=None,
                        help="sample count per instantiation combo")
        sp.add_argument("--zt-tol", type=float, default=None,
                        help="relative tolerance of the numeric zero test")
        sp.add_argument("--seed", type=int, default=None,
                        help="zero-test RNG seed (overrides LIECONSERVE_SEED)")

    def add_output(sp):
        sp.add_argument("--out", help="write the JSON report here")
        sp.add_argument("--format", choices=["text", "json"], default="text")

    c = sub.add_parser("classify", help="self/quasi-self-adjointness verdict")
    add_equation(c)
    add_zero_test(c)
    add_output(c)
    c.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", help="determining-equation residuals")
    add_equation(v)
    add_generator(v)
    add_zero_test(v)
    add_output(v)
    v.set_defaults(func=cmd_verify)

    w = sub.add_parser("claw", help="build and certify a conservation law")
    add_equation(w)
    add_generator(w)
    w.add_argument("--catalog", help="simplified law label l1..l6 or X3..X8")
    w.add_argument("--phi", help="substitution phi(u) for quasi-self-adjoint "
                                 "equations")
    w.add_argument("--a", help="numeric instantiation of a(u), polynomial in u")
    w.add_argument("--numeric", help="initial profile: sin, gaussian, bump, "
                                     "or a polynomial in x")
    w.add_argument("--domain", nargs=2, type=float, metavar=("LO", "HI"))
    w.add_argument("--boundary", choices=["periodic", "compact"],
                   default="periodic")
    w.add_argument("--nodes", type=int, default=2048)
    w.add_argument("--times", nargs="+", type=float)
    w.add_argument("--tol", type=float, default=1e-6)
    add_zero_test(w)
    add_output(w)
    w.set_defaults(func=cmd_claw)

    p.sub_commands = (c, v, w)
    return p


_LIST_KEYS = {"domain", "times"}
_TYPED_KEYS = {"nodes": int, "zt_samples": int, "seed": int,
               "tol": float, "zt_tol": float}


def load_config_file(path: str, known: set[str]) -> dict:
    """Flat ``key = value`` file; keys match the long flag names."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError("%s:%d: expected key = value"
                                   % (path, lineno))
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key == "lambda":
                    key = "lam"
                if key not in known:
                    raise CliError("%s:%d: unknown option %r"
                                   % (path, lineno, key))
                value = value.strip()
                if key in _LIST_KEYS:
                    out[key] = [float(v) for v in value.split()]
                elif key in _TYPED_KEYS:
                    out[key] = _TYPED_KEYS[key](value)
                else:
                    out[key] = value
    except OSError as ex:
        raise CliError("cannot read config file: %s" % ex) from None
    except ValueError as ex:
        raise CliError("%s: bad value (%s)" % (path, ex)) from None
    return out


def equation_from(args) -> EvolutionSpec:
    modes = []
    if args.builtin:
        modes.append("--builtin")
    if args.f is not None:
        modes.append("--f")
    if args.alpha is not None or args.beta is not None:
        modes.append("--alpha/--beta")
    if len(modes) > 1:
        raise CliError("give exactly one of --builtin, --f, or "
                       "--alpha/--beta (got %s)" % " and ".join(modes))
    if args.builtin == "burgers":
        return EvolutionSpec.quasilinear(Func("a", (U,)), ZERO)
    if args.f is not None:
        return EvolutionSpec.generic(_parse_expr(args.f, "--f"))
    if args.alpha is not None or args.beta is not None:
        alpha = _parse_expr(args.alpha, "--alpha") if args.alpha else ZERO
        beta = _parse_expr(args.beta, "--beta") if args.beta else ZERO
        return EvolutionSpec.quasilinear(alpha, beta)
    raise CliError("no equation given; use --builtin, --f, or --alpha/--beta")


def generator_from(args) -> Generator:
    if args.generator:
        for g in burgers_catalog():
            if g.name == args.generator:
                base = g
                break
        else:
            raise CliError("unknown generator label %r (expected X1..X8 "
                           "or Xf)" % args.generator)
    else:
        base = Generator(_parse_expr(args.tau, "--tau"),
                         _parse_expr(args.xi, "--xi"),
                         _parse_expr(args.eta, "--eta"), "custom")
    if args.lam:
        base = scale_generator(_parse_expr(args.lam, "--lambda"), base)
    return base


def zero_config_from(args) -> ZeroTestConfig:
    cfg = ZeroTestConfig(seed=args.seed)
    cfg.resolved_seed()     # reject a malformed LIECONSERVE_SEED up front
    if args.zt_samples is not None:
        cfg.samples = args.zt_samples
    if args.zt_tol is not None:
        cfg.tolerance = args.zt_tol
    return cfg


def _blank_report() -> dict:
    return {"verdict": None, "phi": None, "residuals": [],
            "claw": None, "numeric": None}


def emit(report: dict, lines: list[str], args) -> None:
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def cmd_classify(args) -> int:
    spec = equation_from(args)
    cfg = zero_config_from(args)
    report = _blank_report()
    lines = []
    try:
        verdict = classify(spec, cfg)
    except InconclusiveClassification as ex:
        report["verdict"] = "inconclusive"
        report["detail"] = str(ex)
        lines.append("verdict: inconclusive")
        lines.append(str(ex))
        emit(report, lines, args)
        return EXIT_INCONCLUSIVE
    report["verdict"] = verdict.kind
    report["phi"] = to_text(verdict.phi) if verdict.phi is not None else None
    report["detail"] = verdict.diagnostics
    lines.append("verdict: %s" % verdict.kind.replace("_", "-"))
    if verdict.phi is not None:
        lines.append("phi(u) = %s" % to_text(verdict.phi))
    lines.append(verdict.diagnostics)
    emit(report, lines, args)
    return EXIT_OK if verdict.admits_substitution else EXIT_FAIL


def cmd_verify(args) -> int:
    spec = equation_from(args)
    gen = generator_from(args)
    cfg = zero_config_from(args)
    report = _blank_report()
    lines = ["generator: %s" % gen]
    if spec.linear_parts(cfg) is not None:
        residuals = determining_residual_pair(spec, gen, cfg)
        labels = ("R1", "R2")
    else:
        residuals = (determining_residual_generic(spec, gen),)
        labels = ("R",)
    all_pass = True
    for label, res in zip(labels, residuals):
        if res == ZERO:
            passed, verdict = True, None
        else:
            verdict = is_zero(res, cfg, spec.table)
            passed = verdict.zero
        all_pass = all_pass and passed
        entry = {"label": label, "residual": to_text(res), "zero": passed,
                 "method": "structural" if verdict is None else verdict.method}
        if not passed and verdict is not None and verdict.witness is not None:
            entry["witness"] = verdict.witness.describe()
            entry["witness_value"] = fmt(verdict.witness_value)
            lines.append("%s = %s  NONZERO at %s (value %s)"
                         % (label, to_text(res), verdict.witness.describe(),
                            fmt_s(verdict.witness_value)))
        else:
            lines.append("%s = %s  zero" % (label, to_text(res)))
        report["residuals"].append(entry)
    report["verdict"] = "symmetry" if all_pass else "not-a-symmetry"
    lines.append("symmetry check: %s" % ("pass" if all_pass else "fail"))
    emit(report, lines, args)
    return EXIT_OK if all_pass else EXIT_FAIL


def _profile_from(args) -> InitialProfile:
    name = args.numeric
    if name in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name]()
    expr = _parse_expr(name, "--numeric")
    try:
        polynomial_terms(expr, X)
    except ExprError:
        raise CliError("--numeric must be a builtin name (%s) or a "
                       "polynomial in x"
                       % ", ".join(sorted(BUILTIN_PROFILES))) from None
    return polynomial_profile(substitute(expr, {X: W}), name)


def cmd_claw(args) -> int:
    spec = equation_from(args)
    cfg = zero_config_from(args)
    report = _blank_report()
    lines = []

    if args.catalog:
        if args.builtin != "burgers":
            raise CliError("--catalog labels refer to the builtin burgers "
                           "equation; add --builtin burgers")
        label = CATALOG_ALIASES.get(args.catalog, args.catalog)
        entries = dict(burgers_claw_catalog())
        if label not in entries:
            raise CliError("unknown catalog label %r (expected l1..l6 or "
                           "X3..X8)" % args.catalog)
        cv = entries[label]
        lines.append("catalog law %s (%s)" % (args.catalog, cv.provenance))
    else:
        gen = generator_from(args)
        phi = _parse_expr(args.phi, "--phi") if args.phi else None
        try:
            verdict = classify(spec, cfg)
        except InconclusiveClassification as ex:
            report["verdict"] = "inconclusive"
            report["detail"] = str(ex)
            lines.append("verdict: inconclusive")
            lines.append(str(ex))
            emit(report, lines, args)
            return EXIT_INCONCLUSIVE
        report["verdict"] = verdict.kind
        if not verdict.admits_substitution:
            lines.append("refusal: %s" % verdict.diagnostics)
            lines.append("the equation is not quasi-self-adjoint, so no "
                         "phi-weighted conservation law exists")
            emit(report, lines, args)
            return EXIT_FAIL
        if verdict.kind != SELF_ADJOINT and phi is None:
            lines.append("refusal: equation is quasi-self-adjoint; a "
                         "concrete substitution is needed, pass --phi")
            lines.append(verdict.diagnostics)
            emit(report, lines, args)
            return EXIT_FAIL
        try:
            cv = build_vector_self(spec, gen, phi, cfg)
        except NotSelfAdjointError as ex:
            lines.append("refusal: %s" % ex)
            emit(report, lines, args)
            return EXIT_FAIL
        lines.append("generator: %s" % gen)
        report["phi"] = to_text(phi) if phi is not None else (
            to_text(verdict.phi) if verdict.phi is not None else None)

    div = divergence_residual(cv, spec, config=cfg)
    lines.append("C0 = %s" % to_text(cv.c0))
    lines.append("C1 = %s" % to_text(cv.c1))
    lines.append("divergence on solutions: %s"
                 % ("0 (certified)" if div.passed else to_text(div.residual)))
    report["claw"] = {"C0": to_text(cv.c0), "C1": to_text(cv.c1),
                      "divergence": "zero" if div.passed
                      else to_text(div.residual),
                      "method": div.method}
    ok = div.passed

    if args.numeric or args.domain is not None or args.times:
        numeric = _run_numeric(args, spec, cv, lines)
        report["numeric"] = numeric
        ok = ok and numeric["pass"]
    if report["verdict"] is None:
        report["verdict"] = "pass" if ok else "fail"
    emit(report, lines, args)
    return EXIT_OK if ok else EXIT_FAIL


def _run_numeric(args, spec: EvolutionSpec, cv, lines: list[str]) -> dict:
    if not args.numeric or args.domain is None or not args.times:
        raise CliError("numeric mode needs --numeric, --domain and --times")
    if args.a is None:
        raise CliError("numeric mode needs --a, the polynomial instantiation "
                       "of a(u)")
    a_expr = _parse_expr(args.a, "--a")
    try:
        polynomial_terms(a_expr, U)
    except ExprError:
        raise CliError("--a must be polynomial in u") from None
    a_poly = substitute(a_expr, {U: W})
    times = sorted(args.times)
    if any(t <= 0 for t in times):
        raise CliError("times must be positive")
    functions = {"a": a_poly}
    c0 = instantiate(on_solution_reduce(cv.c0, spec), functions, spec.table)
    c1 = instantiate(on_solution_reduce(cv.c1, spec), functions, spec.table)
    profile = _profile_from(args)
    try:
        sol = CharacteristicSolution(a_poly, profile,
                                     (args.domain[0], args.domain[1]),
                                     args.boundary)
        rep = verify_law(sol, c0, c1, times, args.nodes, args.tol, spec.table)
    except (CharacteristicsError, ValueError) as ex:
        raise CliError(str(ex)) from None
    lines.append("shock time: %s" % ("inf" if math.isinf(sol.shock_time)
                                     else fmt_s(sol.shock_time)))
    lines.append("numeric check (%s, tol %s):"
                 % (rep.mode, fmt_s(rep.tolerance)))
    for t, q in zip(rep.times, rep.q_values):
        lines.append("  t = %s: Q = %s" % (fmt_s(t), fmt_s(q)))
    lines.append("  max deviation %s -> %s"
                 % (fmt_s(rep.deviation), "pass" if rep.passed else "FAIL"))
    return {"mode": rep.mode,
            "shock_time": None if math.isinf(sol.shock_time)
            else fmt(sol.shock_time),
            "times": [fmt(t) for t in rep.times],
            "Q": [fmt(q) for q in rep.q_values],
            "drift": fmt(rep.deviation),
            "pass": rep.passed}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv_list = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--config" in argv_list:
            i = argv_list.index("--config")
            if i + 1 >= len(argv_list):
                raise CliError("--config needs a path")
            known = set()
            for sp in parser.sub_commands:
                known.update(a.dest for a in sp._actions)
            defaults = load_config_file(argv_list[i + 1], known)
            for sp in parser.sub_commands:
                sp.set_defaults(**{k: v for k, v in defaults.items()
                                   if any(a.dest == k for a in sp._actions)})
        args = parser.parse_args(argv_list)
        return args.func(args)
    except CliError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_CONFIG
    except InconclusiveZeroTest as ex:
        print("inconclusive: %s" % ex, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except ExprError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
