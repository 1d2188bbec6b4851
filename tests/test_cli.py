"""End-to-end command-line behavior: exit codes, reports, config files."""

from __future__ import annotations

import json
import math

import pytest

from conftest import fresh_python
from lieconserve.cli import main

PI_TEXT = "%.15f" % (2.0 * math.pi)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_self_adjoint_equation(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "a(u)", "--beta", "0")
    assert code == 0
    assert "verdict: self-adjoint" in out
    assert "phi(u) = u" in out


def test_classify_not_quasi_exits_two(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "u", "--beta", "u^2")
    assert code == 2
    assert "not-quasi-self-adjoint" in out


# The u_x-curvature u/500000000000 of this flux is below the default
# zero-test tolerance at every sample, but not below 1e-15.
CURVED_FLUX = ("--f", "u_x^2*u/10^12 + u*u_x")


def test_zero_test_flags_reach_the_u_x_linearity_check(capsys):
    code, out, _ = run(capsys, "classify", *CURVED_FLUX, "--zt-tol", "1e-15")
    assert code == 2
    assert "verdict: not-quasi-self-adjoint" in out
    code, out, _ = run(capsys, "verify", *CURVED_FLUX, "--tau", "1",
                       "--zt-tol", "1e-15")
    assert code == 0
    assert out.splitlines()[1] == "R = 0  zero"     # the generic residual
    # at the default tolerance the curvature counts as zero, as before
    code, _, err = run(capsys, "classify", *CURVED_FLUX)
    assert code == 1
    assert "cannot isolate the u_x coefficient" in err


def test_classify_inconclusive_exits_three(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "x*a(u)", "--beta", "u")
    assert code == 3
    assert "inconclusive" in out


def test_classify_quasi_equation_exits_zero(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "x*u^2", "--beta", "1")
    assert code == 0
    assert "quasi-self-adjoint" in out


def test_verify_catalog_generator_passes(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "burgers",
                       "--generator", "X7")
    assert code == 0
    assert "symmetry check: pass" in out


def test_verify_scaled_generator_passes(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "burgers",
                       "--generator", "X3", "--lambda", "1 + u^3")
    assert code == 0


def test_verify_failure_shows_a_witness(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "burgers",
                       "--eta", "u")
    assert code == 2
    assert "NONZERO" in out
    assert "symmetry check: fail" in out


def test_verify_is_reproducible_under_a_fixed_seed(capsys):
    args = ("verify", "--builtin", "burgers", "--eta", "u", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_claw_catalog_symbolic_certification(capsys):
    code, out, _ = run(capsys, "claw", "--builtin", "burgers",
                       "--catalog", "l1")
    assert code == 0
    assert "C0 = u^2/2" in out
    assert "C1 = A(u)" in out
    assert "0 (certified)" in out


def test_claw_accepts_generator_labels_too(capsys):
    code, out, _ = run(capsys, "claw", "--builtin", "burgers",
                       "--generator", "X5")
    assert code == 0
    assert "divergence on solutions: 0 (certified)" in out


def test_claw_refuses_without_the_adjointness_property(capsys):
    code, out, _ = run(capsys, "claw", "--alpha", "u", "--beta", "u^2",
                       "--tau", "1")
    assert code == 2
    assert "refusal" in out


def test_claw_on_quasi_equation_requires_explicit_phi(capsys):
    code, out, _ = run(capsys, "claw", "--alpha", "x*u^2", "--beta", "1",
                       "--tau", "1")
    assert code == 2
    assert "pass --phi" in out


def test_claw_numeric_run_reports_the_conserved_value(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "claw", "--builtin", "burgers",
                       "--catalog", "l1", "--a", "u", "--numeric", "sin",
                       "--domain", "0", PI_TEXT,
                       "--times", "0.25", "0.5", "0.75", "0.9",
                       "--nodes", "2048", "--out", str(out_path))
    assert code == 0
    assert "shock time: 1" in out
    report = json.loads(out_path.read_text())
    assert report["claw"]["C0"] == "u^2/2"
    assert report["numeric"]["pass"] is True
    assert report["numeric"]["shock_time"] == pytest.approx(1.0, abs=1e-9)
    # every Q printed in the text equals the JSON value to all shown digits
    text_qs = [float(line.split("Q = ")[1])
               for line in out.splitlines() if "Q = " in line]
    assert text_qs == report["numeric"]["Q"]
    for q in report["numeric"]["Q"]:
        assert q == float("%.12g" % q)          # 12-significant-digit values
        assert q == pytest.approx(math.pi / 2, rel=1e-6)


def test_numeric_claw_runs_without_scipy():
    # numpy is imported on first numeric use; scipy never is
    script = (
        "import sys\n"
        "from lieconserve.cli import main\n"
        "code = main(['claw', '--builtin', 'burgers', '--catalog', 'l1',\n"
        "             '--a', 'u', '--numeric', 'sin', '--domain', '0', %r,\n"
        "             '--times', '0.25', '0.5', '0.75', '0.9',\n"
        "             '--nodes', '2048'])\n"
        "print(code, 'numpy' in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy'))\n" % PI_TEXT)
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    # exit code, numpy loaded, scipy modules
    assert proc.stdout.splitlines()[-1] == "0 True []"


# Symbolic commands, with their exit codes; the second verify finds a
# nonzero residual, so it samples and prints a witness.
SYMBOLIC_COMMANDS = [
    (["classify", "--alpha", "2*x", "--beta", "u"], 0),
    (["verify", "--builtin", "burgers", "--generator", "X5"], 0),
    (["verify", "--builtin", "burgers", "--eta", "u"], 2),
    (["claw", "--builtin", "burgers", "--catalog", "l3"], 0),
    # a sampled zero: all 200 points in Python floats
    (["verify", "--alpha", "u", "--beta", "0", "--eta", "u^(1/2)*u^(1/2) - u"], 0),
]


@pytest.mark.parametrize("argv, code", SYMBOLIC_COMMANDS)
def test_symbolic_commands_run_without_numpy(argv, code):
    script = ("import sys\n"
              "from lieconserve.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m.split('.')[0] == 'numpy'))\n")
    proc = fresh_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "%d []" % code
    if code == 2:
        assert "NONZERO at" in proc.stdout


@pytest.mark.parametrize("args", [
    # the witness is the first point, drawn in Python floats
    ("-m", "lieconserve.cli", "verify", "--builtin", "burgers", "--eta", "u",
     "--seed", "11"),
    # the first point has u < 0 and is skipped; the witness comes from a
    # later point of the same Python stream
    ("-c", "from lieconserve.expr import ZeroTestConfig, is_zero, parse\n"
           "v = is_zero(parse(\"a'(u)*u^(1/2) - a(u)\"), ZeroTestConfig(seed=3))\n"
           "assert v.samples_used + v.samples_skipped > 1\n"
           "print(v.describe(), repr(v.witness_value))"),
])
def test_a_seed_fixes_the_witness_across_interpreters(args):
    runs = [fresh_python(*args) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode
    assert "nonzero" in runs[0].stdout.lower(), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def test_json_format_prints_the_report_to_stdout(capsys):
    code, out, _ = run(capsys, "claw", "--builtin", "burgers",
                       "--catalog", "X4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) >= {"verdict", "phi", "residuals", "claw", "numeric"}
    assert report["claw"]["divergence"] == "zero"
    assert report["claw"]["method"] == "structural"


def test_json_residuals_say_how_each_zero_was_reached(capsys):
    # R2 is -1/(1 + u)^2 + 1/(1 + u) - u/(1 + u)^2, zero once cleared
    code, out, _ = run(capsys, "verify", "--alpha", "1/(1 + u)", "--beta", "0",
                       "--tau", "t", "--xi", "0", "--eta", "1 + u",
                       "--format", "json")
    assert code == 0
    methods = {e["label"]: (e["method"], e["zero"])
               for e in json.loads(out)["residuals"]}
    assert methods == {"R1": ("structural", True), "R2": ("cleared", True)}
    code, out, _ = run(capsys, "verify", "--builtin", "burgers", "--eta", "u",
                       "--format", "json")
    assert code == 2
    r2 = json.loads(out)["residuals"][1]
    assert (r2["method"], r2["zero"]) == ("sampled", False)


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("builtin = burgers\n"
                   "catalog = l1\n"
                   "a = u\n"
                   "numeric = sin\n"
                   "domain = 0 %s\n" % PI_TEXT
                   + "times = 0.25 0.5\n"
                   "nodes = 512\n"
                   "# trailing comment\n")
    code, out, _ = run(capsys, "--config", str(cfg), "claw")
    assert code == 0
    assert "C0 = u^2/2" in out
    code, out, _ = run(capsys, "--config", str(cfg), "claw",
                       "--catalog", "l3")
    assert code == 0
    assert "C0 = u/a'(u)" in out


def test_unknown_config_key_is_a_configuration_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("catalgo = l1\n")
    code, _, err = run(capsys, "--config", str(cfg), "claw")
    assert code == 1
    assert "unknown option" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--alpha", "2*(x"),
    ("classify",),
    ("classify", "--builtin", "burgers", "--f", "u*u_x"),
    ("verify", "--builtin", "burgers", "--generator", "X9"),
    ("claw", "--catalog", "l1"),
    ("claw", "--builtin", "burgers", "--catalog", "l1", "--times", "0.5"),
    ("verify", "--builtin", "burgers", "--eta", "u", "--zt-samples", "-3"),
    ("verify", "--builtin", "burgers", "--eta", "u", "--zt-samples", "0"),
    ("verify", "--alpha", "u", "--beta", "0", "--eta", "u^(1/2)*u^(1/2) - u",
     "--zt-tol", "-1"),
    ("verify", "--builtin", "burgers", "--eta", "u", "--zt-tol", "nan"),
])
def test_configuration_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize("extra", [
    ("--numeric", "sin", "--domain", "0", PI_TEXT, "--nodes", "2048"),
    ("--numeric", "sin"),
    ("--domain", "0", PI_TEXT),
])
def test_partial_numeric_requests_are_errors_not_skipped(capsys, extra):
    code, out, err = run(capsys, "claw", "--builtin", "burgers", "--catalog",
                         "l1", "--a", "u", *extra)
    assert code == 1
    assert "numeric mode needs --numeric, --domain and --times" in err
    assert "numeric check" not in out


@pytest.mark.parametrize("profile, extra, message", [
    ("sin", ("--times", "nan"), "times must be finite"),
    ("sin", ("--times", "0.5", "--tol", "-1"), "tol must be positive"),
    ("sin", ("--times", "0.5", "--tol", "nan"), "tol must be positive"),
    ("sin", ("--times", "0.5", "--nodes", str(2 ** 20 + 2)),
     "nodes must be at most 1048576"),
    # x^2 rises on the domain but falls left of it: no bracket there
    ("x^2", ("--times", "1"), "characteristic bracket failed at t = 1"),
])
def test_bad_numeric_requests_exit_one(capsys, profile, extra, message):
    code, out, err = run(capsys, "claw", "--builtin", "burgers", "--catalog",
                         "l1", "--a", "u", "--numeric", profile,
                         "--domain", "0", PI_TEXT, *extra)
    assert code == 1
    assert "error: " + message in err
    assert "Q = " not in out


def test_huge_constants_exit_one_with_a_message(capsys):
    code, _, err = run(capsys, "claw", "--alpha", "u*2^20000", "--beta", "0",
                       "--tau", "1")
    assert code == 1
    assert "error: cannot parse --alpha" in err and "13000 bits" in err
    # each factor parses, but the product is too large to print
    code, _, err = run(capsys, "claw", "--alpha", "u*2^7000*2^7000",
                       "--beta", "0", "--tau", "1")
    assert code == 1
    assert "error: constant too large to print" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--alpha", "u*2^2000", "--beta", "u^2*2^2000"),
    ("verify", "--alpha", "u*2^2000", "--beta", "0", "--eta", "u*2^1100"),
])
def test_constants_past_the_float_range_exit_one_with_a_message(capsys, argv):
    # they parse, but the zero test cannot sample them as floats
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error: a constant or power is past the floating-point range" in err


def test_a_residual_that_overflows_at_every_sample_is_inconclusive(capsys):
    # R2 = 2^1023*(2 + u^2)^9 + u is past the float range at every sample
    code, out, err = run(capsys, "verify", "--alpha", "u", "--beta", "0",
                         "--tau", "0", "--xi", "0",
                         "--eta", "2^1023*(2 + u^2)^9 + u")
    assert code == 3
    assert "inconclusive: all 200 samples hit poles or overflowed" in err
    assert "symmetry check: pass" not in out


def test_malformed_seed_variable_is_a_configuration_error(capsys, monkeypatch):
    monkeypatch.setenv("LIECONSERVE_SEED", "abc")
    # the residuals of X7 are structural zeros, so no sample is ever drawn
    code, _, err = run(capsys, "verify", "--builtin", "burgers",
                       "--generator", "X7")
    assert code == 1
    assert "error: LIECONSERVE_SEED must be an integer, got 'abc'" in err
    code, _, _ = run(capsys, "verify", "--builtin", "burgers",
                     "--generator", "X7", "--seed", "5")
    assert code == 0


def test_claw_inconclusive_classification_exits_three(capsys):
    code, out, _ = run(capsys, "claw", "--alpha", "x*a(u)", "--beta", "u",
                       "--tau", "1")
    assert code == 3
    assert "inconclusive" in out
