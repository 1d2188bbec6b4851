"""Known-answer guard: the benchmark's workloads, run as tests.

``perfbench/workloads.py`` builds seeded inputs whose answers are known by
construction (planted identities, non-identities, structural zeros, the
residual identities of the symbolic scan, and conserved integrals whose
values are known) and checks each result against them.  Running the first
blocks of a few seeds here catches a zero test or a numeric check that
answers wrongly on some inputs before the benchmark does, and it exercises
the API the benchmark calls (``expr.Poly``, ``CharacteristicSolution``,
``instantiate``).  The tracer's targets must resolve too, or a traced run
cannot install.  Both modules are imported as they are, without writing
anything under ``perfbench/``.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import pytest

from conftest import fresh_python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench(name: str):
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def workloads():
    return _import_perfbench("workloads").WORKLOADS


def _run_blocks(workload, seed: int, blocks: int) -> None:
    rng = random.Random(seed)
    for _ in range(blocks):
        for item in workload.make_blocks(rng):
            prepared = workload.prepare(item)
            result = workload.run(prepared)
            assert workload.check(item, prepared, result), (item.kind, item.data)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["symbolic-scan", "identity-certify"])
def test_zero_test_workloads_pass_their_known_answer_checks(workloads, name, seed):
    _run_blocks(workloads[name], seed, blocks=2)


@pytest.mark.parametrize("seed", range(3))
def test_numeric_transport_passes_its_known_answer_checks(workloads, seed):
    _run_blocks(workloads["numeric-transport"], seed, blocks=1)


def test_every_tracer_target_resolves_in_the_package():
    tracer = _import_perfbench("tracer")
    for modname, attr, _ in tracer.TARGETS:
        module = importlib.import_module(tracer.PACKAGE + "." + modname)
        owner, _, name = attr.rpartition(".")
        namespace = vars(getattr(module, owner)) if owner else vars(module)
        assert name in namespace, (modname, attr)


@pytest.mark.parametrize("entry", ["lieconserve", "lieconserve.cli"])
def test_the_tracer_installs_after_importing_only_the_entry_module(entry):
    # the worker imports the package, and the traced CLI child only the CLI,
    # before installing; every target module must then be loaded already,
    # and none of them may have pulled in numpy
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "import %s\n"
              "from tracer import Tracer\n"
              "Tracer().install()\n"
              "print('installed', 'numpy' in sys.modules)" % (str(PERFBENCH), entry))
    proc = fresh_python("-B", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "installed False"
