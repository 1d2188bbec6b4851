"""Known-answer guard: the benchmark's zero-test workloads, run as tests.

``perfbench/workloads.py`` builds seeded inputs whose answers are known by
construction (planted identities, non-identities, structural zeros and the
residual identities of the symbolic scan) and checks each result against
them.  Running the first two blocks of a few seeds here catches a zero test
that answers wrongly on some inputs before the benchmark does.  The module
is imported as it is, without writing anything under ``perfbench/``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["symbolic-scan", "identity-certify"])
def test_zero_test_workloads_pass_their_known_answer_checks(workloads, name, seed):
    workload = workloads[name]
    rng = random.Random(seed)
    for _ in range(2):
        for item in workload.make_blocks(rng):
            prepared = workload.prepare(item)
            result = workload.run(prepared)
            assert workload.check(item, prepared, result), (item.kind, item.data)
