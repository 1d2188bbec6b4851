"""Traced CLI invocation: ``cli_child.py REPORT_PATH ARGV...``.

Behaves like ``python -m lieconserve.cli ARGV...`` (same output and exit
code) but traces the program and times ``main()`` in process, then writes
{summary, main_s, spans} as JSON to REPORT_PATH.
"""

from __future__ import annotations

import json
import sys
import time

import lieconserve.cli as cli  # noqa: E402  (PYTHONPATH points at src)
from tracer import Tracer

if __name__ == "__main__":
    report_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    tracer.begin(0)
    try:
        code = cli.main(argv)
    finally:
        tracer.end()
        main_s = time.perf_counter() - start
    sys.stdout.flush()
    spans = [json.dumps(dict(zip(("request", "id", "parent", "name", "start", "end"), s)))
             for s in tracer.spans]
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"summary": tracer.summary(), "main_s": main_s, "spans": spans}, fh)
    sys.exit(code)
