"""One workload process: set up, signal READY, then run a timed or traced phase.

Started by ``run.py``, never by hand:

    worker.py --workload NAME --seed N --phase setup|timed|trace
              [--seconds S] [--spans PATH]

The driver sets PYTHONPATH to the checkout's ``src`` and times set-up from
process start to the READY line.  The last line of standard output is a
JSON object with the phase's raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Blocks (cli-cold: command cycles) in the fixed batch of a traced run.
TRACE_BLOCKS = {"symbolic-scan": 5, "identity-certify": 2,
                "numeric-transport": 2, "cli-cold": 1}


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def ready() -> None:
    print("READY", flush=True)


# ---------------------------------------------------------------------------
# in-process workloads

def run_item(wl, item, tracer=None, request=0):
    """(latency_s or None on exception, correct)."""
    prepared = wl.prepare(item)
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin(request)
    try:
        result = wl.run(prepared)
    except Exception as ex:               # a failed op is counted, not fatal
        print("op raised %s: %s" % (type(ex).__name__, ex), file=sys.stderr)
        return None, False
    finally:
        if tracer is not None:
            tracer.end()
    latency = time.perf_counter() - start
    return latency, bool(wl.check(item, prepared, result))


def in_process(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    first = wl.make_blocks(rng)
    run_item(wl, first[0])                # warm-up, not counted
    ready()
    if args.phase == "setup":
        return {}
    latencies, blocks, failed, attempted = [], [], 0, 0
    if args.phase == "timed":
        start = time.perf_counter()
        block = first
        while time.perf_counter() - start < args.seconds:
            busy = 0.0
            for item in block:
                latency, ok = run_item(wl, item)
                attempted += 1
                if latency is None or not ok:
                    failed += 1
                if latency is not None:
                    latencies.append(latency)
                    busy += latency
            blocks.append(busy)
            block = wl.make_blocks(rng)
        return {"latencies": latencies, "block_s": blocks, "block_ops": len(first),
                "attempted": attempted, "failed": failed,
                "peak_rss_kb": peak_rss_kb(children=False)}

    from tracer import Tracer
    batch = list(first)
    for _ in range(TRACE_BLOCKS[args.workload] - 1):
        batch.extend(wl.make_blocks(rng))
    tracer = Tracer()
    tracer.install()
    times = {False: 0.0, True: 0.0}
    for i, item in enumerate(batch):
        for traced in paired_order(i):
            latency, ok = run_item(wl, item, tracer if traced else None, i)
            times[traced] += latency or 0.0
            if traced:
                attempted += 1
                failed += latency is None or not ok
    tracer.write_spans(args.spans)
    return {"summary": tracer.summary(), "untraced_s": times[False],
            "traced_s": times[True], "attempted": attempted, "failed": failed}


def paired_order(i: int) -> tuple[bool, bool]:
    """Each op of a traced batch runs untraced and traced back to back, in
    alternating order, so that the overhead is measured in the same spell of
    the shared host and neither side always gets the warmer second run."""
    return (False, True) if i % 2 == 0 else (True, False)


# ---------------------------------------------------------------------------
# cli-cold

def run_cli(argv, code, expected, traced_out=None):
    """One fresh interpreter; (latency_s, correct, child report or None)."""
    if traced_out is None:
        cmd = [sys.executable, "-m", "lieconserve.cli"] + argv
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), traced_out] + argv
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    latency = time.perf_counter() - start
    ok = proc.returncode == code and workloads.output_matches(proc.stdout, expected)
    if not ok:
        print("cli %s: exit %d\n%s%s" % (" ".join(argv), proc.returncode,
                                        proc.stdout, proc.stderr), file=sys.stderr)
    report = None
    if traced_out is not None:
        with open(traced_out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(traced_out)
    return latency, ok, report


def cli_cold(args) -> dict:
    rng = random.Random(args.seed)
    cycle = workloads.cli_commands(rng)
    ready()
    if args.phase == "setup":
        return {}
    latencies, blocks, failed = [], [], 0
    if args.phase == "timed":
        start = time.perf_counter()
        size = len(cycle)
        while time.perf_counter() - start < args.seconds:
            busy = 0.0
            for argv, code, expected in cycle:
                latency, ok, _ = run_cli(argv, code, expected)
                latencies.append(latency)
                busy += latency
                failed += not ok
            blocks.append(busy)
            cycle = workloads.cli_commands(rng)
        return {"latencies": latencies, "block_s": blocks, "block_ops": size,
                "attempted": len(latencies), "failed": failed,
                "peak_rss_kb": peak_rss_kb(children=True)}

    batch = list(cycle)
    for _ in range(TRACE_BLOCKS["cli-cold"] - 1):
        batch.extend(workloads.cli_commands(rng))
    times = {False: 0.0, True: 0.0}
    summary: dict = {}
    main_s, spans = [], []
    out = args.spans + ".child.json"
    for i, (argv, code, expected) in enumerate(batch):
        for traced in paired_order(i):
            latency, ok, report = run_cli(argv, code, expected, out if traced else None)
            times[traced] += latency
            if not traced:
                continue
            failed += not ok
            for key, value in report["summary"].items():
                summary[key] = summary.get(key, 0) + value
            main_s.append(report["main_s"])
            spans.extend(report["spans"])
    with open(args.spans, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in spans)
    return {"summary": summary, "untraced_s": times[False], "traced_s": times[True],
            "attempted": len(batch), "failed": failed, "cli_main_s": main_s}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans")
    args = p.parse_args()
    fn = cli_cold if args.workload == "cli-cold" else in_process
    print(json.dumps(fn(args)), flush=True)


if __name__ == "__main__":
    main()
