"""The lieconserve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Every workload runs in fresh processes with one
client in a closed loop (one op at a time, no threads, no parallel
subprocesses).  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from two traced runs of
the same fixed batch.  The last line of standard output is one JSON object
{correct, attempted, failed, metrics}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench")
# Set-up is timed in five fresh processes, two before the timed phase and
# two after it (plus the timed worker itself), so that one slow spell of the
# shared host does not decide the median.
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("LIECONSERVE_SEED", None)
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("benchmark deadline exceeded")
    return left


def run_worker(start: float, argv: list[str]) -> tuple[float, dict]:
    """Start a worker; (seconds from start to its READY line, its result)."""
    t0 = time.perf_counter()
    # own process group, so that a worker killed on timeout takes its CLI
    # children with it
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, bufsize=0,
                            start_new_session=True)
    out, ready_at = b"", None
    try:
        while True:
            if not select.select([proc.stdout], [], [], remaining(start))[0]:
                raise BenchError("worker %s timed out" % " ".join(argv))
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready_at is None and b"\n" in out:
                ready_at = time.perf_counter()
        proc.wait(timeout=remaining(start))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if not lines or lines[0] != "READY" or proc.returncode != 0:
        raise BenchError("worker %s failed (exit %s)" % (" ".join(argv), proc.returncode))
    return ready_at - t0, json.loads(lines[-1])


def cold_imports(start: float, count: int) -> list[float]:
    """Wall times of fresh interpreters that only import the CLI."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lieconserve.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=remaining(start))
        samples.append(time.perf_counter() - t0)
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile, in
    tenths, whose nearest-rank value has at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1], 0
    pct = math.floor(1000.0 * (n - 10) / n) / 10.0
    rank = max(1, math.ceil(pct / 100.0 * n))
    return pct, xs[rank - 1], n - rank


def block_time(block_s: list[float]) -> float:
    """Typical time a block spends inside ops.  The median damps slow spells
    of the shared host; with fewer than five blocks (cli-cold runs about
    three) it would discard most of the data, so the mean is used there."""
    return statistics.median(block_s) if len(block_s) >= 5 else statistics.mean(block_s)


def timed(args, start: float) -> tuple[dict, int, int]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    timed_argv = base + ["--phase", "timed", "--seconds", str(args.seconds)]
    before = SETUP_SAMPLES // 2
    after = SETUP_SAMPLES - 1 - before
    if args.workload == "cli-cold":
        setups = cold_imports(start, before + 1)
        _, res = run_worker(start, timed_argv)
        setups += cold_imports(start, after)
    else:
        def setup_only(count):
            return [run_worker(start, base + ["--phase", "setup"])[0] for _ in range(count)]
        setups = setup_only(before)
        setup, res = run_worker(start, timed_argv)
        setups += [setup] + setup_only(after)
    lat = res["latencies"]
    if not lat:
        raise BenchError("no operation completed")
    pct, tail_value, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": res["block_ops"] / block_time(res["block_s"]),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    print("latency_tail_ms is p%.1f of %d ops (%d beyond it)" % (pct, len(lat), beyond))
    return metrics, res["attempted"], res["failed"]


def traced(args, start: float, names: list[str]) -> tuple[dict, int, int, bool]:
    os.makedirs(OUT, exist_ok=True)
    import_s = statistics.median(cold_imports(start, 3))
    runs = []
    for i in (1, 2):
        spans = os.path.join(OUT, "spans-%s-%d-%d.jsonl" % (args.workload, args.seed, i))
        _, res = run_worker(start, ["--workload", args.workload, "--seed", str(args.seed),
                                    "--phase", "trace", "--spans", spans])
        runs.append(res)
        print("spans written to %s" % os.path.relpath(spans, ROOT))
    a, b = (r["summary"] for r in runs)
    counts = sorted(k for k in set(a) | set(b) if not k.endswith("_s"))
    differ = [k for k in counts if a.get(k, 0) != b.get(k, 0)]
    for k in differ:
        print("determinism check failed: %s %s != %s" % (k, a.get(k, 0), b.get(k, 0)),
              file=sys.stderr)
    print("determinism check: %d counts %s across two traced runs"
          % (len(counts), "identical" if not differ else "DIFFER"))
    overheads = [r["traced_s"] - r["untraced_s"] for r in runs]
    untraced = statistics.mean(r["untraced_s"] for r in runs)
    print("tracing overhead: %.3f s on %.3f s untraced (%.0f%%)"
          % (statistics.mean(overheads), untraced, 100.0 * statistics.mean(overheads) / untraced))
    used = a.get("expr.evaluate.is_zero.samples_used", 0)
    attempts = used + a.get("expr.evaluate.is_zero.samples_skipped", 0)
    derived = {
        "cli.import_s": import_s,
        "cli.main_s": statistics.median(runs[0]["cli_main_s"]) if "cli_main_s" in runs[0] else 0.0,
        "trace.overhead_s": statistics.mean(overheads),
        "expr.evaluate.is_zero.used_ratio": used / attempts if attempts else 0.0,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith("_s"):
            metrics[name] = statistics.mean(r["summary"].get(name, 0.0) for r in runs)
        else:
            metrics[name] = a.get(name, 0)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return metrics, attempted, failed, not differ


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "lieconserve", "__init__.py")):
        print("error: no lieconserve sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            values, attempted, failed, deterministic = traced(
                args, start, [m["name"] for m in defs])
        else:
            values, attempted, failed = timed(args, start)
            deterministic = True
    except (BenchError, subprocess.SubprocessError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    metrics = {}
    for m in defs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-48s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print("failed_ops_ratio %d/%d = %.4g" % (failed, attempted, failed / max(attempted, 1)))
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
