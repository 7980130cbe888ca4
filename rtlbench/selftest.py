#!/usr/bin/env python3
"""Self-test of the benchmark: run a small size of every workload, untraced
and traced, and check every metric name and unit against BENCHMARK.json,
the result-line schema, and that the spans file loads as Chrome trace-event
JSON. Then plant two faults and check the correctness gate catches each:
a wrong expected digest and a corrupted certificate must each make the run
fail (failed > 0, correct false, non-zero exit). On session_deltas a third
fault, a lost delta whose stale answer still carries a valid certificate,
must fail the run too.

usage: python3 rtlbench/selftest.py        (exit 0 when every check passes)
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS = os.path.join(ROOT, ".bench_build", "rtlbench", "selftest-spans.json")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--size", "small", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, result, err = run(workload, "--seed", "7", "--trace", str(trace),
                                    "--spans", SPANS)
            check(code == 0 and result is not None, f"{label}: exits 0 with a result line")
            if result is None:
                print(err[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: correct, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{label}: every metric name and unit")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{label}: numeric values")
            if trace == 1:
                with open(SPANS) as f:
                    spans = json.load(f)
                events = spans.get("traceEvents", [])
                check(len(events) > 0 and all(
                    e["ph"] == "X" and {"name", "ts", "dur", "pid", "tid"} <= set(e)
                    for e in events), f"{label}: spans load as Chrome trace events")

        code, result, _ = run(workload, "--expect-digest", "0123456789abcdef")
        check(code != 0 and result is not None and result["failed"] > 0
              and result["correct"] is False, f"{workload}: planted wrong digest fails the run")
        code, result, _ = run(workload, "--corrupt-request", "3")
        check(code != 0 and result is not None and result["failed"] > 0
              and result["correct"] is False,
              f"{workload}: planted corrupt certificate fails the run")
        if workload == "session_deltas":
            # Request 5 is a real move (requests 0-3 are the sessions' no-op
            # first moves).
            code, result, _ = run(workload, "--stale-request", "5")
            check(code != 0 and result is not None and result["failed"] > 0
                  and result["correct"] is False,
                  f"{workload}: planted stale session answer fails the run")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
