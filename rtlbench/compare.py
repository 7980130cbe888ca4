#!/usr/bin/env python3
"""Summarize benchmark reports and compare two summaries.

  python3 rtlbench/compare.py summarize REPORT.json... > summary.json
      Group report files (written by run.py --report) by workload and give
      each metric's median, quartiles and spread ((q3 - q1) / median) over
      the runs, with the fingerprint the runs share.

  python3 rtlbench/compare.py diff BASE.json NEW.json
      Compare two summaries (or rtlbench/baseline.json) metric by metric
      against the bounds in BENCHMARK.json. Summaries taken on different
      fingerprints are not compared: the differing fields are printed and
      the exit code is 3. Otherwise the exit code is 1 when some end-to-end
      median is worse than its bound allows, else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What makes two runs comparable: the machine, toolchain and engine, not
# the code version (git_sha and source_sha are what a comparison varies).
MACHINE_KEYS = ("cpu", "nproc", "compiler", "build_type", "engine_threads")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(paths):
    grouped = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        grouped.setdefault(report["workload"], []).append(report)
    summary = {}
    for workload, reports in sorted(grouped.items()):
        machines = {json.dumps({k: r["fingerprint"][k] for k in MACHINE_KEYS}) for r in reports}
        if len(machines) != 1:
            sys.exit(f"{workload}: reports come from {len(machines)} different fingerprints")
        entry = {"fingerprint": reports[0]["fingerprint"],
                 "runs": {}, "metrics": {}, "per_layer": {}, "properties": {}}
        for trace, key in ((0, "metrics"), (1, "per_layer")):
            runs = [r for r in reports if r["trace"] == trace]
            entry["runs"][key] = {"count": len(runs), "seeds": sorted(r["seed"] for r in runs),
                                  "seconds": sorted({r["seconds"] for r in runs}),
                                  "failed": sum(r["failed"] for r in runs)}
            for name in sorted(runs[0]["metrics"]) if runs else []:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                entry[key][name] = {
                    "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else 0.0,
                    "unit": runs[0]["metrics"][name]["unit"],
                    "samples_per_run": statistics.median(
                        r["metrics"][name]["samples"] for r in runs)}
        untraced = [r for r in reports if r["trace"] == 0] or reports
        for name in sorted(untraced[0]["properties"]):
            entry["properties"][name] = statistics.median(
                r["properties"][name] for r in untraced)
        summary[workload] = entry
    return summary


def load_summary(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("workloads", doc)


def diff(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    base, new = load_summary(base_path), load_summary(new_path)
    worse = False
    for workload in sorted(set(base) & set(new)):
        fb, fn = base[workload]["fingerprint"], new[workload]["fingerprint"]
        differing = [k for k in MACHINE_KEYS if fb.get(k) != fn.get(k)]
        if differing:
            print(f"{workload}: fingerprints differ, no deltas reported:")
            for k in differing:
                print(f"  {k}: {fb.get(k)!r} vs {fn.get(k)!r}")
            sys.exit(3)
        print(f"{workload} ({fb.get('git_sha')} -> {fn.get('git_sha')})")
        for name, (better, bound) in bounds.items():
            b, n = base[workload]["metrics"].get(name), new[workload]["metrics"].get(name)
            if b is None or n is None:
                continue
            change = (n["median"] - b["median"]) / b["median"]
            regressed = (change > bound) if better == "lower" else (-change > bound)
            unresolved = max(b["spread"], n["spread"]) > bound
            verdict = "WORSE" if regressed else ("unresolved" if unresolved else "ok")
            worse |= regressed
            print(f"  {name:16s} {b['median']:12.4f} -> {n['median']:12.4f} {n['unit']:5s}"
                  f" {change:+7.1%}  bound {bound:.0%}  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "summarize":
        json.dump(summarize(sys.argv[2:]), sys.stdout, indent=2)
        print()
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        diff(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
