#!/usr/bin/env python3
"""Build the rtlb library and the rtlbench harness from source, then run one
benchmark run and pass its output through.

usage: python3 rtlbench/run.py --workload many_small|few_large|session_deltas
           [--seed N] [--seconds S] [--trace 0|1] [--size full|small]
           [--expect-digest HEX] [--corrupt-request K] [--stale-request K]
           [--report PATH] [--spans PATH]

Run from anywhere; the build goes to .bench_build/rtlbench at the repo root.
The last line of stdout is the result object; the line before it is the full
report. With --seed 1 at full size the result digest is checked against the
one recorded in rtlbench/baseline.json. See rtlbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtlbench")
BINARY = os.path.join(BUILD, "rtlbench")
DEFAULT_SEED = 1


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rtlb sources at {os.path.join(ROOT, 'src')}")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured from another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_sha():
    """SHA-256 over the library sources (path and bytes of every file)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def recorded_digest(workload):
    with open(os.path.join(HERE, "baseline.json")) as f:
        return json.load(f)["digests"][workload]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["many_small", "few_large", "session_deltas"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full")
    parser.add_argument("--expect-digest")
    parser.add_argument("--corrupt-request", type=int)
    parser.add_argument("--stale-request", type=int)
    parser.add_argument("--report")
    parser.add_argument("--spans")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--git-sha", git_sha(), "--source-sha", source_sha()]
    expect = args.expect_digest
    if expect is None and args.seed == DEFAULT_SEED and args.size == "full":
        expect = recorded_digest(args.workload)
    if expect is not None:
        cmd += ["--expect-digest", expect]
    if args.corrupt_request is not None:
        cmd += ["--corrupt-request", str(args.corrupt_request)]
    if args.stale_request is not None:
        cmd += ["--stale-request", str(args.stale_request)]
    if args.report:
        cmd += ["--report", args.report]
    if args.trace == 1:
        spans = args.spans or os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")
        cmd += ["--spans", spans]
    # The library's debug cross-checks (a cold analyze() per session query, a
    # reference run per compute_windows()) would time a different program.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RTLB_SESSION_VERIFY", "RTLB_WINDOWS_REFERENCE")}
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
