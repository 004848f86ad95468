#!/usr/bin/env python3
"""Build and run nullbench, the nullgraph benchmark, on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the benchmark (Release) into .bench_build/ in the checkout;
later calls reuse that build. Standard output carries the benchmark's
report and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. The traced run (--trace 1) also writes a
Perfetto-loadable trace to .bench_build/trace-<workload>-<seed>.json.
Exits non-zero, without a result line, when the build or the run fails.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

CONFIGURE_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it. Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: timed out after {timeout} s: {' '.join(cmd)}",
              file=sys.stderr)
        return 124, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build() -> pathlib.Path | None:
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # The Makefile appears only when a configure step succeeded.
        if not (BUILD / "Makefile").exists():
            code, _ = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                           "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                          CONFIGURE_TIMEOUT_S, stdout=sys.stderr)
            if code != 0:
                return None
        code, _ = run(["cmake", "--build", str(BUILD), "--target", "nullbench",
                       "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S,
                      stdout=sys.stderr)
    binary = BUILD / "nullbench"
    return binary if code == 0 and binary.exists() else None


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    trace_out = BUILD / f"trace-{args.workload}-{args.seed}.json"
    code, out = run([str(binary), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--trace-out", str(trace_out),
                     "--git-sha", git_sha()],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = (out or "").rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out or "")
        print(f"run.py: nullbench exited with code {code}", file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: no result line: {lines[-1]}", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
