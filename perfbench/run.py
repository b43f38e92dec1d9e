#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
library from ../src) and runs one workload:

    python3 perfbench/run.py --workload <plan-cold|serve-backlog|churn-steady>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the root; a traced run also writes its spans there.
Build logs and the binary's progress go to stderr; stdout carries the
plan/stats fingerprints and, as its last line, one JSON object
{correct, attempted, failed, metrics}.  Exits non-zero without a result
when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-cold", "serve-backlog", "churn-steady")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cached_source(build):
    """Source dir a previous configure used, or None."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (compilers under cmake, too) is killed and reaped before re-raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build():
    """Configure + build the binary; returns its path (raises on failure)."""
    out = build_dir()
    if cached_source(out) not in (None, HERE):
        shutil.rmtree(out)  # the checkout moved: start over
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    make = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]
    for cmd in (configure, make):
        run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(os.path.dirname(build_dir()), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--spans", spans]
    try:
        out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        lines = out.splitlines()
    except subprocess.SubprocessError as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if not lines:
        print("perfbench: the run printed nothing", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
