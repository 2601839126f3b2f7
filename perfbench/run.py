#!/usr/bin/env python3
"""One run of the wall-clock lease-service benchmark.

    python3 perfbench/run.py --workload renew-closed --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
incrementally. The run prints its context, its checks and every metric by
name with its unit, and as its last line one JSON object with the keys
correct, attempted, failed and metrics. It exits 0 when every check passed,
1 when one failed, and 2 or 3 without a result when it could not build or
run. NOTES.md explains the workloads and metrics.
"""

import argparse
import fcntl
import glob
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("renew-closed", "renew-durable", "license-checks")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "lease", "remote_shard.cpp")):
        fail("repository sources not found under src/; run from a source tree")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "lease_bench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "lease_bench")


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def context(root, build_dir):
    flags = set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    compiler = "unknown"
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as text:
            body = text.read()
        found = dict(re.findall(r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)', body))
        if found:
            compiler = f"{found.get('ID', '?')} {found.get('VERSION', '?')}"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        probe = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_aes": "aes" in flags,
        "cpu_sha_ni": "sha_ni" in flags,
        "cpu_avx2": "avx2" in flags,
        "compiler": compiler,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 3)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"lease_bench exited {run.returncode} without output", 3)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"lease_bench exited {run.returncode} without a result line", 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 3)

    for key, value in context(root, build_dir).items():
        print(f"context {key} {value}")
    for line in lines:
        print(line)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
