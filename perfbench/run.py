#!/usr/bin/env python3
"""Builds and runs the election benchmark.

Usage, from the repository root:
    python3 perfbench/run.py --workload <collect|tcp-collect|tally>
        --seed <n> --seconds <s> --trace <0|1>

Builds the library, the node binary and the benchmark (Release, CMake)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints a host stamp line, a notes line and, as the last line
of standard output, the JSON result. Build output goes to standard error.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def cpu_times():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user/nice
    return steal, sum(fields[:8])


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_hash(root):
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    out_dir = os.path.join(build_dir, "out")

    steal0, total0 = cpu_times()
    load0 = loadavg()
    t0 = time.time()
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    steal1, total1 = cpu_times()

    stamp = {
        "nproc": os.cpu_count(),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": first_line([cache_value(build_dir, "CMAKE_CXX_COMPILER"),
                                "--version"]),
        "git_commit": first_line(["git", "-C", root, "rev-parse", "HEAD"]),
        "source_sha256": source_hash(root),
        "seed": args.seed,
        "steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "loadavg_1m_start": load0,
        "loadavg_1m_end": loadavg(),
        "wall_s": time.time() - t0,
    }
    print("stamp " + json.dumps(stamp))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        log(f"run failed with exit code {proc.returncode}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
