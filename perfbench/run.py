#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smr_failover --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later runs reuse the build. Build
output goes to standard error, so the last line of standard output is the
benchmark's result object. The exit status is the benchmark's: non-zero,
with no result printed, when the build or any integrity check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("smr_failover", "fd_mesh", "report_sweep", "wire_replay")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources (the checkout has no git metadata)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "hds_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "hds_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
