#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 e2e-bench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build). Its standard output passes through unchanged; the last line
is the JSON result. A traced run (--trace 1) writes the Chrome trace and
the per-span table to <target dir>/e2e-bench-out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-grid", "plan-scaled", "serve-10k")
# A run must end well within the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def revision(root):
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(root.glob("crates/**/*")) + sorted(root.glob("compat/**/*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1

    header = {
        "nproc": len(os.sched_getaffinity(0)),
        "profile": "release",
        "revision": revision(root),
        "rustc": rustc_version(),
    }
    print("host  " + json.dumps(header), flush=True)
    cmd = [
        str(target / "release" / "e2e-bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(target / "e2e-bench-out"),
    ]
    # glibc moves its mmap threshold with the order of frees, which made
    # paper-grid's peak RSS land on 31 or 44 MB for one seed. Pinning the
    # threshold at its default start value makes VmHWM repeat run to run.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        return subprocess.run(cmd, env=run_env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
