#!/usr/bin/env python3
"""Builds the DPU-v2 serving benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve_closed|serve_open|paper_suite_cold> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is a Cargo package of its own (perfbench/Cargo.toml) built in
release mode into $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result object; the line before it is the run's
metadata. Per-run records, traces and temporary spill directories go under
<target dir>/perfbench-out. Exits non-zero, without a result, if the build
or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_closed", "serve_open", "paper_suite_cold")
RUN_TIMEOUT_S = 175


def source_digest():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in fs
        ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.exit("error: the DPU-v2 sources (crates/) are not next to perfbench/")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"error: building the benchmark failed ({build.returncode})")

    env["DPU_BENCH_COMMIT"] = source_digest()
    cmd = [
        os.path.join(target, "release", "dpu-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench-out"),
    ]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit(f"error: the run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        child.kill()
        child.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
