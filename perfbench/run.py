#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package that compiles the simulator from
the source tree) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the end-to-end
binary `perfbench` (--trace 0) or the traced `perfbench_trace`
(--trace 1), building only the one it runs. --seconds defaults to
BENCHMARK.json's run_seconds. Build output goes to stderr; the
benchmark's last stdout line is the JSON result; the traced run's
Chrome trace goes to .bench_out/. Exits non-zero, printing no result,
when the build fails.

compare.py reuses build() to build the end-to-end binary against
another source tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def default_build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build"
    )
    return os.path.join(os.path.abspath(base), "perfbench")


def code_version(src):
    """`git describe` of the measured tree, or 'unknown' outside git."""
    if not os.path.exists(os.path.join(src, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", src, "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(src, build_dir, target="perfbench"):
    """Configure and build one benchmark binary; returns its path."""
    cmd = [
        "cmake",
        "-S",
        BENCH_DIR,
        "-B",
        build_dir,
        "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
        "-DCDCS_ROOT=" + os.path.abspath(src),
    ]
    if shutil.which("ninja") and not os.path.exists(
        os.path.join(build_dir, "CMakeCache.txt")
    ):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(
        [
            "cmake",
            "--build",
            build_dir,
            "--target",
            target,
            "-j",
            str(os.cpu_count() or 1),
        ],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, target)


def run_seconds():
    """BENCHMARK.json's run_seconds, the one run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return str(json.load(f)["run_seconds"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    target = "perfbench_trace" if args.trace == "1" else "perfbench"
    try:
        seconds = args.seconds or run_seconds()
        binary = build(ROOT, default_build_dir(), target)
    except (OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: cannot build {target}: {e}")

    cmd = [
        binary,
        "--workload",
        args.workload,
        "--seed",
        args.seed,
        "--seconds",
        seconds,
        "--code-version",
        code_version(ROOT),
    ]
    if args.trace == "1":
        cmd += [
            "--trace-file",
            os.path.join(
                ROOT,
                ".bench_out",
                f"trace-{args.workload}-seed{args.seed}.json",
            ),
        ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
