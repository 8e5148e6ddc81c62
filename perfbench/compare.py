#!/usr/bin/env python3
"""Paired parent/change comparison with the benchmark (README.md).

    python3 perfbench/compare.py --parent DIR --change DIR \
        [--workload NAME]... [--held-out]

Builds this benchmark's end-to-end binary, which uses only the
simulator's stable API, against both source trees, then runs ten
parent/change pairs per workload, alternating which side runs first,
each pair on its own seed. Per end-to-end metric it
reports each side's median and quartiles, the pair wins, and a
verdict by this rule:

* gain: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  inter-quartile spread;
* regression: the change's median is worse than the parent's by more
  than the bound;
* unresolved: neither, and either side's inter-quartile spread, as a
  share of its median, exceeds the metric's bound (unless every
  change run beats every parent run);
* within-bound: otherwise.

--held-out draws the seeds from a range kept out of development, for
the run that backs a claim.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (the build helpers)

PAIRS = 10
DEV_SEED_BASE = 1
HELD_OUT_SEED_BASE = 1_000_003


def judge(parent, change, better, bound):
    """Verdict for one metric from paired samples (same order)."""
    n = len(parent)
    if n < PAIRS or len(change) != n:
        raise ValueError("need at least ten complete pairs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    p_iqr = p_q3 - p_q1
    spread = max(
        p_iqr / abs(p_med) if p_med else float("inf"),
        (c_q3 - c_q1) / abs(c_med) if c_med else float("inf"),
    )
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    separated = (
        min(change) > max(parent)
        if better == "higher"
        else max(change) < min(parent)
    )
    if wins >= 0.9 * n and sign * (c_med - p_med) > p_iqr:
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    return {
        "verdict": verdict,
        "wins": wins,
        "pairs": n,
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "spread": spread,
        "worse": worse,
    }


def run_side(binary, src, workload, seed, seconds):
    cmd = [
        binary,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--code-version",
        run.code_version(src),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{src}: {workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{src}: {workload} seed {seed} failed the gate")
    host = next((ln for ln in lines if ln.startswith("host: nproc")), "")
    return result["metrics"], host


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", required=True, help="parent tree")
    parser.add_argument("--change", required=True, help="changed tree")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base = HELD_OUT_SEED_BASE if args.held_out else DEV_SEED_BASE

    sides = {}
    for side in ("parent", "change"):
        src = os.path.abspath(getattr(args, side))
        binary = run.build(
            src, os.path.join(ROOT, ".bench_build", "compare", side)
        )
        sides[side] = (binary, src)

    for workload in workloads:
        samples = {"parent": [], "change": []}
        hosts = set()
        for i in range(PAIRS):
            order = ("parent", "change")
            for side in order if i % 2 == 0 else reversed(order):
                binary, src = sides[side]
                metrics, host = run_side(
                    binary, src, workload, base + i, seconds
                )
                samples[side].append(metrics)
                hosts.add(host.split(" code=")[0])
        if len(hosts) != 1:
            print(f"warning: host stamps differ: {sorted(hosts)}")
        print(
            f"== {workload}: {PAIRS} pairs, seeds {base}.."
            f"{base + PAIRS - 1}, alternating order =="
        )
        print(
            f"{'metric':<20} {'parent median [q1, q3]':>40} "
            f"{'change median [q1, q3]':>40} {'wins':>6} {'spread':>7} "
            f"{'bound':>6}  verdict"
        )
        verdicts = set()
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [s[name]["value"] for s in samples["parent"]]
            c = [s[name]["value"] for s in samples["change"]]
            r = judge(p, c, m["better"], m["bound"])
            verdicts.add(r["verdict"])
            fmt = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(
                f"{name:<20} {fmt.format(*r['parent']):>40} "
                f"{fmt.format(*r['change']):>40} "
                f"{r['wins']:>3}/{r['pairs']:<2} {r['spread']:>7.3f} "
                f"{m['bound']:>6}  {r['verdict']}"
            )
        overall = next(
            v
            for v in ("regression", "unresolved", "gain", "within-bound")
            if v in verdicts
        )
        print(f"{workload}: {overall}\n")


if __name__ == "__main__":
    main()
