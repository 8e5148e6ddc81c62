#!/usr/bin/env python3
"""The benchmark's output contract, on every workload at --quick size.

    test_trace.py PERFBENCH PERFBENCH_TRACE CHECK_TRACE_PY OUT_DIR

For each workload: the end-to-end run (perfbench) reports exactly
BENCHMARK.json's end_to_end metrics with their units, the traced run
(perfbench_trace) reports exactly its per_layer metrics, both pass the
correctness gate, and the traced run's Chrome trace passes the
repository's tools/check_trace.py.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def run(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return out.stdout


def check_result(stdout, expected, what):
    result = json.loads(stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{what}: unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{what}: gate failed: {result}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        sys.exit(f"{what}: metrics {got} != BENCHMARK.json {want}")


def main():
    binary, trace_binary, check_trace, out_dir = sys.argv[1:5]
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(out_dir, exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        args = ["--workload", name, "--seed", "3", "--seconds", "0.5",
                "--quick"]
        check_result(run([binary] + args), spec["end_to_end"],
                     name + " end to end")
        trace = os.path.join(out_dir, f"trace-{name}.json")
        check_result(
            run([trace_binary] + args + ["--trace-file", trace]),
            spec["per_layer"],
            name + " traced",
        )
        print(run([sys.executable, check_trace, trace]).strip())
    print("OK")


if __name__ == "__main__":
    main()
