#!/usr/bin/env python3
"""Golden-output check: the simulated output of every study, pinned.

Each case reruns ``cdcs_studies`` at the CI-tiny methodology
(``CDCS_EPOCH_ACCESSES=2000 CDCS_EPOCHS=3 CDCS_WARMUP=1 CDCS_MIXES=1``;
every other ``CDCS_*`` variable is cleared) and byte-compares its
stdout with a file under ``tests/golden/``. There are four kinds of
case:

* one per study that prints no wall-clock column (all but table3),
  plus fig11 and fig12 at two mixes;
* ``all_json``: the ``run all --format=json`` document, which carries
  all 24 studies at full precision and no wall-clock value;
* ``noc_sensitivity_stats``: noc_sensitivity's JSON document under
  ``stats=1``, which pins its 20 per-scheme metrics traces;
* derived cases, which add knobs to a base case and must reproduce its
  golden byte for byte: off-state cases name the defaults explicitly
  (or set a subsystem's dependent knobs while it is off), and
  ``all_json_serial`` and ``all_json_workers3`` rerun ``all_json`` on
  1 and 3 workers.

The output is a pure function of the config for any worker count; the
two worker cases check that, and every other case runs at the default
worker count.

Usage:
    golden.py --studies BUILD/cdcs_studies [CASE...]   check (all if none)
    golden.py --studies BUILD/cdcs_studies --update [CASE...]
        rewrite the golden files of the named (or all) base cases, so an
        intended change to the output shows up as a reviewable diff
    golden.py --list                                    print case names

No third-party imports.
"""

import argparse
import difflib
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "golden")

TINY_ENV = {
    "CDCS_EPOCH_ACCESSES": "2000",
    "CDCS_EPOCHS": "3",
    "CDCS_WARMUP": "1",
    "CDCS_MIXES": "1",
}

# table3 prints a wall-clock table, so only all_json pins it.
TEXT_STUDIES = [
    "ablation_numa", "ablation_stability", "elasticity", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig2", "fig5", "mem_placement", "noc_heatmap", "noc_sensitivity",
    "placement_contention", "skew_sweep", "table1", "tiering",
    "vic_bankgrain", "vic_monitors", "vic_placers",
]


def sets(*pairs):
    args = []
    for pair in pairs:
        args += ["--set", pair]
    return args


# Base cases: name -> (cdcs_studies arguments, golden file).
BASE = {study: (["run", study], study + ".txt") for study in TEXT_STUDIES}
BASE["fig11_mixes2"] = (["run", "fig11"] + sets("mixes=2"),
                        "fig11_mixes2.txt")
BASE["fig12_mixes2"] = (["run", "fig12"] + sets("mixes=2"),
                        "fig12_mixes2.txt")
BASE["all_json"] = (["run", "all", "--format=json"], "all.json")
BASE["noc_sensitivity_stats"] = (
    ["run", "noc_sensitivity", "--format=json"] + sets("stats=1"),
    "noc_sensitivity_stats.json")

# Derived cases: name -> (base case, extra knobs).
DERIVED = {
    # The default network model is the zero-load adapter, and the
    # contention-aware placement oracle carries no waits under it.
    "fig11_mixes2_explicit_zero_load": ("fig11_mixes2",
                                        sets("noc=zero-load")),
    "fig11_mixes2_pinned_cost": ("fig11_mixes2",
                                 sets("placementCost=zero-load")),
    "fig12_mixes2_pinned_cost": ("fig12_mixes2",
                                 sets("placementCost=zero-load")),
    "fig11_mixes2_explicit_interleave": ("fig11_mixes2",
                                         sets("memPlacement=interleave")),
    # farMemRatio=0 keeps every other far-tier knob dead.
    "fig11_mixes2_far_tier_off": ("fig11_mixes2", sets(
        "farMemRatio=0", "memTiering=hotness", "farMemLatency=900",
        "farMemChannels=1", "farMemLinesPerCycle=0.05")),
    "fig11_mixes2_traffic_off": ("fig11_mixes2", sets(
        "skewAlpha=0", "churn=", "skewDriftEpochs=0", "skewPageHot=0")),
    "noc_sensitivity_obs_off": ("noc_sensitivity", sets(
        "stats=0", "statsEvery=1", "trace=")),
    # Results do not depend on how the pool schedules the jobs.
    "all_json_serial": ("all_json", sets("workers=1")),
    "all_json_workers3": ("all_json", sets("workers=3")),
}


def case_args(name):
    """(cdcs_studies arguments, golden file) of one case."""
    if name in BASE:
        return BASE[name]
    base, extra = DERIVED[name]
    args, golden = BASE[base]
    return args + extra, golden


def run_case(studies, name):
    args, _ = case_args(name)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CDCS_")}
    env.update(TINY_ENV)
    proc = subprocess.run([studies] + args, env=env, capture_output=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.exit(f"{name}: cdcs_studies {' '.join(args)} exited "
                 f"{proc.returncode}")
    return proc.stdout


def check(studies, name):
    args, golden = case_args(name)
    path = os.path.join(GOLDEN_DIR, golden)
    with open(path, "rb") as f:
        want = f.read()
    got = run_case(studies, name)
    if got == want:
        print(f"{name}: ok ({len(got)} bytes match {golden})")
        return True
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        fromfile=golden, tofile="cdcs_studies " + " ".join(args),
        lineterm="", n=1)
    print(f"{name}: output differs from {golden}")
    for i, line in enumerate(diff):
        if i == 60:
            print("... (diff truncated)")
            break
        print(line)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--studies", help="path to the cdcs_studies binary")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden files of base cases")
    ap.add_argument("--list", action="store_true",
                    help="print every case name")
    ap.add_argument("cases", nargs="*")
    opts = ap.parse_args()

    if opts.list:
        print("\n".join(list(BASE) + list(DERIVED)))
        return 0
    if not opts.studies:
        ap.error("--studies is required")
    unknown = [c for c in opts.cases if c not in BASE and c not in DERIVED]
    if unknown:
        ap.error(f"unknown case(s): {', '.join(unknown)}")

    if opts.update:
        names = opts.cases or list(BASE)
        derived = [c for c in names if c in DERIVED]
        if derived:
            ap.error(f"derived cases have no file of their own: "
                     f"{', '.join(derived)}")
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for name in names:
            _, golden = BASE[name]
            with open(os.path.join(GOLDEN_DIR, golden), "wb") as f:
                f.write(run_case(opts.studies, name))
            print(f"{name}: wrote {golden}")
        return 0

    names = opts.cases or list(BASE) + list(DERIVED)
    failed = [name for name in names if not check(opts.studies, name)]
    if failed:
        print(f"{len(failed)} golden case(s) differ: {', '.join(failed)}; "
              f"if the change is intended, rerun with --update and "
              f"review the diff")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
