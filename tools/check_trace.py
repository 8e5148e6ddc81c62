#!/usr/bin/env python3
"""Validate observability artifacts: Chrome traces and metrics traces.

Accepts any mix of the two artifact flavors the observability layer
(ARCHITECTURE.md "Observability") produces and sniffs each file's
kind from its JSON shape:

* **Chrome trace-event JSON** (``--set trace=FILE`` / ``CDCS_TRACE``):
  a top-level array (or ``{"traceEvents": [...]}``) of ``B``/``E``/
  ``i``/``M`` events. Checked per track (pid, tid): timestamps
  monotonically non-decreasing, begin/end events balanced and
  properly nested (matching names), instants carrying a scope.

* **Metrics trace** (``metrics_trace_*.json`` artifacts, schema
  ``cdcs-metrics-trace-v1``, exported when ``--set stats=`` selects
  registry counters): the per-epoch record stream is checked for
  contiguous epochs, non-negative metrics, stats rows matching the
  declared column names in length, and (when ``noc.link_flits`` is a
  column) a nonzero last sampled epoch whenever an earlier one
  carried NoC traffic: the final epoch's flits must not go uncounted.

No third-party imports, so CI can run it anywhere.

Usage:
    check_trace.py [--expect-workers N] artifact.json...
"""

import argparse
import json
import sys

METRICS_SCHEMA = "cdcs-metrics-trace-v1"
RECORD_KEYS = {"epoch", "active", "delta", "aggIpc", "moves", "movedLines"}


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def check_metrics_trace(path, doc):
    """Validate one cdcs-metrics-trace-v1 document; returns summary."""
    for key in ("scheme", "stats", "trace"):
        if key not in doc:
            fail(path, f"missing key '{key}'")
    names = doc["stats"]
    if not isinstance(names, list) or not all(
        isinstance(n, str) for n in names
    ):
        fail(path, "'stats' must be a list of column names")
    trace = doc["trace"]
    if not isinstance(trace, list):
        fail(path, "'trace' must be a list of epoch records")
    sampled = []
    for i, rec in enumerate(trace):
        missing = RECORD_KEYS - rec.keys()
        if missing:
            fail(path, f"record {i} missing keys {sorted(missing)}")
        if rec["epoch"] != i:
            fail(path, f"record {i} has epoch {rec['epoch']}")
        if rec["aggIpc"] < 0 or rec["moves"] < 0 or rec["movedLines"] < 0:
            fail(path, f"record {i} has a negative metric")
        if "stats" in rec:
            # A sampled epoch carries one value per declared column.
            if len(rec["stats"]) != len(names):
                fail(
                    path,
                    f"record {i} has {len(rec['stats'])} stat values "
                    f"for {len(names)} columns",
                )
            if any(v < 0 for v in rec["stats"]):
                fail(path, f"record {i} has a negative stat value")
            sampled.append(rec["stats"])
    if names and trace and not sampled:
        fail(path, "declares stat columns but samples no epoch")
    if "noc.link_flits" in names:
        col = names.index("noc.link_flits")
        flits = [row[col] for row in sampled]
        if any(flits[:-1]) and flits[-1] == 0:
            fail(
                path,
                "last sampled epoch has 0 noc.link_flits after "
                "earlier epochs carried traffic",
            )
    return (
        f"metrics trace: scheme {doc['scheme']}, {len(trace)} epochs, "
        f"{len(sampled)} sampled, {len(names)} stat columns"
    )


def check_chrome_trace(path, events):
    """Validate a Chrome trace-event array; returns a summary line."""
    tracks = {}  # (pid, tid) -> {"last_ts", "stack", "events"}
    names = {}  # (pid, tid) -> thread name
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(path, f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(path, f"event {i} missing key '{key}'")
        ph = ev["ph"]
        track = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev["name"] == "thread_name":
                names[track] = ev.get("args", {}).get("name", "")
            continue
        if ph not in ("B", "E", "i"):
            fail(path, f"event {i} has unknown phase '{ph}'")
        if "ts" not in ev:
            fail(path, f"event {i} missing key 'ts'")
        state = tracks.setdefault(
            track, {"last_ts": None, "stack": [], "events": 0}
        )
        ts = float(ev["ts"])
        if state["last_ts"] is not None and ts < state["last_ts"]:
            fail(
                path,
                f"event {i}: timestamp {ts} < {state['last_ts']} "
                f"on track {track}",
            )
        state["last_ts"] = ts
        state["events"] += 1
        if ph == "B":
            state["stack"].append(ev["name"])
        elif ph == "E":
            if not state["stack"]:
                fail(path, f"event {i}: 'E' with no open span on {track}")
            opened = state["stack"].pop()
            if opened != ev["name"]:
                fail(
                    path,
                    f"event {i}: 'E' for '{ev['name']}' but innermost "
                    f"open span is '{opened}'",
                )
        elif ph == "i" and "s" not in ev:
            fail(path, f"event {i}: instant without a scope")
    for track, state in tracks.items():
        if state["stack"]:
            fail(
                path,
                f"track {track} ends with unclosed span(s) "
                f"{state['stack']}",
            )
    workers = sum(
        1 for t in tracks if names.get(t, "").startswith("worker-")
    )
    total = sum(s["events"] for s in tracks.values())
    return (
        f"chrome trace: {total} events on {len(tracks)} track(s), "
        f"{workers} worker track(s)"
    ), workers


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifacts", nargs="+", help="trace JSON files")
    parser.add_argument(
        "--expect-workers",
        type=int,
        metavar="N",
        help="require at least N named worker tracks across the "
        "Chrome traces",
    )
    args = parser.parse_args()

    max_workers = 0
    saw_chrome = False
    for path in args.artifacts:
        with open(path, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                fail(path, f"invalid JSON: {e}")
        if isinstance(doc, dict) and doc.get("schema") == METRICS_SCHEMA:
            summary = check_metrics_trace(path, doc)
        else:
            events = (
                doc.get("traceEvents") if isinstance(doc, dict) else doc
            )
            if not isinstance(events, list):
                fail(path, "neither a metrics trace nor a Chrome trace")
            summary, workers = check_chrome_trace(path, events)
            saw_chrome = True
            max_workers = max(max_workers, workers)
        print(f"{path}: {summary}")

    if args.expect_workers is not None:
        if not saw_chrome:
            sys.exit("--expect-workers given but no Chrome trace checked")
        if max_workers < args.expect_workers:
            sys.exit(
                f"expected >= {args.expect_workers} worker tracks, "
                f"saw {max_workers}"
            )
    print(f"{len(args.artifacts)} artifact(s) OK")


if __name__ == "__main__":
    main()
