#!/usr/bin/env python3
"""Tests for the telemetry validators trace_check.py and timeline_check.py.

Each case writes a small document (a well-formed one, or one with a single
defect), runs a checker on it and requires the exit status and message the
defect calls for: 0 for a well-formed document, 1 with "<tool>: FAIL:" and
the named violation otherwise.

Usage: check_tools_test.py [CASE ...]   (no CASE runs them all)
       check_tools_test.py --list
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))

STATES = ["idle", "switching", "robot", "locating", "reading", "rewinding",
          "background", "down"]


def timeline_doc():
    """Header, two sample rows and a matching summary."""
    header = {"kind": "header", "schema_version": 1, "interval_seconds": 10,
              "counters": ["issued", "completed"],
              "gauges": ["queue_depth"],
              "accums": ["state_" + s for s in STATES],
              "windows": ["delay"]}
    rows = []
    for i, (issued, completed, depth) in enumerate([(4, 2, 2), (7, 6, 1)]):
        accums = {"state_" + s: 0.0 for s in STATES}
        accums["state_reading"] = 6.0
        accums["state_idle"] = 4.0
        rows.append({"kind": "sample", "t": 10.0 * (i + 1),
                     "counters": {"issued": issued, "completed": completed},
                     "gauges": {"queue_depth": depth},
                     "accums": accums,
                     "windows": {"delay": {"count": 2, "p50": 3.0,
                                           "p99": 5.0}}})
    summary = {"kind": "summary", "timeline_samples": 2,
               "peak_queue_depth": 2, "worst_window_p99": 5.0,
               "final_counters": {"issued": 7, "completed": 6}}
    return [header] + rows + [summary]


def results_doc():
    """A results document whose one point matches timeline_doc()."""
    time_in_state = {s: 0.0 for s in STATES}
    time_in_state["reading"] = 12.0
    time_in_state["idle"] = 8.0
    return {"schema_version": 1, "bench": "check_tools_test",
            "extra_results": [{"result": {"time_in_state": [time_in_state]}}]}


def trace_doc():
    """Drive metadata, two drive-state slices and one completed request."""
    return {"traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
         "args": {"name": "drive 0"}},
        {"ph": "X", "name": "locating", "pid": 1, "tid": 1, "ts": 0,
         "dur": 5},
        {"ph": "b", "name": "request", "pid": 1, "tid": 2, "id": 1,
         "ts": 1},
        {"ph": "X", "name": "reading", "pid": 1, "tid": 1, "ts": 5,
         "dur": 5},
        {"ph": "e", "name": "request", "pid": 1, "tid": 2, "id": 1,
         "ts": 10, "args": {"outcome": "completed"}},
    ]}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def timeline_case(mutate=None, with_results=False, mutate_results=None):
    def build(workdir):
        records = timeline_doc()
        if mutate is not None:
            mutate(records)
        path = os.path.join(workdir, "timeline.jsonl")
        write_jsonl(path, records)
        args = ["timeline_check.py", path]
        if with_results:
            doc = results_doc()
            if mutate_results is not None:
                mutate_results(doc)
            results = os.path.join(workdir, "results.json")
            write_json(results, doc)
            args += ["--results", results]
        return args
    return build


def trace_case(mutate=None):
    def build(workdir):
        doc = trace_doc()
        if mutate is not None:
            mutate(doc["traceEvents"])
        path = os.path.join(workdir, "trace.json")
        write_json(path, doc)
        return ["trace_check.py", path]
    return build


def drop_summary(records):
    records.pop()


def rewind_second_sample(records):
    records[2]["t"] = records[1]["t"]


def unknown_row_kind(records):
    records.insert(2, dict(copy.deepcopy(records[1]), kind="bogus"))


def unsort_timestamps(events):
    events[3]["ts"] = 0.5  # the reading slice now precedes the span start


def unknown_phase(events):
    events.insert(1, {"ph": "Q", "name": "mystery", "pid": 1, "tid": 1,
                      "ts": 0})


def shift_reading_time(doc):
    doc["extra_results"][0]["result"]["time_in_state"][0]["reading"] += 1.0


# name -> (document builder, exit status, substring of the failure message)
CASES = {
    "timeline_valid": (timeline_case(with_results=True), 0, None),
    "timeline_missing_summary":
        (timeline_case(drop_summary), 1, "last line is not a summary"),
    "timeline_non_monotone_time":
        (timeline_case(rewind_second_sample), 1, "does not increase"),
    "timeline_unknown_row_kind":
        (timeline_case(unknown_row_kind), 1, "expected a sample row"),
    "timeline_time_in_state_mismatch":
        (timeline_case(with_results=True,
                       mutate_results=shift_reading_time),
         1, "state_reading sums to"),
    "trace_valid": (trace_case(), 0, None),
    "trace_non_monotone_time":
        (trace_case(unsort_timestamps), 1, "stream not sorted"),
    "trace_unknown_event_kind":
        (trace_case(unknown_phase), 1, "unknown phase"),
}


def run_case(name):
    build, want_status, want_message = CASES[name]
    with tempfile.TemporaryDirectory() as workdir:
        args = build(workdir)
        tool = args[0][:-len(".py")]
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, args[0])] + args[1:],
            capture_output=True, text=True, check=False)
    output = proc.stdout + proc.stderr
    if proc.returncode != want_status:
        return "exit %d, want %d:\n%s" % (proc.returncode, want_status,
                                          output)
    if want_message is not None:
        prefix = "%s: FAIL: " % tool
        if not proc.stderr.startswith(prefix) or want_message not in output:
            return "want %r after %r, got:\n%s" % (want_message, prefix,
                                                   output)
    return None


def main():
    if sys.argv[1:] == ["--list"]:
        print("\n".join(CASES))
        return 0
    names = sys.argv[1:] or list(CASES)
    failed = 0
    for name in names:
        if name not in CASES:
            print("unknown case %r" % name, file=sys.stderr)
            return 2
        error = run_case(name)
        print("%s %s" % ("FAIL" if error else "ok  ", name))
        if error:
            print(error)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
