#!/usr/bin/env python3
"""Validate a timeline JSONL file written by the simulator.

Checks the structural invariants docs/OBSERVABILITY.md promises:

  * line 1 is a header announcing schema_version 1, a positive sampling
    interval, and the counter/gauge/accum/window name lists;
  * every following line but the last is a sample row whose stat maps
    carry exactly the announced names;
  * sample times are finite, positive, and strictly increasing per box
    (farm timelines interleave boxes; standalone rows use box -1);
  * counters are non-negative and non-decreasing per box; gauges are
    finite; accum deltas are non-negative (within float tolerance);
  * windows carry count >= 0 and p50 <= p99 whenever count > 0;
  * the last line is a summary whose timeline_samples equals the row
    count and whose peak_queue_depth / worst_window_p99 / final_counters
    match a recomputation from the rows (final counters sum the last row
    of every box).

With --results RESULTS.json, cross-checks the summary's final counters
against the whole-run conservation totals of the results document (e.g.
cumulative shed in the timeline == shed_requests in results JSON), and
each state_<name> accum summed over the rows against that state's
time_in_state seconds summed over the document's drives.

Usage: timeline_check.py TIMELINE.jsonl [--results RESULTS.json]
                         [--point N]
Exits nonzero with a message on the first violation.
"""

import argparse
import math

from tjcheck_lib import fail as lib_fail
from tjcheck_lib import iter_jsonl, load_json_file, results_point

TOOL = "timeline_check"

# Accum deltas subtract consecutive cumulative doubles; allow float noise.
ACCUM_EPSILON = 1e-6
# Summed state accums match the results' time-in-state up to the rounding
# of the per-row deltas.
STATE_RTOL = 1e-9
# Summary peaks are recomputed from the rows' serialized doubles, which
# round-trip exactly; equality should be exact, but compare with a tiny
# relative tolerance to stay robust to repr differences.
PEAK_RTOL = 1e-12

# (timeline counter name, results JSON key). Keys absent from the
# document (their gating block was off) imply a zero total.
RESULTS_KEYS = [
    ("issued", "issued_requests"),
    ("completed", "completed_total"),
    ("failed", "failed_requests"),
    ("expired", "expired_requests"),
    ("shed", "shed_requests"),
]


def fail(message):
    lib_fail(TOOL, message)


def is_finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def check_names(where, mapping, names, kind):
    if not isinstance(mapping, dict):
        fail("%s: %s is not an object" % (where, kind))
    if list(mapping.keys()) != names:
        fail("%s: %s names %s do not match header %s"
             % (where, kind, sorted(mapping.keys()), sorted(names)))


def check_timeline(path):
    records = list(iter_jsonl(TOOL, path))
    if len(records) < 3:
        fail("%s: need at least a header, one sample, and a summary "
             "(%d lines)" % (path, len(records)))

    number, header = records[0]
    if header.get("kind") != "header":
        fail("%s:%d: first line is not a header" % (path, number))
    if header.get("schema_version") != 1:
        fail("%s:%d: unknown schema_version %r"
             % (path, number, header.get("schema_version")))
    interval = header.get("interval_seconds")
    if not is_finite_number(interval) or interval <= 0:
        fail("%s:%d: bad interval_seconds %r" % (path, number, interval))
    names = {}
    for kind in ("counters", "gauges", "accums", "windows"):
        kind_names = header.get(kind)
        if (not isinstance(kind_names, list)
                or not all(isinstance(n, str) for n in kind_names)):
            fail("%s:%d: header %s is not a list of names"
                 % (path, number, kind))
        names[kind] = kind_names

    number, summary = records[-1]
    if summary.get("kind") != "summary":
        fail("%s:%d: last line is not a summary" % (path, number))

    samples = 0
    state_totals = {name: 0.0 for name in names["accums"]
                    if name.startswith("state_")}
    last_t = {}         # box -> last sample time
    last_counters = {}  # box -> last cumulative counter values
    boxes = []          # box ids in first-row order
    peak_queue_depth = 0.0
    worst_window_p99 = 0.0

    for number, row in records[1:-1]:
        where = "%s:%d" % (path, number)
        if row.get("kind") != "sample":
            fail("%s: expected a sample row, got kind %r"
                 % (where, row.get("kind")))
        samples += 1

        t = row.get("t")
        if not is_finite_number(t) or t < 0:
            fail("%s: bad sample time %r" % (where, t))
        box = row.get("box", -1)
        if not isinstance(box, int) or isinstance(box, bool):
            fail("%s: bad box %r" % (where, box))
        if box in last_t and t <= last_t[box]:
            fail("%s: sample time %r does not increase (previous %r, "
                 "box %d)" % (where, t, last_t[box], box))
        last_t[box] = t

        counters = row.get("counters")
        check_names(where, counters, names["counters"], "counters")
        if box not in last_counters:
            boxes.append(box)
            last_counters[box] = {name: 0 for name in names["counters"]}
        for name in names["counters"]:
            value = counters[name]
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                fail("%s: counter %s has bad value %r"
                     % (where, name, value))
            if value < last_counters[box][name]:
                fail("%s: counter %s decreased from %d to %d (box %d)"
                     % (where, name, last_counters[box][name], value, box))
            last_counters[box][name] = value

        gauges = row.get("gauges")
        check_names(where, gauges, names["gauges"], "gauges")
        for name in names["gauges"]:
            if not is_finite_number(gauges[name]):
                fail("%s: gauge %s has bad value %r"
                     % (where, name, gauges[name]))
        if "queue_depth" in gauges:
            peak_queue_depth = max(peak_queue_depth, gauges["queue_depth"])

        accums = row.get("accums")
        check_names(where, accums, names["accums"], "accums")
        for name in names["accums"]:
            delta = accums[name]
            if not is_finite_number(delta) or delta < -ACCUM_EPSILON:
                fail("%s: accum %s has bad delta %r" % (where, name, delta))
            if name in state_totals:
                state_totals[name] += delta

        windows = row.get("windows")
        check_names(where, windows, names["windows"], "windows")
        for name in names["windows"]:
            window = windows[name]
            if not isinstance(window, dict):
                fail("%s: window %s is not an object" % (where, name))
            count = window.get("count")
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                fail("%s: window %s has bad count %r" % (where, name, count))
            p50 = window.get("p50")
            p99 = window.get("p99")
            if not is_finite_number(p50) or not is_finite_number(p99):
                fail("%s: window %s has bad quantiles p50=%r p99=%r"
                     % (where, name, p50, p99))
            if count > 0:
                if p50 > p99:
                    fail("%s: window %s has p50 %r > p99 %r"
                         % (where, name, p50, p99))
                worst_window_p99 = max(worst_window_p99, p99)

    where = "%s:%d" % (path, records[-1][0])
    if summary.get("timeline_samples") != samples:
        fail("%s: summary timeline_samples %r != %d sample rows"
             % (where, summary.get("timeline_samples"), samples))
    num_boxes = summary.get("boxes")
    if num_boxes is not None and num_boxes != len(boxes):
        fail("%s: summary boxes %r != %d boxes seen in rows"
             % (where, num_boxes, len(boxes)))

    def close_to(a, b):
        return abs(a - b) <= PEAK_RTOL * max(1.0, abs(a), abs(b))

    if not is_finite_number(summary.get("peak_queue_depth")) \
            or not close_to(summary["peak_queue_depth"], peak_queue_depth):
        fail("%s: summary peak_queue_depth %r != recomputed %r"
             % (where, summary.get("peak_queue_depth"), peak_queue_depth))
    if not is_finite_number(summary.get("worst_window_p99")) \
            or not close_to(summary["worst_window_p99"], worst_window_p99):
        fail("%s: summary worst_window_p99 %r != recomputed %r"
             % (where, summary.get("worst_window_p99"), worst_window_p99))

    final = summary.get("final_counters")
    check_names(where, final, names["counters"], "final_counters")
    for name in names["counters"]:
        total = sum(last_counters[box][name] for box in boxes)
        if final[name] != total:
            fail("%s: summary final counter %s = %r, but the boxes' last "
                 "rows sum to %d" % (where, name, final[name], total))

    return samples, len(boxes), final, state_totals


def check_time_in_state(results_path, point, result, state_totals):
    drives = result.get("time_in_state")
    if not state_totals or not isinstance(drives, list) or not drives:
        return 0
    for name, total in sorted(state_totals.items()):
        state = name[len("state_"):]
        expected = sum(drive.get(state, 0) for drive in drives)
        if abs(total - expected) > STATE_RTOL * max(1.0, abs(expected)):
            fail("timeline %s sums to %r, but time_in_state %s in %s point "
                 "%d sums to %r over %d drives"
                 % (name, total, state, results_path, point, expected,
                    len(drives)))
    return len(state_totals)


def check_results(results_path, point, final_counters, state_totals):
    doc = load_json_file(TOOL, results_path)
    result = results_point(TOOL, doc, point)
    checkable = [key for _, key in RESULTS_KEYS if key in result]
    for counter, key in RESULTS_KEYS:
        # Without any conservation block there is no total to compare.
        if counter not in final_counters or not checkable:
            continue
        expected = result.get(key, 0)
        if final_counters[counter] != expected:
            fail("timeline final counter %s = %d, but %s in %s point %d "
                 "is %r" % (counter, final_counters[counter], key,
                            results_path, point, expected))
    states = check_time_in_state(results_path, point, result, state_totals)
    if not checkable and not states:
        fail("%s: point %d has no conservation counters or time_in_state "
             "to cross-check" % (results_path, point))
    return len(checkable) + states


def main():
    parser = argparse.ArgumentParser(
        description="Validate a simulator timeline JSONL file.")
    parser.add_argument("timeline", help="timeline JSONL path")
    parser.add_argument("--results", default=None,
                        help="bench results JSON to cross-check the "
                             "summary's final counters against")
    parser.add_argument("--point", type=int, default=0,
                        help="results sweep point index (default 0, the "
                             "default --trace-point)")
    args = parser.parse_args()

    samples, num_boxes, final, state_totals = check_timeline(args.timeline)
    summary = "timeline_check: OK: %d samples" % samples
    if num_boxes > 1:
        summary += ", %d boxes" % num_boxes
    summary += ", completed=%d" % final.get("completed", 0)
    if args.results is not None:
        crossed = check_results(args.results, args.point, final,
                                state_totals)
        summary += ", %d results totals cross-checked" % crossed
    print(summary)


if __name__ == "__main__":
    main()
