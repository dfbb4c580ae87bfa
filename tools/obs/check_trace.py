#!/usr/bin/env python3
"""Validate and summarize observability artifacts exported by neuro::obs.

The artifact type comes from the document itself: a top-level "traceEvents"
list is a Chrome trace, "schema": "neuro.postmortem.v1" a post-mortem bundle.
Unreadable or malformed JSON and unknown documents fail with one FAIL: line.

Chrome trace-event JSON (Tracer::write_chrome_trace):

  1. Schema: top-level {"traceEvents": [...]}, every event a dict with a
     known phase ("M" metadata, "X" complete span, "C" counter, "I" instant),
     required fields per phase, non-negative ts/dur, finite counter values.
  2. Thread naming: every pid/tid that carries span or counter events has a
     thread_name metadata event; tid 0 is "main", tid N+1 is "rank N" --
     exactly one Perfetto thread per rank.
  3. Monotonic timestamps: within each (pid, tid), events appear in
     non-decreasing ts order (the exporter's deterministic merge order).
  4. Balanced spans: within each thread, complete events either nest
     (child fully contained in parent) or are disjoint; partial overlap
     means a Span outlived its parent scope and the trace would render
     nonsense in Perfetto.
  5. Completeness: "trace_truncated" instant events (one per rank whose ring
     wrapped or shed events during a dump) fail validation; the failure
     message sums the per-rank loss counts.

With --expect-pipeline the trace must additionally look like a full
run_intraop_pipeline run: one span per pipeline stage (the preop-model stage
carrying its 0/1 "reused" attribute), at least one "fem.rung" span per
degradation rung attempted, and at least one Krylov per-iteration span
carrying a "residual" attribute.

Post-mortem bundle (obs::FlightRecorder::write_bundle, schema
neuro.postmortem.v1):

  1. Schema: required top-level sections (trigger, provenance, streams,
     ring, metrics, residual_history) with well-formed contents.
  2. Trigger: a known kind, and the ring must retain the "recorder.trigger"
     span whose args.trigger matches it (the bundle explains itself).
  3. Retention: ring capacity >= 1000 events per rank; per stream,
     retained == min(recorded, capacity) and wrapped == max(0,
     recorded - capacity) -- the ring keeps the *last* N events, always.
  4. Rank coverage: with --expect-ranks N, stream stats for ranks 0..N-1
     must all be present (the dump merged every rank's ring).
  5. Residual history: per (solver, rank), iteration numbers strictly
     increase and residuals are finite.

A valid bundle is also summarized: the trigger and its detail, the stream
table, the last 10 ring events, and the final residual per solver and rank.

Usage: check_trace.py trace.json [--expect-pipeline]
       check_trace.py postmortem.json [--expect-ranks N] [--expect-trigger KIND]
"""

import argparse
import json
import math
import sys

# Nesting comparisons tolerate the exporter's 3-decimal microsecond rounding.
EPS_US = 0.002

PIPELINE_STAGES = [
    "pipeline.rigid_registration",
    "pipeline.preop_model",
    "pipeline.tissue_classification",
    "pipeline.surface_displacement",
    "pipeline.biomechanical_simulation",
    "pipeline.visualization_resample",
]
KRYLOV_SPAN = "gmres.iteration"
BUNDLE_SCHEMA = "neuro.postmortem.v1"
# The flight recorder's retention contract: every rank's ring holds at least
# this many events.
MIN_RING = 1000
# Ring events the bundle summary shows: the tail is where the incident is.
SUMMARY_TAIL = 10
BUNDLE_TRIGGERS = (
    "manual", "degradation", "watchdog", "comm_fault", "deadline_miss",
    "admission_storm", "check_failure", "fatal_signal",
)


def fail(errors, msg):
    errors.append(msg)


def check_schema(events, errors):
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(errors, f"event {i}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("M", "X", "C", "I"):
            fail(errors, f"event {i}: unknown phase {ph!r}")
            continue
        if "name" not in e or not isinstance(e["name"], str):
            fail(errors, f"event {i}: missing name")
        if ph in ("X", "C", "I"):
            ts = e.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                fail(errors, f"event {i} ({e.get('name')}): bad ts {ts!r}")
            if "tid" not in e or "pid" not in e:
                fail(errors, f"event {i} ({e.get('name')}): missing pid/tid")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(errors, f"event {i} ({e.get('name')}): bad dur {dur!r}")
        if ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or "value" not in args:
                fail(errors, f"event {i} ({e.get('name')}): counter missing args.value")
            else:
                value = args["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(errors, f"event {i} ({e.get('name')}): counter value "
                                 f"{value!r} is not a finite number")


def check_threads(events, errors):
    thread_names = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            key = (e.get("pid"), e.get("tid"))
            name = e.get("args", {}).get("name")
            if key in thread_names:
                fail(errors, f"duplicate thread_name for pid/tid {key}")
            thread_names[key] = name

    used = set()
    for e in events:
        if e.get("ph") in ("X", "C"):
            used.add((e.get("pid"), e.get("tid")))
    for key in sorted(used, key=str):
        if key not in thread_names:
            fail(errors, f"pid/tid {key} has events but no thread_name metadata")
            continue
        pid, tid = key
        name = thread_names[key]
        expected = "main" if tid == 0 else f"rank {tid - 1}"
        if name != expected:
            fail(errors, f"tid {tid} named {name!r}, expected {expected!r} "
                         "(one thread per rank)")

    names = [v for k, v in thread_names.items()]
    if len(names) != len(set(names)):
        fail(errors, "thread names are not unique (two tids share a rank)")
    return used


def check_monotonic_and_nesting(events, errors):
    by_thread = {}
    for e in events:
        if e.get("ph") in ("X", "C"):
            by_thread.setdefault((e.get("pid"), e.get("tid")), []).append(e)

    for key, evs in sorted(by_thread.items(), key=str):
        last_ts = -1.0
        for e in evs:
            ts = e.get("ts", 0)
            if ts < last_ts:
                fail(errors, f"tid {key[1]}: ts not monotonic at "
                             f"{e.get('name')} ({ts} after {last_ts})")
                break
            last_ts = ts

        # Balanced-span check via containment: sweep in (ts, -dur) order with
        # a stack of open intervals.
        spans = [e for e in evs if e["ph"] == "X"]
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end_ts, name)
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start + EPS_US:
                stack.pop()
            if stack and end > stack[-1][0] + EPS_US:
                fail(errors, f"tid {key[1]}: span {e['name']!r} "
                             f"[{start:.3f}, {end:.3f}] partially overlaps "
                             f"enclosing {stack[-1][1]!r} (ends {stack[-1][0]:.3f})")
                break
            stack.append((end, e["name"]))


def check_pipeline_expectations(events, errors):
    spans = [e for e in events if e.get("ph") == "X"]
    names = {}
    for e in spans:
        names.setdefault(e["name"], []).append(e)

    for stage in PIPELINE_STAGES:
        if stage not in names:
            fail(errors, f"expected a span for pipeline stage {stage!r}")
    if "pipeline" not in names:
        fail(errors, "expected the 'pipeline' root span")
    for e in names.get("pipeline.preop_model", []):
        if e.get("args", {}).get("reused") not in (0, 1):
            fail(errors, "a 'pipeline.preop_model' span is missing its 0/1 "
                         "'reused' attribute")
    if "fem.rung" not in names:
        fail(errors, "expected at least one 'fem.rung' degradation-rung span")
    else:
        for e in names["fem.rung"]:
            if "rung" not in e.get("args", {}):
                fail(errors, "a 'fem.rung' span is missing its 'rung' attribute")

    iters = names.get(KRYLOV_SPAN, [])
    if not iters:
        fail(errors, f"expected at least one '{KRYLOV_SPAN}' span")
    for e in iters:
        args = e.get("args", {})
        if "residual" not in args:
            fail(errors, f"{e['name']} span at ts {e['ts']} lacks a "
                         "'residual' attribute")
            break


def check_bundle_streams(bundle, expect_ranks, errors):
    capacity = bundle.get("ring", {}).get("capacity")
    if not isinstance(capacity, int) or capacity < MIN_RING:
        fail(errors, f"ring capacity {capacity!r} is below the retention "
                     f"contract of {MIN_RING} events per rank")
        return
    streams = bundle.get("streams")
    if not isinstance(streams, list) or not streams:
        fail(errors, "bundle has no stream stats")
        return
    ranks = set()
    for i, s in enumerate(streams):
        if not isinstance(s, dict):
            fail(errors, f"stream {i}: not an object")
            continue
        fields = {}
        for key in ("rank", "recorded", "retained", "wrapped", "dropped"):
            v = s.get(key)
            if not isinstance(v, int) or (key != "rank" and v < 0):
                fail(errors, f"stream {i}: bad {key} {v!r}")
                v = None
            fields[key] = v
        if None in fields.values():
            continue
        ranks.add(fields["rank"])
        # The ring keeps the last N events: never fewer than min(recorded,
        # capacity) retained, and exactly one wrap per overwritten slot.
        want_retained = min(fields["recorded"], capacity)
        if fields["retained"] != want_retained:
            fail(errors, f"stream rank {fields['rank']}: retained "
                         f"{fields['retained']} != min(recorded, capacity) "
                         f"= {want_retained}")
        want_wrapped = max(0, fields["recorded"] - capacity)
        if fields["wrapped"] != want_wrapped:
            fail(errors, f"stream rank {fields['rank']}: wrapped "
                         f"{fields['wrapped']} != max(0, recorded - capacity) "
                         f"= {want_wrapped}")
    if expect_ranks is not None:
        missing = sorted(set(range(expect_ranks)) - ranks)
        if missing:
            fail(errors, f"bundle lacks stream stats for ranks {missing} "
                         f"(have {sorted(ranks)})")
    events = bundle.get("ring", {}).get("events", [])
    total_retained = sum(s.get("retained", 0) for s in streams
                         if isinstance(s, dict))
    if isinstance(events, list) and len(events) != total_retained:
        fail(errors, f"ring has {len(events)} events but streams claim "
                     f"{total_retained} retained")


def check_bundle_events(bundle, errors):
    events = bundle.get("ring", {}).get("events")
    if not isinstance(events, list):
        fail(errors, "ring.events is not a list")
        return
    redacted = bundle.get("provenance", {}).get("redact_timing", False)
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(errors, f"ring event {i}: not an object")
            return
        if not isinstance(e.get("name"), str) or e.get("kind") not in ("span", "counter"):
            fail(errors, f"ring event {i}: missing name or unknown kind "
                         f"{e.get('kind')!r}")
            return
        if not isinstance(e.get("rank"), int) or not isinstance(e.get("seq"), int):
            fail(errors, f"ring event {i} ({e.get('name')}): missing rank/seq")
            return
        if not redacted and not isinstance(e.get("ts_us"), (int, float)):
            fail(errors, f"ring event {i} ({e.get('name')}): missing ts_us in "
                         "an unredacted bundle")
            return
        if e["kind"] == "counter":
            value = e.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                fail(errors, f"ring event {i} ({e.get('name')}): counter value "
                             f"{value!r} is not a finite number")
                return

    trigger_kind = bundle.get("trigger", {}).get("kind")
    marks = [e for e in events
             if isinstance(e, dict) and e.get("name") == "recorder.trigger"]
    if not any(e.get("args", {}).get("trigger") == trigger_kind for e in marks):
        fail(errors, f"ring retains no 'recorder.trigger' span matching the "
                     f"bundle trigger {trigger_kind!r} (the incident that "
                     "caused the dump must itself be in the ring)")


def check_bundle_residuals(bundle, errors):
    history = bundle.get("residual_history")
    if not isinstance(history, list):
        fail(errors, "residual_history is not a list")
        return
    last = {}
    for i, row in enumerate(history):
        if not isinstance(row, dict):
            fail(errors, f"residual_history[{i}]: not an object")
            return
        solver, rank = row.get("solver"), row.get("rank")
        iteration, residual = row.get("iteration"), row.get("residual")
        if not isinstance(solver, str) or not isinstance(rank, int) \
                or not isinstance(iteration, int) \
                or not isinstance(residual, (int, float)):
            fail(errors, f"residual_history[{i}]: malformed row {row!r}")
            return
        if not math.isfinite(residual) or residual < 0:
            fail(errors, f"residual_history[{i}]: residual {residual!r} is "
                         "not a finite non-negative number")
        key = (solver, rank)
        if key in last and iteration <= last[key]:
            fail(errors, f"residual_history[{i}]: {solver} rank {rank} "
                         f"iteration {iteration} does not increase past "
                         f"{last[key]} (history must be iteration-monotone "
                         "per solver and rank)")
        last[key] = iteration


def check_bundle(bundle, args, errors):
    trigger = bundle.get("trigger")
    if not isinstance(trigger, dict) or trigger.get("kind") not in BUNDLE_TRIGGERS:
        kind = trigger.get("kind") if isinstance(trigger, dict) else None
        fail(errors, f"trigger kind {kind!r} is not one of {BUNDLE_TRIGGERS}")
        return
    if args.expect_trigger and trigger["kind"] != args.expect_trigger:
        fail(errors, f"trigger kind {trigger['kind']!r} != expected "
                     f"{args.expect_trigger!r}")
    provenance = bundle.get("provenance")
    if not isinstance(provenance, dict) or "build_type" not in provenance \
            or not isinstance(provenance.get("env"), dict):
        fail(errors, "provenance section is missing or malformed")
    metrics = bundle.get("metrics")
    if not isinstance(metrics, list) or not all(
            isinstance(m, dict) and isinstance(m.get("name"), str)
            and m.get("type") in ("counter", "gauge", "histogram")
            for m in metrics):
        fail(errors, "metrics section is not a list of typed instruments")
    check_bundle_streams(bundle, args.expect_ranks, errors)
    check_bundle_events(bundle, errors)
    check_bundle_residuals(bundle, errors)


def format_args(args):
    return ", ".join(f"{k}={v}" for k, v in args.items())


def print_bundle_summary(bundle):
    trigger = bundle["trigger"]
    print(f"trigger: {trigger['kind']}")
    if trigger.get("detail"):
        print(f"  detail: {trigger['detail']}")
    if trigger.get("attrs"):
        print(f"  {format_args(trigger['attrs'])}")

    print(f"streams: {len(bundle['streams'])}")
    columns = ("rank", "recorded", "retained", "wrapped", "dropped")
    print("  " + " ".join(f"{c:>10}" for c in columns))
    for stream in bundle["streams"]:
        print("  " + " ".join(f"{stream[c]:>10}" for c in columns))

    events = bundle["ring"]["events"]
    print(f"ring: capacity {bundle['ring']['capacity']}, {len(events)} events "
          f"retained; last {min(len(events), SUMMARY_TAIL)}:")
    for e in events[-SUMMARY_TAIL:]:
        dur = f" ({e['dur_us']:.3f} us)" if "dur_us" in e else ""
        print(f"  [{e['rank']}/{e['seq']}] {e['kind']} {e['name']}{dur}")
        if e.get("args"):
            print(f"      {format_args(e['args'])}")

    final = {}
    for row in bundle["residual_history"]:
        final[(row["solver"], row["rank"])] = row
    print(f"residual history: {len(bundle['residual_history'])} rows")
    for (solver, rank), row in sorted(final.items()):
        print(f"  {solver} rank {rank}: final iteration {row['iteration']}, "
              f"residual {row['residual']:.6g}")


def run_bundle_mode(bundle, args):
    errors = []
    check_bundle(bundle, args, errors)
    for msg in errors:
        print(f"FAIL: {msg}")
    if errors:
        return 1
    print_bundle_summary(bundle)
    streams = bundle["streams"]
    events = bundle["ring"]["events"]
    print(f"OK: bundle trigger '{bundle['trigger']['kind']}', "
          f"{len(events)} ring events across {len(streams)} streams, "
          f"{len(bundle['residual_history'])} residual rows; retention and "
          "schema valid")
    return 0


def run_trace_mode(trace, args):
    events = trace["traceEvents"]
    if not isinstance(events, list):
        print("FAIL: traceEvents is not a list")
        return 1

    errors = []
    check_schema(events, errors)
    if not errors:
        check_threads(events, errors)
        check_monotonic_and_nesting(events, errors)
        truncated = [e for e in events if e.get("name") == "trace_truncated"]
        if truncated:
            total = sum(e.get("args", {}).get("dropped", 0) for e in truncated)
            ranks = sorted(e.get("args", {}).get("rank", "?") for e in truncated)
            fail(errors, f"trace is truncated ({total} events lost to ring "
                         f"wrap or dump shedding across ranks {ranks})")
        if args.expect_pipeline:
            check_pipeline_expectations(events, errors)

    for msg in errors:
        print(f"FAIL: {msg}")
    if errors:
        return 1
    n_spans = sum(1 for e in events if e.get("ph") == "X")
    n_counters = sum(1 for e in events if e.get("ph") == "C")
    n_threads = len({(e.get('pid'), e.get('tid'))
                     for e in events if e.get("ph") in ("X", "C")})
    print(f"OK: {n_spans} spans, {n_counters} counter samples across "
          f"{n_threads} threads; schema, nesting and thread naming valid")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("path", help="trace or bundle JSON file")
    parser.add_argument("--expect-pipeline", action="store_true",
                        help="trace: require full-pipeline span structure")
    parser.add_argument("--expect-ranks", type=int, default=None,
                        help="bundle: require stream stats for ranks 0..N-1")
    parser.add_argument("--expect-trigger", default=None,
                        help="bundle: require this trigger kind")
    args = parser.parse_args(argv[1:])
    try:
        with open(args.path) as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, ValueError, RecursionError) as e:
        print(f"FAIL: cannot read {args.path} as JSON: {e}")
        return 1
    try:
        if isinstance(doc, dict) and "traceEvents" in doc:
            return run_trace_mode(doc, args)
        if isinstance(doc, dict) and doc.get("schema") == BUNDLE_SCHEMA:
            return run_bundle_mode(doc, args)
    except (AttributeError, KeyError, TypeError) as e:
        # A section of the wrong JSON type that the checks above walk into.
        print(f"FAIL: {args.path} is malformed: {type(e).__name__}: {e}")
        return 1
    schema = doc.get("schema") if isinstance(doc, dict) else None
    print(f"FAIL: {args.path} is neither a Chrome trace (top-level "
          f"\"traceEvents\") nor a {BUNDLE_SCHEMA} bundle (schema {schema!r})")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
