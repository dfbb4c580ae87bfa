#!/usr/bin/env python3
"""Gate the solver microbenchmark record produced by bench_micro.

Reads a google-benchmark JSON file (BENCH_solver.json in CI) and enforces
the perf contracts of the observability work:

  1. obs::Span must be free when tracing is off and cheap when it is on:
     a disabled span (BM_SpanOverhead/enabled:0 -- one relaxed atomic
     load) must cost at most 50 ns, and an enabled span with the solver's
     three-attribute payload (BM_SpanWithAttrsOverhead/enabled:1 -- two
     clock reads plus a buffered record) at most 5 us.  The bounds are
     deliberately loose absolute ceilings, not ratios: they catch a lock
     or allocation sneaking onto the hot path without flaking on CI
     machine variance.
  2. The record must come from an optimized binary on a quiet machine:
     the context key `neuro_build_type` (emitted by bench_micro's main
     from the translation unit's own NDEBUG/__OPTIMIZE__ state) must be
     "release", and `cpu_scaling_enabled` must be false.  The stock
     `library_build_type` key is useless here: it reports how the
     *benchmark library* was compiled, and distro packages ship debug
     builds, so it reads "debug" even for a -O2 bench binary.
  3. Flight-recorder ring mode must stay black-box cheap: a disabled
     ring-mode span (BM_RingRecordOverhead/enabled:0) obeys the same
     50 ns inert-span bound, and steady-state ring recording with the
     solver attr payload (enabled:1, the ring wrapping on every record)
     at most 2x the legacy enabled-span bound (10 us).  The ring replaces
     truncate-and-drop, so this is the permanent cost of always-on
     post-mortem retention.

Every gate reads the `_median` aggregate row of a benchmark when the record
has one (CI runs bench_micro with --benchmark_repetitions=5, so a single
noisy repetition cannot pass or fail a gate by itself) and the benchmark's
single row otherwise.  BM_SpMV, BM_GaussianSmooth, BM_MiSamplerEvaluate
(pyramid levels 0 and 1), BM_DistanceTransform and BM_ActiveSurfaceIteration
(the last three at 1 and 2 ranks) ride in the record as kernel regression
guards for diffing across runs; no gate reads them.

Usage: check_bench_solver.py BENCH_solver.json
"""

import json
import sys

DISABLED_SPAN_MAX_NS = 50.0
ENABLED_ATTR_SPAN_MAX_NS = 5000.0
# Flight-recorder ring mode (BM_RingRecordOverhead): steady-state wrapping
# must stay within 2x the legacy attr-span bound, and the disabled path is
# the same inert Span as BM_SpanOverhead/enabled:0.
RING_RECORD_MAX_NS = 2.0 * ENABLED_ATTR_SPAN_MAX_NS
RING_DISABLED_MAX_NS = DISABLED_SPAN_MAX_NS

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def cpu_ns(bench):
    return bench["cpu_time"] * NS_PER_UNIT[bench.get("time_unit", "ns")]


def main(path):
    with open(path) as f:
        record = json.load(f)
    singles = {}
    medians = {}
    for b in record.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", b["name"])] = b
        else:
            singles.setdefault(b["name"], b)
    print(f"gating {'median of repetitions' if medians else 'single runs'}")

    def need(name):
        if name in medians:
            return medians[name]
        if name not in singles:
            raise SystemExit(f"FAIL: benchmark {name!r} missing from {path}")
        return singles[name]


    span_off = need("BM_SpanOverhead/enabled:0")
    span_on = need("BM_SpanOverhead/enabled:1")
    attr_on = need("BM_SpanWithAttrsOverhead/enabled:1")
    print(f"span overhead: disabled {cpu_ns(span_off):.1f} ns, enabled "
          f"{cpu_ns(span_on):.1f} ns, enabled+attrs {cpu_ns(attr_on):.1f} ns")
    ring_off = need("BM_RingRecordOverhead/enabled:0")
    ring_on = need("BM_RingRecordOverhead/enabled:1")
    print(f"ring record overhead: disabled {cpu_ns(ring_off):.1f} ns, "
          f"enabled {cpu_ns(ring_on):.1f} ns (steady-state wrap)")

    context = record.get("context", {})
    build_type = context.get("neuro_build_type", "missing")
    cpu_scaling = context.get("cpu_scaling_enabled", None)
    print(f"bench binary build type: {build_type} "
          f"(library_build_type {context.get('library_build_type', '?')} "
          "reflects the benchmark library, not the bench code; ignored)")
    print(f"cpu frequency scaling: {cpu_scaling}")

    failures = []
    if build_type != "release":
        failures.append(
            f"neuro_build_type is {build_type!r}, not 'release' -- regenerate "
            "the record from an optimized build (timings from unoptimized "
            "code gate nothing)")
    if cpu_scaling is not False:
        failures.append(
            f"cpu_scaling_enabled is {cpu_scaling!r} -- pin the governor to "
            "performance before recording, or the ratios are noise")
    if cpu_ns(span_off) > DISABLED_SPAN_MAX_NS:
        failures.append(
            f"disabled span costs {cpu_ns(span_off):.1f} ns, above gate "
            f"{DISABLED_SPAN_MAX_NS:.0f} ns -- the off path must stay a "
            "single relaxed load")
    if cpu_ns(attr_on) > ENABLED_ATTR_SPAN_MAX_NS:
        failures.append(
            f"enabled span with attrs costs {cpu_ns(attr_on):.1f} ns, above "
            f"gate {ENABLED_ATTR_SPAN_MAX_NS:.0f} ns -- a lock or allocation "
            "has crept onto the record path")
    if cpu_ns(ring_off) > RING_DISABLED_MAX_NS:
        failures.append(
            f"disabled ring record costs {cpu_ns(ring_off):.1f} ns, above "
            f"gate {RING_DISABLED_MAX_NS:.0f} ns -- ring mode must not touch "
            "the inert-span fast path")
    if cpu_ns(ring_on) > RING_RECORD_MAX_NS:
        failures.append(
            f"enabled ring record costs {cpu_ns(ring_on):.1f} ns, above gate "
            f"{RING_RECORD_MAX_NS:.0f} ns -- the flight-recorder wrap path "
            "must stay within 2x the legacy attr-span bound")
    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK: build provenance, span and ring overhead within contract")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
