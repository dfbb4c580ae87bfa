#!/usr/bin/env python3
"""Builds and runs the time-to-field benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
neurofem libraries and the benchmark from source (RelWithDebInfo) under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.
The benchmark's report goes to stdout and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}; build output goes to stderr.

Besides the checks the benchmark binary makes, this script enforces that the
per-field work counts (reg.mi_evals, seg.voxels, fem.iterations,
solver.flops, par.msgs) repeat exactly across runs of one workload and seed
on the same sources: the first run records them, every later run compares.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("surgery_sequence", "fem_fig7", "service_mix")
RUN_TIMEOUT_S = 170
COUNTS_PREFIX = "perfbench-counts: "


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def source_digest():
    """sha256 over every source the benchmark binary is built from."""
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    files.append(ROOT / "bench" / "common.h")
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def commit_id(digest):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return f"{out.stdout.strip()}+src-sha256:{digest[:16]}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"src-sha256:{digest[:16]}"


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "bench" / "common.h").is_file():
        fail(f"no neurofem sources under {ROOT}; run from a full checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def check_counts(counts, path):
    """Compares per-field counts with the ones recorded for this workload and
    seed; records the union. Returns the mismatches."""
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    mismatches = []
    for name, values in counts.items():
        old = recorded.get(name, [])
        n = min(len(old), len(values))
        if old[:n] != values[:n]:
            mismatches.append(f"{name}: {values[:n]} != recorded {old[:n]}")
        if len(values) > len(old):
            recorded[name] = values
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(recorded, sort_keys=True))
    tmp.replace(path)
    return mismatches


def main():
    args = parse_args()
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root / "perfbench")
    digest = source_digest()

    out_dir = build_root / "perfbench-out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--commit", commit_id(digest)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    counts = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith(COUNTS_PREFIX):
            counts = json.loads(line[len(COUNTS_PREFIX):])

    record = out_dir / "counts" / digest[:16] / f"{args.workload}-seed{args.seed}.json"
    mismatches = check_counts(counts, record)
    for m in mismatches:
        print(f"CHECK FAILED: count differs from an earlier run of this seed: {m}")
    if mismatches:
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
