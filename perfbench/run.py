#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark's self-tests, writes the CarDB bundle and approx-DSL store once
per build, then runs one workload (its rates and limits are fixed in
workload.cc). The last line of stdout is the JSON result.
Exits non-zero, without a result, if the build, the self-tests or the run
fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def prepare_cache(binary, build_dir):
    """Bundle + approx store, keyed by the binary that wrote them."""
    cache = build_dir / "cache" / file_digest(binary)
    if (cache / "ready").exists():
        return cache
    tmp = cache.with_name(cache.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [str(binary), "--prepare", "--cache-dir", str(tmp)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    # Flush the fresh files now: writeback during the first measured run
    # stalled it badly enough to fail every ladder rung.
    os.sync()
    (tmp / "ready").write_text("ok\n")
    shutil.rmtree(cache, ignore_errors=True)
    tmp.rename(cache)
    return cache


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    if not build(build_dir):
        log("build failed")
        return 1
    if subprocess.run([str(build_dir / "perfbench_selftest")]).returncode:
        log("self-tests failed")
        return 1
    binary = build_dir / "wnrs_perfbench"
    cache = prepare_cache(binary, build_dir)
    if cache is None:
        log("preparing the bundle failed")
        return 1

    spans = build_dir / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--cache-dir", str(cache),
           "--spans-out", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        log(f"run failed with exit code {proc.returncode}")
        return proc.returncode
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("run printed no result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return 1
    # Host facts, phase tallies and the metric table, then the result.
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
