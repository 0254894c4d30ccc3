#!/usr/bin/env python3
"""Build and run the Sympiler end-to-end / per-layer benchmark.

    python3 perfbench/run.py --workload newton_mesh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # table of all four
    python3 perfbench/run.py --test                           # the benchmark's unit tests

Run from the root of a source checkout. The first run configures and builds
the library plus the benchmark into .bench_build/ (Release, OpenMP on);
later runs only check that the build is current. The last line of standard
output is the result:
    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace to .bench_build/traces/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
WORKLOADS = ["newton_mesh", "transient_trisolve", "pattern_churn", "restart_store"]
THREADS = 2  # half of the 4 vCPUs the benchmark was tuned on
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_sources():
    """The benchmark builds the library from this checkout's sources."""
    for rel in ("CMakeLists.txt", os.path.join("src", "api", "solver.h")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"library source {rel} not found under {ROOT}; run from a "
                 "full source checkout")


def run_quiet(cmd, timeout):
    """Run a build step, its output to stderr; fail on error. The
    compiler's temporary files stay inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, TMPDIR=tmp),
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"build step failed: {' '.join(cmd)}", 1)


def build(targets):
    start = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release", "-DSYMPILER_HAS_OPENMP=ON"],
                  BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for target in targets:
        left = BUILD_TIMEOUT_S - (time.monotonic() - start)
        run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                  max(left, 1))


def source_identity():
    """Git revision when available, and a hash of the sources either way
    (the benchmark may run from an exported tree)."""
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=10)
            if proc.returncode == 0:
                rev = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return rev, digest.hexdigest()


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (detail dict, result line)."""
    scratch = os.path.join(BUILD, "scratch", str(os.getpid()))
    # The traced run's JIT writes its kernel sources and libraries under
    # TMPDIR; keep them in this run's scratch directory.
    tmp = os.path.join(scratch, "tmp")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if trace:
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS), TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload} exited with code {proc.returncode}", 1)
    detail = json.loads(lines[-2])
    rev, sha = source_identity()
    detail["fingerprint"]["source_revision"] = rev
    detail["fingerprint"]["source_sha256"] = sha
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump({"detail": detail, "result": json.loads(lines[-1])}, fh, indent=1)
    return detail, lines[-1]


def print_table(rows):
    """rows: [(workload, detail, result dict)] -> one table per workload."""
    for workload, detail, result in rows:
        run = detail["run"]
        print(f"\n{workload}  (seed {detail['seed']}, inputs {detail['input_hash']}, "
              f"correct={result['correct']}, failed {result['failed']} of "
              f"{result['attempted']})")
        print(f"  samples: {json.dumps(run.get('samples', {}))}")
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.6g}  {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    check_sources()
    if args.test:
        build(["perfbench_tests"])
        proc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")], cwd=ROOT)
        sys.exit(proc.returncode)
    if args.workload is None:
        fail("--workload is required")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")
    build(["perfbench"])
    if args.workload == "all":
        rows = []
        for workload in WORKLOADS:
            detail, line = run_workload(workload, args.seed, args.seconds, args.trace)
            rows.append((workload, detail, json.loads(line)))
        print_table(rows)
        for _, detail, result in rows:
            print(json.dumps({"workload": detail["workload"], **result}))
        return
    detail, line = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(line)


if __name__ == "__main__":
    main()
