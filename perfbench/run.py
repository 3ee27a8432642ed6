#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library and the benchmark are built
from source into .bench_build/ (Release), then the benchmark binary runs
one workload. Its standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. The names and units are checked against BENCHMARK.json before the
line is printed. Exit status: 0 on success, 1 on a build failure, a failed
correctness check, or a result that does not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures once and (re)builds `targets`; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                     + targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log("build failed: " + " ".join(cmd))
                return False
    return True


def git(*args):
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance():
    """Read at run time, not build time: the SHA and dirty flag of the
    checkout (when it is a git work tree) and a digest of the library
    sources, which identifies the code even outside git."""
    sha = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    dirty = "unknown" if status is None else ("1" if status else "0")
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for d, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return sha, dirty, h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [
        w["name"] for w in spec["workloads"]]


def validate(result, trace):
    want, _ = expected_metrics(trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in got.items():
        if m.get("unit") != want[name]:
            return f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {ROOT}/src")
        return 1
    if a.self_test:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    _, workloads = expected_metrics(a.trace)
    if a.workload not in workloads:
        log(f"--workload must be one of {workloads}")
        return 1
    if not build(["perfbench"]):
        return 1

    sha, dirty, digest = provenance()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work-dir", work, "--git-sha", sha,
           "--git-dirty", dirty, "--src-digest", digest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"no result line (exit status {r.returncode})")
        return 1
    problem = validate(result, a.trace)
    if problem:
        log(problem)
        return 1
    print(lines[-1], flush=True)
    if r.returncode != 0 or not result["correct"]:
        log(f"correctness check failed (exit status {r.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
