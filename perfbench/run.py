#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness (perfbench/harness, built by
perfbench/CMakeLists.txt together with the library it measures) lands in
.bench_build/perfbench; build output goes to .bench_build/build.log. The
quality floors and the worst allowed watchdog state of each workload come
from perfbench/spec.json. The last line of stdout is the harness's JSON
result; the exit status is 0 only when every output check passed.
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
BUILD = ROOT / ".bench_build"
HARNESS_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(jobs):
    """Configure once, then build incrementally; returns the harness path."""
    out = BUILD / "perfbench"
    log_path = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_harness",
                  "-j", str(jobs)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                fail(3, "build failed:\n" + "\n".join(tail))
    return out / "perfbench_harness"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def source_digest():
    """sha256 over src/ (paths and contents), so a result names its code
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "arams.hpp").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        fail(2, f"no arams sources next to {HERE.name}/ (expected src/ and "
                "CMakeLists.txt at the checkout root)")
    spec = json.loads((HERE / "spec.json").read_text())
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        fail(2, f"unknown workload {args.workload!r}; known: "
                + ", ".join(spec["workloads"]))

    harness = build(min(4, cpu_count()))
    env = dict(os.environ)
    # The shared pool gets one worker, so the library's work runs serially
    # beside the producer. On a virtual machine whose cores are shared with
    # other tenants, a fork-join over several cores waits for whichever
    # core the host has taken away: with three workers, stream-ingest lost
    # 50-60% of its throughput while the host was busy (one worker: 17-29%),
    # which spread ten runs of one code past the metrics' bounds. Parallel
    # speedups are not what these workloads measure (stream-snapshot and
    # batch-diffraction keep ~1 core busy at any pool size). The harness
    # records the size it got.
    env.setdefault("ARAMS_POOL_THREADS", "1")

    command = [str(harness), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--git-commit", git_commit(), "--source-digest", source_digest(),
               "--max-health", workload["max_health"]]
    for flag, key in (("--floor-ari", "ari_min"),
                      ("--floor-trustworthiness", "trustworthiness_min"),
                      ("--ceiling-sketch-rel-error", "sketch_rel_error_max")):
        if key in workload["floors"]:
            command += [flag, str(workload["floors"][key])]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
