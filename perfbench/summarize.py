#!/usr/bin/env python3
"""Collect benchmark runs and summarise them per workload and metric.

    # N runs per workload, each with another seed, stdout kept per run
    python3 perfbench/summarize.py collect --out runs/parent \
        --workload stream-ingest --workload batch-diffraction --seeds 1-10

    # median, quartiles and spread per metric; "unresolved" when the
    # spread (Q3 - Q1) / median is wider than the metric's bound
    python3 perfbench/summarize.py report runs/parent

    # parent/change pairs, run alternately on two checkouts, then each
    # side's median and quartiles, the change in the metric's "better"
    # direction, and a verdict against the bound
    python3 perfbench/summarize.py collect --out runs --workload stream-ingest \
        --checkout parent=../parent --checkout change=. --seeds 1-10
    python3 perfbench/summarize.py report runs/change --compare runs/parent

A run directory holds <workload>/seed<n>.out files: the full stdout of
perfbench/run.py, whose last line is the JSON result. Bounds, units and
directions come from BENCHMARK.json at the checkout root; end-to-end and
per-layer metrics are both summarised (per-layer metrics have no bound).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args, bench):
    seconds = args.seconds or bench["run_seconds"]
    # (run directory, checkout) pairs; with several checkouts each seed runs
    # on all of them, alternating which goes first, so host drift over the
    # the run set lands on both sides alike.
    if args.checkout:
        sides = []
        for spec in args.checkout:
            name, _, path = spec.partition("=")
            sides.append((Path(args.out) / name, Path(path).resolve()))
    else:
        sides = [(Path(args.out), ROOT)]
    for workload in args.workload:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for out, checkout in order:
                out_dir = out / workload
                out_dir.mkdir(parents=True, exist_ok=True)
                command = [sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(command, cwd=checkout,
                                      capture_output=True, text=True)
                (out_dir / f"seed{seed}.out").write_text(done.stdout)
                status = ("ok" if done.returncode == 0
                          else f"exit {done.returncode}")
                print(f"{out.name} {workload} seed {seed}: {status}",
                      flush=True)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr[-2000:])


def load(run_dir):
    """{workload: [result dict, ...]} from a run directory."""
    runs = {}
    for path in sorted(Path(run_dir).glob("*/seed*.out")):
        lines = path.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        runs.setdefault(path.parent.name, []).append(result)
    return runs


def stats(values):
    """(median, q1, q3, spread) with the quartiles statistics.quantiles gives."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def metric_specs(bench):
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    return specs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def report(args, bench):
    specs = metric_specs(bench)
    change = load(args.run_dir)
    base = load(args.compare) if args.compare else {}
    for workload, runs in change.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, {wrong} incorrect, "
              f"failed {failed}/{attempted} operations")
        header = f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
        if base:
            header += f" {'base median':>12} {'change':>8}  verdict"
        else:
            header += "  verdict"
        print(header)
        for name, spec in specs.items():
            vals = values(runs, name)
            if not vals:
                continue
            median, q1, q3, spread = stats(vals)
            bound = spec.get("bound")
            line = f"{name:30} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}"
            if bound is None:
                print(line + ("" if not base else f" {'':12} {'':8}") + "  (no bound)")
                continue
            if not base:
                verdict = ("unresolved" if spread > bound else
                           "steady" if spread < bound / 3 else "within bound")
                print(f"{line}  {verdict} (bound {bound:.0%})")
                continue
            base_vals = values(base.get(workload, []), name)
            if not base_vals:
                print(f"{line}  no base runs")
                continue
            b_median, _, _, b_spread = stats(base_vals)
            sign = 1.0 if spec["better"] == "higher" else -1.0
            gain = sign * (median - b_median) / abs(b_median)
            all_better = all(sign * v > sign * b for v in vals for b in base_vals)
            if -gain > bound:
                verdict = "regressed"
            elif max(spread, b_spread) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"{line} {b_median:12.6g} {gain:+8.2%}  {verdict} "
                  f"(bound {bound:.0%})")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark over several seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--seconds", type=float, default=None,
                   help="defaults to BENCHMARK.json run_seconds")
    c.add_argument("--checkout", action="append",
                   help="NAME=PATH of a checkout to run (repeat for a "
                        "parent/change pair; runs alternate per seed and "
                        "land in OUT/NAME); default: this checkout into OUT")
    r = sub.add_parser("report", help="summarise a run directory")
    r.add_argument("run_dir")
    r.add_argument("--compare", help="base run directory (the parent)")
    args = parser.parse_args()
    (collect if args.command == "collect" else report)(args, bench)


if __name__ == "__main__":
    main()
