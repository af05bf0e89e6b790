#!/usr/bin/env python3
"""Steadiness and exactness check of the benchmark.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--sets 2] [--seeds 1-10] [--trace-seeds 1,2]
                                [--workloads sweep-1c,...] [--json out.json]

Each set runs every workload untraced once per seed and traced once per
trace seed. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json; `!` marks a spread over
a third of the bound, `!!` one over the bound. With two or more sets it
also compares each set's medians with the first set's, and checks that
every count metric of a traced run repeats exactly between sets for the
same workload and seed; a count that does not is a benchmark defect,
not noise. Exits 1 if any run fails, any output is incorrect, or any
count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics derived from host time; every other per-layer metric
# is computed from simulator or server counts and must repeat exactly.
TIMED_UNITS = {"ms", "us", "ns", "s"}
TIMED_NAMES = {"verify.observer_overhead", "trace.overhead"}


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1,2")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    seeds = seeds_arg(args.seeds)
    trace_seeds = seeds_arg(args.trace_seeds)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    seconds = bench["run_seconds"]

    ok = True
    sets = []
    for s in range(args.sets):
        runs = {"e2e": {}, "trace": {}}
        for w in workloads:
            for seed in seeds:
                r = run_once(w, seed, seconds, 0)
                ok &= bool(r["correct"]) and r["failed"] == 0
                runs["e2e"].setdefault(w, []).append(r)
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
            for seed in trace_seeds:
                r = run_once(w, seed, seconds, 1)
                ok &= bool(r["correct"]) and r["failed"] == 0
                runs["trace"][f"{w}/{seed}"] = r
                print(f"set {s + 1} {w} seed {seed} traced: "
                      f"overhead {r['metrics']['trace.overhead']['value']:.4f} "
                      f"defects {r['metrics']['bench.count_defects']['value']:.0f}", flush=True)
        sets.append(runs)

    print("\n| workload | metric | bound | " + " | ".join(
        f"set {i + 1} median [q1, q3] spread" for i in range(len(sets))) + " | 2nd vs 1st |")
    print("|---|---|---|" + "---|" * len(sets) + "---|")
    for w in workloads:
        for name, m in e2e.items():
            cells, medians = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs["e2e"][w]]
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                flag = "" if name == "setup_s" else (
                    " !!" if sp > m["bound"] else (" !" if sp > m["bound"] / 3 else ""))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {sp:.3f}{flag}")
            shift = ""
            if len(medians) > 1:
                wb = max(worse_by(medians[0], x, m["better"]) for x in medians[1:])
                shift = f"{wb:+.3f}" + (" !!" if wb > m["bound"] else "")
            print(f"| {w} | {name} | {m['bound']} | " + " | ".join(cells) + f" | {shift} |")

    print("\nTracing overhead (traced / untraced median scaled pass CPU time - 1):")
    for key in sets[0]["trace"]:
        print(f"  {key}: " + ", ".join(
            f"{runs['trace'][key]['metrics']['trace.overhead']['value']:.4f}" for runs in sets))

    if len(sets) > 1:
        bad = 0
        for key, first in sets[0]["trace"].items():
            for runs in sets[1:]:
                other = runs["trace"][key]
                for name, unit in units.items():
                    if unit in TIMED_UNITS or name in TIMED_NAMES:
                        continue
                    a = first["metrics"][name]["value"]
                    b = other["metrics"][name]["value"]
                    if a != b:
                        bad += 1
                        print(f"DEFECT: {key} count {name} differs between sets: {a} vs {b}")
        print(f"\nExactness: {bad} count metrics differ between sets "
              f"({len(sets[0]['trace'])} traced runs per set)")
        ok &= bad == 0
    if args.json:
        with open(args.json, "w") as f:
            json.dump(sets, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
