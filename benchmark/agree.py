#!/usr/bin/env python3
"""Acceptance evidence for the benchmark: do two sets of runs of the same
code agree within the benchmark's own bounds?

    python3 benchmark/agree.py --agree    # the set twice on seed 42, once on seed 7
    python3 benchmark/agree.py --spread   # seeds 1-10 per workload, as the driver does

`--agree` is the issue's acceptance check. `--spread` is the driver's: ten
runs per workload, each on another seed, quartile distance over median
against the bound. Its medians and spreads are the baseline table of
README.md.

Run from the root of the repository. Every run is the command of
BENCHMARK.json with the driver's arguments appended, so what is checked
here is what the driver runs. Exits non-zero on any breach.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(manifest, workload, seed, trace=0):
    cmd = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: not correct: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, took


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    gap = (second - first) / first
    return gap if metric["better"] == "lower" else -gap


def agree(manifest):
    """The set twice on one seed: every end-to-end metric of the second set
    within its bound of the first. Then once on another seed, which only
    has to run correct."""
    breaches = 0
    print(f"{'workload':<9} {'metric':<22} {'set 1':>14} {'set 2':>14} {'worse by':>9} {'bound':>6}")
    sets = []
    for _ in range(2):
        sets.append({w["name"]: run_once(manifest, w["name"], 42)[0] for w in manifest["workloads"]})
    for w in manifest["workloads"]:
        for metric in manifest["end_to_end"]:
            a, b = (s[w["name"]][metric["name"]] for s in sets)
            gap = worse_by(metric, a, b)
            flag = ""
            if gap > metric["bound"]:
                breaches += 1
                flag = "  BREACH"
            print(f"{w['name']:<9} {metric['name']:<22} {a:>14.6f} {b:>14.6f} {gap:>+9.4f} {metric['bound']:>6}{flag}")
    for w in manifest["workloads"]:
        values, took = run_once(manifest, w["name"], 7)
        print(f"{w['name']:<9} seed 7 correct in {took:.1f} s: " + "  ".join(
            f"{m['name']} {values[m['name']]:.6f}" for m in manifest["end_to_end"]))
    return breaches


def spread(manifest):
    """Ten runs per workload, on seeds 1 to 10: the distance between
    the quartiles of each end-to-end metric, as a share of its median,
    against the metric's bound (setup_s excepted, as the driver excepts
    it). Target: below a third of the bound."""
    breaches = 0
    print(f"{'workload':<9} {'metric':<22} {'median':>14} {'iqr/median':>11} {'bound':>6} {'slowest run':>12}")
    for w in manifest["workloads"]:
        runs = [run_once(manifest, w["name"], seed) for seed in range(1, 11)]
        slowest = max(took for _, took in runs)
        for metric in manifest["end_to_end"]:
            values = [values[metric["name"]] for values, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = (q3 - q1) / median
            flag = ""
            if metric["name"] != "setup_s" and share > metric["bound"]:
                breaches += 1
                flag = "  BREACH"
            elif share > metric["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"{w['name']:<9} {metric['name']:<22} {median:>14.6f} {share:>11.5f} {metric['bound']:>6} {slowest:>11.1f}s{flag}")
    return breaches


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--agree", action="store_true")
    mode.add_argument("--spread", action="store_true")
    args = parser.parse_args()
    manifest = load_manifest()
    breaches = agree(manifest) if args.agree else spread(manifest)
    print(f"{breaches} breach(es)")
    sys.exit(1 if breaches else 0)


if __name__ == "__main__":
    main()
