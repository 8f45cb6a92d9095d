#!/usr/bin/env python3
"""Steadiness check: run the benchmark several times per workload, each
with another seed (or, with --fixed-seed, each with the same one), and
print every end-to-end metric's median, quartiles and spread
(q3 - q1) / median, with quartiles as statistics.quantiles(n=4) gives
them, next to the bound BENCHMARK.json gives it. Seeds 1-10 mix the
host's noise with the work that depends on the seed; a fixed seed
measures the noise alone.

    python3 rmpbench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--fixed-seed N] [--workload NAME ...]

Per-run results are appended to .bench_build/steadiness.jsonl; the
summary goes to stdout as a markdown table. README.md records the
figures this produced and the bounds derived from them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--fixed-seed", type=int,
                    help="run every time with this seed")
    ap.add_argument("--workload", action="append", choices=names)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".bench_build" / "steadiness.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in a.workload or names:
        runs = []
        seeds = ([a.fixed_seed] * a.runs if a.fixed_seed is not None else
                 range(a.first_seed, a.first_seed + a.runs))
        for seed in seeds:
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed} failed:\n{p.stderr[-2000:]}")
            res = json.loads(lines[-1])
            res.update(workload=w, seed=seed, fixed=a.fixed_seed is not None,
                       started=t0, wall=time.time() - t0)
            with log.open("a") as f:
                f.write(json.dumps(res) + "\n")
            runs.append(res)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {w} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.4f} | {bounds[m['name']]} |", flush=True)


if __name__ == "__main__":
    main()
