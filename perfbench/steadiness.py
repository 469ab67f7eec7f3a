#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steadiness.py --workload search --seeds 1-10 [--seconds 15]
        [--repeat-seeds 2]

Runs `perfbench/run.py` once per seed, then reports each end-to-end
metric's median, quartiles and spread (inter-quartile range over the
median, as `statistics.quantiles(values, n=4)` gives them) against its
bound in BENCHMARK.json. With `--repeat-seeds N` it re-runs the first N
seeds and checks that every deterministic count repeats exactly. Exits
non-zero when a run fails, a result is incorrect, any spread (`setup_s`
included) exceeds its bound, or a count differs.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.perf_counter() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed ({p.returncode}): {p.stderr[-2000:]}")
    counts = next((json.loads(l[len("# counts "):]) for l in lines if l.startswith("# counts ")), {})
    raw = re.search(r"(?m)^# raw: (?:wall|pass) ([0-9.]+) s", p.stdout)
    return json.loads(lines[-1]), counts, float(raw.group(1)) if raw else None, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--repeat-seeds", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    values = {m["name"]: [] for m in spec["end_to_end"]}
    counts, raw_wall = {}, []
    for seed in seeds(args.seeds):
        result, counts[seed], raw, took = run(args.workload, seed, seconds)
        ok &= result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        raw_wall.append(raw)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
              + f" raw_wall={raw} took={took:.1f}s", flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER BOUND")
        ok &= spread <= m["bound"]
        print(f"{args.workload} {m['name']}: median {med:.6g} {m['unit']} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} (bound {m['bound']}) {verdict}")
    if None not in raw_wall and len(raw_wall) > 1:
        # For comparison: the spread wall_s would have without the
        # host-speed normalisation.
        q1, med, q3 = statistics.quantiles(raw_wall, n=4)
        print(f"{args.workload} raw wall (not normalised): median {med:.6g} spread {(q3 - q1) / med:.4f}")
    for seed in seeds(args.seeds)[: args.repeat_seeds]:
        _, again, _, _ = run(args.workload, seed, seconds)
        same = again == counts[seed]
        ok &= same
        print(f"seed {seed} repeated: counts {'identical' if same else 'DIFFER'} {again}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
