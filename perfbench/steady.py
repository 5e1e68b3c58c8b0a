#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and summarise each metric.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10

For every workload and metric it prints the median, quartiles, minimum
and maximum over the runs, and the spread: the distance between the
quartiles (as `statistics.quantiles(values, n=4)` gives them) as a
share of the median, next to the metric's bound from BENCHMARK.json.
`--save FILE` keeps the raw results; `--compare FILE` also prints how
far each median moved from a saved set, which must stay within the
bound. Exits 1 if any run fails or any spread or move exceeds its
bound; `setup_s` is checked like every other metric, although a
comparison of two commits gates only its move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--save")
    p.add_argument("--compare")
    a = p.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    previous = {}
    if a.compare:
        with open(a.compare) as f:
            previous = json.load(f)
    raw, ok = {}, True
    for workload in workloads:
        runs = []
        for seed in seeds_of(a.seeds):
            result = run_once(workload, seed, seconds, a.trace)
            ok &= result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        raw[workload] = runs
        print(f"\n{workload}: {len(runs)} runs of {seconds} s")
        print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'min':>14}{'max':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values) if len(values) > 1 else None
            bound = bounds.get(name)
            verdict = ""
            if s and bound is not None:
                if s["spread"] > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif s["spread"] > bound / 3:
                    verdict = "spread over a third of bound"
                else:
                    verdict = "steady"
                old = previous.get(workload)
                if old:
                    before = statistics.median(r["metrics"][name]["value"] for r in old)
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                    worse = (s["median"] - before) / before * (1 if better == "lower" else -1)
                    verdict += f"; {worse:+.1%} vs saved"
                    if worse > bound:
                        verdict, ok = verdict + " OVER BOUND", False
            if s:
                print(f"{name:<28}{s['median']:>14.4f}{s['q1']:>14.4f}{s['q3']:>14.4f}"
                      f"{s['min']:>14.4f}{s['max']:>14.4f}{s['spread']:>9.1%}"
                      f"{'' if bound is None else format(bound, '.2f'):>7}  {verdict}")
        print(flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
