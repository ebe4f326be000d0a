#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and prints each metric's median, quartiles and spread (interquartile
distance as a share of the median).

    python3 perfbench/spread.py --workloads warm-small,bulk-where --runs 10 --seconds 30
    python3 perfbench/spread.py --workloads warm-small --first-seed 11 \
        --against perfbench/baseline.json --baseline repeat.json

Run it from the root of a checkout. It checks each end-to-end metric's
spread against the metric's bound in BENCHMARK.json, and with --against
each median against the median an earlier set of runs recorded there. It
exits 1 if any run fails a check, any spread passes its bound, or any
median is worse than the earlier one by more than the bound.
--baseline writes the figures, with the machine they were measured on,
to a file; with --trace 1 they go under each workload's "per_layer" key
of an existing file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    rates = next((l[len("rates: "):] for l in lines if l.startswith("rates: ")), "")
    for l in lines:
        if l.startswith(("check failed", "run invalid")):
            print(f"{workload} seed {seed}: {l}")
    return json.loads(lines[-1]), rates


def environment():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "go": go, "cpu": model}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--baseline", help="write medians, quartiles, bounds and the environment to this file")
    ap.add_argument("--against", help="compare medians with those of an earlier --baseline file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    rates = {}
    ok = True
    summary = {}
    for w in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            res, rates[w] = run_once(w, args.first_seed + i, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} run {i}: correct={res['correct']} failed={res['failed']}")
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        print(f"== {w}: {args.runs} runs")
        summary[w] = {}
        for k in sorted(values):
            v = values[k]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and args.trace == 0:
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  over a third of bound"
            print(f"{k:28s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:6.3f}{flag}")
            print(" " * 29 + " ".join(f"{x:.4g}" for x in v))
            summary[w][k] = {"unit": units.get(k), "median": med, "q1": q1, "q3": q3,
                             "spread": spread if med else None, "bound": bound, "values": v}
            then = earlier.get(w, {}).get("metrics", {}).get(k)
            if bound is not None and then:
                # Positive when this set's median is worse than the earlier one.
                worse = (med - then["median"]) / then["median"] * (1 if lower[k] else -1)
                flag = ""
                if worse > bound:
                    flag, ok = "  WORSE BY MORE THAN BOUND", False
                print(f"{'':28s} against {then['median']:12.4f}: worse by {worse:+.3f} (bound {bound}){flag}")
                summary[w][k]["worse_than_earlier"] = worse
    print(json.dumps(summary))
    if args.baseline:
        seeds = [args.first_seed, args.first_seed + args.runs - 1]
        if args.trace:
            with open(args.baseline) as f:
                out = json.load(f)
            for w in summary:
                out["workloads"][w]["per_layer"] = {"runs": args.runs, "seeds": seeds, "metrics": summary[w]}
        else:
            out = {"environment": environment(), "runs": args.runs, "seconds": args.seconds, "seeds": seeds,
                   "measured": [started, time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())],
                   "against": args.against,
                   "workloads": {w: {"why": whys.get(w), "rates": rates.get(w), "metrics": summary[w]}
                                 for w in summary}}
        with open(args.baseline, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
