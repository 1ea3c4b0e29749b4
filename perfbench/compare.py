#!/usr/bin/env python3
"""Run-vs-run comparison for the repository benchmark.

Runs the command of BENCHMARK.json in one or two checkouts, once per
workload and seed, alternating for each seed which checkout runs first.
Then it prints, per workload and end-to-end metric, each side's median and
quartiles. With two checkouts it also prints the change's pair win count
and whether it stays within the metric's bound; with one it prints the
spread (interquartile range as a share of the median) against the bound.

  python3 perfbench/compare.py --base ../parent --change . --seeds 1-10 --out runs.jsonl
  python3 perfbench/compare.py --base . --workloads dense4 --seeds 1-5
  python3 perfbench/compare.py --from runs.jsonl

Verdicts follow the rules the benchmark is judged by: a change regresses
when its median is worse than the base's by more than the bound; a metric
whose base spread exceeds the bound is unresolved unless every change run
beats every base run; a gain needs wins in nine tenths of the pairs and a
median difference larger than the base's interquartile range.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The benchmark definition of the checkout this script belongs to: its run
# length, workloads, metrics and bounds.
SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def parse_seeds(text):
    """'1-10', '3,7,9' or a mix of both, as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def run_once(checkout, workload, seed, seconds):
    """Runs the benchmark once in checkout and returns its result line."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    for line in lines:
        if line.startswith("FAIL "):
            print(f"{checkout}: {workload} seed {seed}: {line}", file=sys.stderr)
    return json.loads(lines[-1])


def run_all(args, spec):
    sides = [("base", args.base)] + ([("change", args.change)] if args.change else [])
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    records = []
    out = open(args.out, "a") if args.out else None
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                result = run_once(checkout, workload, seed, seconds)
                record = {"side": side, "workload": workload, "seed": seed, "result": result}
                records.append(record)
                if out:
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
                print(f"{workload} seed {seed} {side}: {values}", file=sys.stderr)
    if out:
        out.close()
    return records


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def report(records, spec):
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {}
        for r in records:
            if r["workload"] == workload:
                runs.setdefault(r["side"], {})[r["seed"]] = r["result"]
        print(f"\n== {workload}")
        for side, by_seed in runs.items():
            failed = sum(res["failed"] for res in by_seed.values())
            attempted = sum(res["attempted"] for res in by_seed.values())
            print(f"{side}: {len(by_seed)} runs, {failed} of {attempted} operations failed")
        base, change = runs.get("base", {}), runs.get("change")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            bvals = [res["metrics"][name]["value"] for res in base.values()]
            if not bvals:
                continue
            b1, bmed, b3 = quartiles(bvals)
            spread = (b3 - b1) / bmed if bmed else float("inf")
            row = f"  {name:13} base {bmed:11.6g} [{b1:.6g}, {b3:.6g}]"
            if change is None:
                state = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                print(f"{row}  spread {spread:.4f}  bound {bound}  {state}")
                continue

            def better(x, y):
                return x < y if lower else x > y

            cvals = [res["metrics"][name]["value"] for res in change.values()]
            c1, cmed, c3 = quartiles(cvals)
            seeds = sorted(base.keys() & change.keys())
            wins = sum(better(change[s]["metrics"][name]["value"], base[s]["metrics"][name]["value"]) for s in seeds)
            worse = ((cmed - bmed) if lower else (bmed - cmed)) / bmed if bmed else 0.0
            if worse > bound:
                state = "REGRESSION"
            elif spread > bound and not all(better(c, b) for c in cvals for b in bvals):
                state = "unresolved"
            elif worse < 0 and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > b3 - b1:
                state = "gain"
            else:
                state = "within bound"
            delta = (cmed - bmed) / bmed if bmed else 0.0
            print(f"{row}  change {cmed:11.6g} [{c1:.6g}, {c3:.6g}]  {delta:+.2%}  "
                  f"wins {wins}/{len(seeds)}  bound {bound}  {state}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="checkout of the parent, or the only side")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workloads", help="comma-separated workloads (default: all)")
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 (default) or 3,7,9")
    ap.add_argument("--out", help="append every run to this JSONL file")
    ap.add_argument("--from", dest="runs", help="report a JSONL file written by --out; run nothing")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    if args.runs:
        with open(args.runs) as f:
            records = [json.loads(line) for line in f if line.strip()]
    elif args.base:
        records = run_all(args, spec)
    else:
        ap.error("give --base (and --change) to run, or --from to report")
    report(records, spec)


if __name__ == "__main__":
    main()
