#!/usr/bin/env python3
"""Steadiness record for the benchmark.

Runs every workload of BENCHMARK.json on a series of seeds, in sets, and
writes per set, workload and end-to-end metric the median and quartiles
(statistics.quantiles(n=4)) and the quartile spread as a share of the
median. The sets are interleaved run by run (set 1 seed i, set 2 seed i,
then seed i + 1), so slow drift of the host's speed falls on every set
alike rather than showing as a shift between them. Then it runs the
traced run twice on one seed per workload: the benchmark itself fails a
run whose exact counts differ from an earlier run of the same binary and
seed, and the record keeps those counts.

    python3 perfbench/steady.py --out perfbench/STEADINESS.json   # the committed record
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads sweep-cold   # quick look

Run it from the root of the checkout.
"""
import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {out}")
    print(f"  {workload:12s} seed {seed:4d} trace {trace} {took:5.1f}s " +
          " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(out["metrics"].items())
                   if trace == 0), flush=True)
    return out


def exact_counts(workload, seed):
    """The exact counts the benchmark recorded for workload and seed, from
    the newest record under .bench_build/exact (one file per binary)."""
    paths = glob.glob(os.path.join(".bench_build", "exact", f"*-{workload}-{seed}.json"))
    return json.load(open(max(paths, key=os.path.getmtime)))


def fleet_parameters():
    """The stated fleet parameters, read from the constants in fleet.go."""
    src = open("perfbench/fleet.go").read()
    out = {}
    for name in ("fleetPoll", "fleetLeaseBatch", "fleetSlots", "fleetMaxCellsPerS"):
        m = re.search(r"\b%s\s*=\s*([^\n/]+)" % name, src)
        out[name] = m.group(1).strip() if m else None
    return out


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=3000)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    record = {"run_seconds": bench["run_seconds"], "runs_per_set": args.runs,
              "order": "interleaved: for each i, every workload on set 1 seed i, then on set 2 seed i",
              "bounds": {m["name"]: m["bound"] for m in metrics},
              "fleet_parameters": fleet_parameters(), "sets": []}
    seeds = [[args.seed_base + 100 * s + i for i in range(args.runs)] for s in range(args.sets)]
    vals = [{w: {m["name"]: [] for m in metrics} for w in names} for _ in seeds]
    for i in range(args.runs):
        for s in range(args.sets):
            print(f"set {s + 1} run {i + 1}", flush=True)
            for w in names:
                out = run(bench, w, seeds[s][i], 0)
                for m in metrics:
                    vals[s][w][m["name"]].append(out["metrics"][m["name"]]["value"])
    for s in range(args.sets):
        record["sets"].append({"seeds": seeds[s],
                               "workloads": {w: {m: summarize(v) for m, v in vals[s][w].items()}
                                             for w in names}})

    ok = True
    record["shift"] = {w: {} for w in names}
    for m in metrics:
        for w in names:
            sets = [st["workloads"][w][m["name"]] for st in record["sets"]]
            line = " ".join(f"med={x['median']:.6g} spread={x['spread']:.4f}" for x in sets)
            flags = []
            if m["name"] != "setup_s" and any(x["spread"] > m["bound"] / 3 for x in sets):
                flags.append("SPREAD>bound/3")
            if len(sets) > 1:
                a, b = sets[0]["median"], sets[1]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                record["shift"][w][m["name"]] = worse
                flags.append(f"shift={worse:+.4f}")
                if worse > m["bound"]:
                    flags.append("SHIFT>bound")
            if any(f.startswith("SPREAD") or f.startswith("SHIFT>") for f in flags):
                ok = False
            print(f"{w:12s} {m['name']:16s} bound={m['bound']} {line} {' '.join(flags)}")

    # run() stops at a non-zero exit, which is how the benchmark reports
    # exact counts that did not repeat.
    record["exact"] = {}
    for w in names:
        run(bench, w, args.seed_base, 1)
        run(bench, w, args.seed_base, 1)
        record["exact"][w] = {"seed": args.seed_base, "traced_runs": 2,
                              "values": exact_counts(w, args.seed_base)}
        print(f"{w:12s} exact counts repeated over two traced runs", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
