#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workloads hotspot3d,cluster-tcp --seeds 1-10

It checks each result line against BENCHMARK.json (correct, no failed
ops, exactly the listed metrics). For every workload and metric it prints
the median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, beside the same
spread of the host probe (the fixed pure-Go loop timed before and after
each run), so host drift can be told from a program change. Run it from
the repository root.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want = {m["name"] for m in bench["per_layer" if args.trace == "1" else "end_to_end"]}

    for w in args.workloads.split(","):
        values, probes = {}, []
        for seed in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=400)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}\n{out.stderr}")
            if set(res["metrics"]) != want:
                sys.exit(f"{w} seed {seed}: metrics differ from BENCHMARK.json: "
                         f"missing {want - set(res['metrics'])}, extra {set(res['metrics']) - want}")
            run_probes = []
            for line in lines:
                m = re.match(r"host probe: (.*) ms", line)
                if m:
                    run_probes = [float(x) for x in m.group(1).split()]
            probes.extend(run_probes)
            for name, v in res["metrics"].items():
                values.setdefault(name, []).append(v["value"])
            print(f"{w} seed {seed}: probe_ms={statistics.median(run_probes):.4g} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        med, rel = spread(probes)
        print(f"== {w}: host.probe_ms median {med:.4g} spread {rel:.3f}")
        for name, vs in sorted(values.items()):
            if len(vs) >= 2:
                med, rel = spread(vs)
                print(f"== {w}: {name} median {med:.5g} spread {rel:.3f} (n={len(vs)})")


if __name__ == "__main__":
    main()
