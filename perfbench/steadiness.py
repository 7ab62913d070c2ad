"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from BENCHMARK.json.  With ``--out`` it also
writes those numbers, the machine's core count and the Python, numpy
and scipy versions to a JSON file, the form ``baseline.json`` is in.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 --workloads skewed
    python3 perfbench/steadiness.py --seeds 0 1 2 3 4 5 6 7 8 9 \\
        --traced-seed 88 --out perfbench/baseline.json
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    samples = re.search(r"samples (\{.*\})", proc.stdout)
    result["samples"] = ast.literal_eval(samples.group(1)) if samples else {}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def versions() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None,
                        help="also make one traced run per workload with this seed")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": args.seconds, "seeds": args.seeds, "machine": versions(),
               "end_to_end": {}, "per_layer": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        table = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            table[name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:8} {name:18} median {stats['median']:12.6g} {stats['unit']:5} "
                  f"spread {stats['spread']:7.4f}  bound {bound}{flag}", flush=True)
            print(" " * 9 + " ".join(f"{v:.5g}" for v in stats["values"]), flush=True)
        table["attempted"] = sum(r["attempted"] for r in runs)
        table["failed"] = sum(r["failed"] for r in runs)
        table["run_elapsed_s_max"] = max(r["elapsed_s"] for r in runs)
        table["samples_per_run_min"] = {k: min(r["samples"][k] for r in runs)
                                        for k in runs[0]["samples"]}
        print(f"{workload:8} {table['failed']} of {table['attempted']} operations failed; "
              f"longest run {table['run_elapsed_s_max']:.1f} s", flush=True)
        summary["end_to_end"][workload] = table
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, args.seconds, 1)
            summary["per_layer"][workload] = {
                "seed": args.traced_seed,
                **{k: v["value"] for k, v in traced["metrics"].items()},
            }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
