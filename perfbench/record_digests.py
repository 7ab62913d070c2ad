"""Record the report and ranking digests that run.py checks outputs against.

For each workload and seed it generates the run's corpora, runs one tag
job on each and one match query per query learner, checks the outputs
as run.py does, and stores the digest of each report and of each ranking
(in the order run.py draws the learners) in ``digests.json``.  Record
with the code whose outputs are the reference; a change that alters an
output on purpose must say so and re-record.

    python3 perfbench/record_digests.py --seeds 0 1 2 --workloads planted
"""
from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys

import run

PATH = os.path.join(run.HERE, "digests.json")


def record(workload: str, seed: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=0, scale=1.0)
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{workload}-{seed}-{os.getpid()}")
    bench = run.Bench(args, workdir)
    bench.recorded = None
    try:
        bench.prepare()
        for corpus in bench.corpora:
            corpus.inputs = bench.load_inputs(corpus)
            bench.job_op(corpus)
        for i in range(run.CORPORA * run.QUERY_LEARNERS):
            bench.query_op(i)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bench.failed:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: "
                         + "; ".join(bench.problems[:3]))
    return {
        "reports": [run.digest(c.ref_report) for c in bench.corpora],
        "queries": [[run.query_digest(c.expected[lid]) for lid in c.learners]
                    for c in bench.corpora],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    run.load_learntags()
    entries = {(w, s): record(w, s) for w in args.workloads for s in args.seeds}
    with open(PATH, "r+", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # recorders for other workloads may run alongside
        recorded = json.load(fh)
        for (workload, seed), entry in entries.items():
            recorded.setdefault(workload, {})[str(seed)] = entry
        fh.seek(0)
        fh.truncate()
        json.dump(recorded, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
