"""
Quantifying the nominal attributes with NMF
===========================================

Learning strategy ids 1..5 are categories with no inherent order.  This
walks the chain that turns them into comparable numbers: co-occurrence
counting over the high-rating subsets, non-negative factorization,
feature-based orderings, symmetrization, and the final per-id values.
`learner_table` codes every subset member once, in the pass over the
ratings that finds the subsets; one `quantify_nominal` call reads that
table and runs the chain for strategy and presentation alike, from one
co-occurrence pass.  The walk-through prints strategy, and the full
report of both attributes goes to demos/out/quantify.json.
"""

import json
import os

import numpy as np

from learntags import (
    PipelineConfig,
    export_values,
    extreme_pairs,
    generate_profiles,
    learner_table,
    quantification_report,
    quantify_nominal,
)
from learntags.ingest import RatingRecord

rng = np.random.default_rng(8)
learners = [f"u{i:03d}" for i in range(120)]
profiles = {p.learner_id: p for p in generate_profiles(learners, seed=8)}
records = [
    RatingRecord(lid, f"b{rng.integers(12):02d}", int(rng.integers(1, 11)))
    for lid in learners for _ in range(6)
]

config = PipelineConfig(seed=8)
table = learner_table(records, profiles, config.delta0)
details = quantify_nominal(table, config)
detail = details["strategy"]

print("co-occurrence of strategy ids across subset members:")
print(detail.cooccurrence)

trace = detail.factors.error_trace
print(f"\nNMF error: {trace[0]:.2f} -> {trace[-1]:.2f} "
      f"over {len(trace) - 1} iterations")

print("\nsymmetrized similarity:")
print(np.round(detail.similarity, 2))

print("\nquantified values (row means of the similarity):")
for sid in sorted(detail.values):
    print(f"  strategy {sid}: {detail.values[sid]:.3f}")

nearest, farthest = extreme_pairs(detail.values)
print(f"\nmost similar strategies: {nearest}")
print(f"least similar strategies: {farthest}")

os.makedirs("demos/out", exist_ok=True)
export_values(detail.values, "strategy", "demos/out/strategy_values.svg")
print("wrote demos/out/strategy_values.svg")

# the same bytes `learntags quantify` prints for this corpus
with open("demos/out/quantify.json", "w", encoding="utf-8") as fh:
    fh.write(json.dumps(quantification_report(details), indent=2, sort_keys=True) + "\n")
print("wrote demos/out/quantify.json")
