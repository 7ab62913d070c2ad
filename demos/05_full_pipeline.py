"""
The full tagging pipeline end to end
====================================

Synthesizes a rating corpus, runs subsets -> quantification ->
clustering -> mining in one call, prints the tag report, saves the
store, and ranks the tagged resources against a single learner.
"""

import os

import numpy as np

from learntags import (
    PipelineConfig,
    build_all_subsets,
    generate_profiles,
    match_resources,
    quantify_nominal,
    render_report,
    run,
    save_store,
)
from learntags.ingest import RatingRecord

rng = np.random.default_rng(14)
learners = [f"u{i:03d}" for i in range(300)]
profiles = {p.learner_id: p for p in generate_profiles(learners, seed=14)}
records = [
    RatingRecord(learners[int(rng.integers(300))],
                 f"b{int(rng.integers(24)):02d}",
                 int(rng.integers(1, 11)))
    for _ in range(1500)
]

config = PipelineConfig(seed=14)
store = run(config, records, profiles)

tagged = [rid for rid, cloud in store.items() if cloud.tags]
skipped = [rid for rid, cloud in store.items() if cloud.skipped]
print(f"tagged {len(tagged)} resources, skipped {len(skipped)}\n")
print(render_report(store))

os.makedirs("demos/out", exist_ok=True)
save_store(store, "demos/out/store.json")
print("wrote demos/out/store.json")

# rank the store against one learner's own attribute profile
subsets = build_all_subsets(records, config.delta0)
ordered = [subsets[rid] for rid in sorted(subsets)]
details = quantify_nominal(ordered, profiles, config)
strategy_values = details["strategy"].values
presentation_values = details["presentation"].values
learner = profiles["u007"]
print(f"\nbest matches for u007 (skill {learner.current_skill}->"
      f"{learner.target_skill}, strategy {learner.strategy}, "
      f"presentation {learner.presentation}, {learner.hours}h):")
for rid, score in match_resources(learner, store, strategy_values,
                                  presentation_values, top_n=5):
    print(f"  {rid}  score {score:.3f}")
