"""
The full tagging pipeline end to end
====================================

Synthesizes a rating corpus, runs subsets -> quantification ->
clustering -> mining in one call, prints the tag report, saves the
store, and ranks the tagged resources against learners by the parameter
ids their tags carry, as `learntags match` does.  The rankings go to
`demos/out/match.tsv`, and the run's k-sweep trace of every clustered
resource goes to `demos/out/run_ksweep.tsv` in the `learntags tag
--trace` format.
"""

import os

import numpy as np

from learntags import (
    PipelineConfig,
    generate_profiles,
    load_store,
    match_resources,
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
ksweep: list[str] = []


def trace_hook(rid, trace):
    for entry in trace:
        ksweep.append(f"{rid}\t{entry.k}\t{entry.sse!r}\t{entry.avg_diameter!r}\n")


store = run(config, records, profiles, trace_hook=trace_hook)

tagged = [rid for rid, cloud in store.items() if cloud.tags]
skipped = [rid for rid, cloud in store.items() if cloud.skipped]
print(f"tagged {len(tagged)} resources, skipped {len(skipped)}\n")
print(render_report(store))

os.makedirs("demos/out", exist_ok=True)
save_store(store, "demos/out/store.json")
print("wrote demos/out/store.json")
with open("demos/out/run_ksweep.tsv", "w", encoding="utf-8") as fh:
    fh.writelines(ksweep)
print("wrote demos/out/run_ksweep.tsv")

# rank the stored resources against learners, reading the saved store back:
# each tag carries the parameter ids that a learner's profile is compared with
stored = load_store("demos/out/store.json")
learner = profiles["u007"]
print(f"\nbest matches for u007 (skill {learner.current_skill}->"
      f"{learner.target_skill}, strategy {learner.strategy}, "
      f"presentation {learner.presentation}, {learner.hours}h):")
for rid, score in match_resources(learner, stored, top_n=5):
    print(f"  {rid}  score {score:.3f}")

with open("demos/out/match.tsv", "w", encoding="utf-8") as fh:
    for lid in learners[::20]:
        for rid, score in match_resources(profiles[lid], stored, top_n=5):
            fh.write(f"{lid}\t{rid}\t{score:.3f}\n")
print("wrote demos/out/match.tsv")
