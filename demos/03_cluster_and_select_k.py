"""
Clustering learners and choosing k from the diameter trace
==========================================================

k-means with farthest-first seeding, swept from k_max down to 1.  The
average cluster diameter stays small while clusters are pure and jumps
when two genuine groups are first forced to merge; the k just before
that jump wins.
"""

import os

import numpy as np

from learntags import (
    FeaturePoint,
    apply_normalization,
    export_parcoords,
    fit_normalization,
    largest_cluster,
    select_k,
)

# three synthetic learner groups in the 5-D attribute space
rng = np.random.default_rng(3)
centers = [(1, 2, 0.4, 0.6, 10), (4, 6, 0.9, 0.2, 45), (2, 5, 0.1, 0.8, 30)]
points = []
for g, center in enumerate(centers):
    for i in range(14):
        coords = tuple(float(c + o) for c, o in
                       zip(center, rng.normal(0, 0.03, 5)))
        points.append(FeaturePoint(f"u{g}{i:02d}", coords))

normalized = apply_normalization(points, fit_normalization(points))
selection = select_k(normalized, k_max=8, gamma=2.0, seed=3)

print("k sweep (largest to smallest):")
for entry in selection.trace:
    print(f"  k={entry.k}: sse={entry.sse:8.4f} "
          f"avg_diameter={entry.avg_diameter:.4f}")

chosen = selection.clustering
print(f"\nchosen k = {chosen.k}")
members = largest_cluster(chosen)
print(f"largest cluster has {len(members)} learners, e.g. {sorted(members)[:5]}")

os.makedirs("demos/out", exist_ok=True)
export_parcoords(normalized, chosen.assignment, "demos/out/parcoords.svg")
print("wrote demos/out/parcoords.svg")

# the sweep's exact floats, in the format of `learntags tag --trace`
# without the resource column
with open("demos/out/ksweep.tsv", "w", encoding="utf-8") as fh:
    for entry in selection.trace:
        fh.write(f"{entry.k}\t{entry.sse!r}\t{entry.avg_diameter!r}\n")
print("wrote demos/out/ksweep.tsv")
