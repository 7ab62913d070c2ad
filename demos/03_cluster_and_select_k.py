"""
Clustering learners and choosing k from the diameter trace
==========================================================

k-means with farthest-first seeding, swept from k_max down to 1.  The
average cluster diameter stays small while clusters are pure and jumps
when two genuine groups are first forced to merge; the k just before
that jump wins.  `group_rows` runs, on one subset, the chain `run`
applies to all subsets at once: min-max normalization, the k sweep and
the pick of the largest cluster, on one row per learner in learner-id
order.
"""

import os

import numpy as np

from learntags import export_parcoords, group_rows

# three synthetic learner groups in the 5-D attribute space; learner
# u{group}{i:02d} is row 14 * group + i, so rows are in learner-id order
rng = np.random.default_rng(3)
centers = [(1, 2, 0.4, 0.6, 10), (4, 6, 0.9, 0.2, 45), (2, 5, 0.1, 0.8, 30)]
ids = [f"u{g}{i:02d}" for g in range(len(centers)) for i in range(14)]
coords = np.array([np.asarray(center) + rng.normal(0, 0.03, 5)
                   for center in centers for _ in range(14)])

group = group_rows(coords, k_max=8, gamma=2.0, seed=3)

print("k sweep (largest to smallest):")
for entry in group.trace:
    print(f"  k={entry.k}: sse={entry.sse:8.4f} "
          f"avg_diameter={entry.avg_diameter:.4f}")

print(f"\nchosen k = {group.k}")
members = [lid for lid, keep in zip(ids, group.largest) if keep]
print(f"largest cluster has {len(members)} learners, e.g. {members[:5]}")

os.makedirs("demos/out", exist_ok=True)
export_parcoords(group.x, group.labels, "demos/out/parcoords.svg")
print("wrote demos/out/parcoords.svg")

# the sweep's exact floats, in the format of `learntags tag --trace`
# without the resource column
with open("demos/out/ksweep.tsv", "w", encoding="utf-8") as fh:
    for entry in group.trace:
        fh.write(f"{entry.k}\t{entry.sse!r}\t{entry.avg_diameter!r}\n")
print("wrote demos/out/ksweep.tsv")
