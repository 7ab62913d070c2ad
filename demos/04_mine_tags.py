"""
Mining frequent attribute itemsets into a tag
=============================================

Each learner in a cluster is one row of five item codes, one per
attribute, with learning time as its decade bin; `learner_table` codes
these rows once per run, and quantification reads the same table.  The
paper's Apriori step keeps the itemsets whose support clears the level
sl; since a row supports only its own 31 attribute subsets, `apriori`
counts those directly.  An itemset is a five-field tuple with 0 for an
absent attribute.  The winning tag is the largest frequent itemset, then
the most supported, with ties kept as a multi-tag cloud; `tag_itemsets`
picks those winners from the same counts without listing the rest.
"""

from learntags import (
    Tag,
    apriori,
    discretize_time,
    generate_profiles,
    learner_table,
    render_tag,
    tag_itemsets,
)
from learntags.ingest import RatingRecord

# quantified values would come from the NMF stage; fixed here for display
strategy_values = {1: 0.9, 2: 1.4, 3: 2.2, 4: 1.1, 5: 0.5}
presentation_values = {1: 1.8, 2: 0.7, 3: 1.2, 4: 2.5, 5: 0.9}

profiles = {p.learner_id: p for p in generate_profiles([f"u{i:02d}" for i in range(18)], seed=21)}
# every learner rates resource "r" highly, so the cluster is all of them
table = learner_table([RatingRecord(lid, "r", 10) for lid in profiles], profiles, delta0=6)
items = table.items[table.members[0]]
print(f"{len(items)} learners, e.g. u00 as (a1, a2, a3, a4, hours bin): "
      f"{tuple(items[0].tolist())}")

frequent = apriori(items, sl=0.1)
by_size: dict[int, int] = {}
for itemset in frequent:
    size = sum(1 for v in itemset.fields if v)
    by_size[size] = by_size.get(size, 0) + 1
print(f"\nfrequent itemsets at sl=0.1: {len(frequent)}")
for size in sorted(by_size):
    print(f"  size {size}: {by_size[size]}")

winners = tag_itemsets(items, sl=0.1)
print(f"\nwinning itemsets ({len(winners)}, support "
      f"{winners[0].support:.2f}):")
for winner in winners:
    a1, a2, a3, a4, hours_bin = winner.fields
    tag = Tag(
        current_skill=a1 or None,
        target_skill=a2 or None,
        time_bin=discretize_time(10 * hours_bin) if hours_bin else None,
        strategy_value=strategy_values[a3] if a3 else None,
        presentation_value=presentation_values[a4] if a4 else None,
        strategy=a3 or None,
        presentation=a4 or None,
    )
    print(f"  {winner.fields} -> {render_tag(tag)}")
