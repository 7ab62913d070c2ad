"""
Mining frequent attribute itemsets into a tag
=============================================

Each learner in a cluster becomes one transaction of five attribute
items.  The paper's Apriori step keeps the itemsets whose support clears
the level sl; since a transaction supports only its own attribute
subsets, `apriori` counts those subsets directly.  The winning tag is
the largest frequent itemset, with ties kept as a multi-tag cloud.
"""

from learntags import (
    apriori,
    generate_profiles,
    maximal_itemsets,
    render_tag,
    select_tag,
    tag_from_itemset,
    transaction_from_profile,
)

profiles = generate_profiles([f"u{i:02d}" for i in range(18)], seed=21)
transactions = [transaction_from_profile(p) for p in profiles]
print(f"{len(transactions)} transactions, e.g.:")
for item in sorted(transactions[0].items, key=lambda i: i.attribute):
    print(f"  a{item.attribute} = {item.value}")

frequent = apriori(transactions, sl=0.1)
by_size: dict[int, int] = {}
for itemset in frequent:
    by_size[len(itemset.items)] = by_size.get(len(itemset.items), 0) + 1
print(f"\nfrequent itemsets at sl=0.1: {len(frequent)}")
for size in sorted(by_size):
    print(f"  size {size}: {by_size[size]}")
print(f"maximal among them: {len(maximal_itemsets(frequent))}")

winners = select_tag(frequent)
print(f"\nwinning itemsets ({len(winners)}, support "
      f"{winners[0].support:.2f}):")

# quantified values would come from the NMF stage; fixed here for display
strategy_values = {1: 0.9, 2: 1.4, 3: 2.2, 4: 1.1, 5: 0.5}
presentation_values = {1: 1.8, 2: 0.7, 3: 1.2, 4: 2.5, 5: 0.9}
for winner in winners:
    tag = tag_from_itemset(winner.items, strategy_values, presentation_values)
    print(f"  {render_tag(tag)}")
