"""
Ingesting ratings and building high-rating learner subsets
==========================================================

Parses a semicolon-delimited ratings file in the Book-Crossing shape,
shows what gets dropped and why, then builds the learner table, which
holds the per-resource subsets of learners whose rating clears the
threshold delta0.
"""

from learntags import discretize_time, generate_profiles, learner_table, parse_ratings

raw = '''"User-ID";"ISBN";"Book-Rating"
"276725";"034545104X";"0"
"276726";"0155061224";"5"
"276727";"0446520802";"8"
"276729";"052165615X";"3"
"276729";"0521795028";"6"
"276733";"0446520802";"9"
"276736";"0446520802";"7"
"276737";"0600570967";"6"
"not;a;rating"
"276744";"038550120X";"7"
'''

result = parse_ratings(raw)
print(f"kept {len(result.records)} ratings")
print(f"dropped {result.dropped_zero} implicit zero ratings")
print(f"skipped {result.malformed} malformed rows")

# delta0 = 6: "high rating" means >= 6 on the 0..10 scale.  The table
# codes every high rater's profile once; these are synthesized.
raters = sorted({r.learner_id for r in result.records})
profiles = {p.learner_id: p for p in generate_profiles(raters, seed=0)}
table = learner_table(result.records, profiles, delta0=6)
for rid, rows in zip(table.resources, table.members):
    print(f"{rid}: {[table.ids[i] for i in rows]}")

# study time in hours lands in fixed 10-hour bins for the tags
for hours in (1, 45, 50, 51):
    print(f"{hours:>3} hours -> {discretize_time(hours).label()}")
