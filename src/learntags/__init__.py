"""Tag learning resources with the profile attributes of their high raters.

Pipeline: one learner table coding every high rater and each resource's
high-rating subset -> NMF quantification of the nominal attributes ->
k-means grouping of each subset -> Apriori mining of the largest group.
Every stage is importable on its own; ``pipeline.run`` chains them.
"""
from .ingest import (
    LearnerProfile,
    LearnerTable,
    MalformedRowError,
    RatingRecord,
    TimeBin,
    discretize_time,
    find_profile,
    generate_profiles,
    learner_table,
    parse_profiles,
    parse_ratings,
    render_profiles,
)
from .quantify import (
    FactorPair,
    QuantifyDetail,
    attribute_values,
    build_cooccurrence,
    derive_orderings,
    nmf,
    nmf_stack,
    quantification_report,
    quantify_nominal,
    symmetrize,
)
from .cluster import (
    Grouping,
    KTraceEntry,
    LloydFit,
    average_diameter,
    farthest_first_seeds,
    group_batches,
    group_rows,
    normalize,
    sweep_k,
)
from .mine import FrequentItemset, apriori, tag_itemsets, tag_itemsets_batch
from .pipeline import (
    PipelineConfig,
    Provenance,
    Tag,
    TagCloud,
    TagStore,
    load_store,
    match_resources,
    render_report,
    render_tag,
    run,
    save_store,
)
from .viz import export_parcoords, export_values, extreme_pairs

__version__ = "0.1.0"

__all__ = [
    "LearnerProfile", "LearnerTable", "MalformedRowError",
    "RatingRecord", "TimeBin", "discretize_time", "find_profile",
    "generate_profiles", "learner_table", "parse_profiles", "parse_ratings",
    "render_profiles",
    "FactorPair", "QuantifyDetail", "attribute_values",
    "build_cooccurrence", "derive_orderings", "nmf", "nmf_stack", "quantification_report",
    "quantify_nominal", "symmetrize",
    "Grouping", "KTraceEntry", "LloydFit", "average_diameter", "farthest_first_seeds",
    "group_batches", "group_rows", "normalize", "sweep_k",
    "FrequentItemset", "apriori", "tag_itemsets", "tag_itemsets_batch",
    "PipelineConfig", "Provenance", "Tag", "TagCloud",
    "TagStore", "load_store", "match_resources", "render_report",
    "render_tag", "run", "save_store",
    "export_parcoords", "export_values", "extreme_pairs",
    "__version__",
]
