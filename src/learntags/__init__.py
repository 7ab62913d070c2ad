"""Tag learning resources with the profile attributes of their high raters.

Pipeline: high-rating subsets -> NMF quantification of the nominal
attributes -> k-means grouping of each subset -> Apriori mining of the
largest group.  Every stage is importable on its own; ``pipeline.run``
chains them.
"""
from .ingest import (
    LearnerProfile,
    LearnerSubset,
    MalformedRowError,
    RatingRecord,
    TimeBin,
    build_all_subsets,
    build_subset,
    discretize_time,
    generate_profiles,
    parse_profiles,
    parse_ratings,
    render_profiles,
    render_ratings,
)
from .quantify import (
    CooccurrenceMatrix,
    FactorPair,
    QuantifyDetail,
    attribute_values,
    build_cooccurrence,
    derive_orderings,
    nmf,
    quantification_report,
    quantify,
    symmetrize,
)
from .cluster import (
    Clustering,
    FeaturePoint,
    KSelection,
    KTraceEntry,
    LloydFit,
    NormalizationSpec,
    apply_normalization,
    average_diameter,
    farthest_first_seeds,
    fit_normalization,
    largest_cluster,
    lloyd_kmeans,
    select_k,
    to_feature_points,
)
from .mine import (
    FrequentItemset,
    Item,
    Transaction,
    apriori,
    itemset_key,
    maximal_itemsets,
    select_tag,
    transaction_from_profile,
)
from .pipeline import (
    PipelineConfig,
    Provenance,
    Tag,
    TagCloud,
    load_store,
    match_resources,
    render_report,
    render_tag,
    run,
    save_store,
    tag_from_itemset,
)
from .viz import export_parcoords, export_values, extreme_pairs

__version__ = "0.1.0"

__all__ = [
    "LearnerProfile", "LearnerSubset", "MalformedRowError", "RatingRecord",
    "TimeBin", "build_all_subsets", "build_subset", "discretize_time",
    "generate_profiles", "parse_profiles", "parse_ratings",
    "render_profiles", "render_ratings",
    "CooccurrenceMatrix", "FactorPair", "QuantifyDetail", "attribute_values",
    "build_cooccurrence", "derive_orderings", "nmf", "quantification_report",
    "quantify", "symmetrize",
    "Clustering", "FeaturePoint", "KSelection", "KTraceEntry", "LloydFit",
    "NormalizationSpec", "apply_normalization", "average_diameter",
    "farthest_first_seeds", "fit_normalization", "largest_cluster",
    "lloyd_kmeans", "select_k", "to_feature_points",
    "FrequentItemset", "Item", "Transaction", "apriori", "itemset_key",
    "maximal_itemsets", "select_tag", "transaction_from_profile",
    "PipelineConfig", "Provenance", "Tag", "TagCloud", "load_store",
    "match_resources", "render_report", "render_tag", "run", "save_store",
    "tag_from_itemset",
    "export_parcoords", "export_values", "extreme_pairs",
    "__version__",
]
