"""Quality metrics: embeddings, structural deltas, the score report and the
seven-metric scoring pipeline.

Public names load their home module on first access (PEP 562).
"""

from .. import _lazy_exports

# home module -> public names
_HOMES = {
    ".delta": (
        "DEFAULT_DELTA_RELATIONS", "GraphDelta", "NamedGraph", "graph_delta", "model_delta",
        "named_dependency_graph",
    ),
    ".embedding": ("EmbeddingVector", "cosine", "dense_vector", "lexical_embed", "tokenize"),
    ".pipeline": ("score_architecture",),
    ".scores": (
        "DOCUMENT_GROUPS", "METRIC_KEYS", "METRIC_LABELS", "MetricReport", "completeness",
        "completeness_ratio", "constraint_effectiveness", "document_groups", "group_cosines",
        "machine_readability", "mean_cosine", "ordinal_score", "pattern_coverage",
        "score_report", "semantic_fidelity", "semantic_fidelity_between",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _HOMES)
