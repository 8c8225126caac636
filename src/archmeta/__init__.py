"""archmeta: a layered architecture metamodel you can compute with.

Lift PlantUML/Mermaid/canonical-JSON diagrams into one typed multi-layer
graph, validate architectural constraints against it, measure traceability,
score regenerated architectures on seven quality metrics, and assemble
diagram-constrained prompt contexts for transformation workflows.

Every public name below is imported from its home module on first access
(PEP 562), so `import archmeta` alone loads none of the submodules.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"


def _lazy_exports(package: str, homes: dict[str, tuple[str, ...]]):
    """The PEP 562 hooks of a package whose public names live in its modules.

    homes maps each home module, relative to the package, to the public names
    it holds. Returns the package's __getattr__, __dir__ and __all__: a name's
    home module is imported when the name is first read."""
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        module = home_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(_import_module(module, package), name)

    def __dir__() -> list[str]:
        return sorted({*vars(_import_module(package)), *home_of})

    return __getattr__, __dir__, list(home_of)


# home module -> public names
_HOMES = {
    ".errors": ("ArchmetaError",),
    ".model": (
        "AbstractionLayer", "Constraint", "ConstraintKind", "DiagramRef", "Entity",
        "EntityKind", "MappingClass", "Metamodel", "Relation", "RelationKind", "TraceLink",
        "build_metamodel", "dependency_graph", "layer_of", "validate_well_formed",
    ),
    ".constraints": (
        "ConstraintResult", "consistency_score", "constraints_from_json",
        "evaluate_constraint", "evaluate_constraints", "load_preset_constraints",
        "validate_constraint_params", "violation_counts",
    ),
    ".diagrams.types": ("Diagram", "DiagramFormat", "DiagramType"),
    ".diagrams.parse": ("check_parsability", "detect_format", "parse_diagram"),
    ".diagrams.canonical": ("dumps_model", "loads_model"),
    ".diagrams.lifting": ("lift_diagram", "lift_to_metamodel"),
    ".diagrams.render": ("render_diagram_view", "serialize_metamodel"),
    ".extract.scan": ("ExpectedEntity", "scan_expected"),
    ".extract.matching": (
        "MatchReport", "load_aliases", "match_expected", "match_names", "normalize_name",
    ),
    ".extract.patterns": ("PatternHit", "detect_patterns", "detected_names"),
    ".metrics.delta": ("GraphDelta", "graph_delta", "model_delta", "named_dependency_graph"),
    ".metrics.embedding": ("cosine", "lexical_embed"),
    ".metrics.scores": (
        "MetricReport", "completeness", "constraint_effectiveness", "document_groups",
        "group_cosines", "machine_readability", "mean_cosine", "pattern_coverage",
        "score_report", "semantic_fidelity", "semantic_fidelity_between",
    ),
    ".metrics.pipeline": ("score_architecture",),
    ".prompts.context": ("ContextBlock", "render_context_block", "select_diagram_set"),
    ".prompts.templates": ("assemble_prompt",),
    ".traces": ("TraceReport", "matrix_to_tsv", "trace_matrix", "traceability_coverage"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _HOMES)
__all__.append("__version__")
