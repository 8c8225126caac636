"""Diagram parsing, lifting, and rendering.

Public names load their home module on first access (PEP 562).
"""

from .. import _lazy_exports

# home module -> public names
_HOMES = {
    ".canonical": ("SCHEMA_VERSION", "dumps_model", "loads_model"),
    ".lifting": (
        "ModelFragment", "combine_fragments", "lift_diagram", "lift_to_metamodel",
        "load_lifting_table",
    ),
    ".parse": ("check_parsability", "detect_format", "parse_diagram"),
    ".render": (
        "render_diagram_view", "serialize_metamodel", "view_entity_kinds", "view_format",
        "view_notation",
    ),
    ".types": (
        "PRIMARY_LAYER", "ArtifactSet", "ArtifactStatus", "Diagram", "DiagramEdge",
        "DiagramElement", "DiagramFormat", "DiagramType", "primary_layer", "source_digest",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _HOMES)
