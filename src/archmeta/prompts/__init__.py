"""Prompt templates and architectural context assembly.

Public names load their home module on first access (PEP 562).
"""

from .. import _lazy_exports

# home module -> public names
_HOMES = {
    ".context": (
        "DEFAULT_INSTRUCTIONS", "PURPOSE_DIAGRAMS", "ContextBlock", "describe_constraint",
        "render_context_block", "section_end_marker", "section_marker", "select_diagram_set",
    ),
    ".templates": (
        "PROCESSES", "STAGES", "PromptTemplate", "all_templates", "assemble_prompt",
        "load_template", "missing_sections", "prompt_filename", "slot_name",
    ),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _HOMES)
