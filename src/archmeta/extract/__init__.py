"""Codebase scanning, name matching, and pattern detection.

Public names load their home module on first access (PEP 562).
"""

from .. import _lazy_exports

# home module -> public names
_HOMES = {
    ".matching": (
        "Match", "MatchReport", "load_aliases", "match_expected", "match_names",
        "normalize_name",
    ),
    ".patterns": ("PATTERN_NAMES", "PatternHit", "detect_patterns", "detected_names"),
    ".scan": ("ExpectedEntity", "ScanRule", "load_rules", "scan_expected"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _HOMES)
