"""The seven architecture-quality metrics and the normalized score report.

Raw values are ratios in [0, 1]; the report additionally renders each on a
0-5 ordinal scale (raw x 5, one decimal, half-up) and keeps the counts and
denominators behind every number as an audit trail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sized

from ..errors import (
    EmptyArtifactSetError,
    EmptyExpectedPatternsError,
    EmptyExpectedSetError,
    NoComparableGroupsError,
    OutOfRangeRawError,
)
from .embedding import EmbeddingVector, cosine, lexical_embed

if TYPE_CHECKING:  # `report` reads METRIC_KEYS and loads neither module
    from ..diagrams.types import ArtifactSet
    from ..model import Metamodel

METRIC_KEYS = ("C", "SF", "K", "TC", "MR", "LCE", "CPC")

METRIC_LABELS = {
    "C": "Completeness",
    "SF": "Semantic Fidelity",
    "K": "Consistency",
    "TC": "Traceability Coverage",
    "MR": "Machine Readability",
    "LCE": "Constraint Effectiveness",
    "CPC": "Pattern Coverage",
}

DOCUMENT_GROUPS = ("domain-entities", "component-responsibilities", "api-contracts")

Embedder = Callable[[str], EmbeddingVector]


def completeness(expected: Sized | int, matched_count: int) -> float:
    """Matched fraction of the expected entity set, clamped at 1.

    The unclamped ratio can exceed 1 when matching is more generous than the
    expectation; use completeness_ratio for the audit-trail figure.
    """
    return min(1.0, completeness_ratio(expected, matched_count))


def completeness_ratio(expected: Sized | int, matched_count: int) -> float:
    expected_count = expected if isinstance(expected, int) else len(expected)
    if expected_count <= 0:
        raise EmptyExpectedSetError("expected entity set is empty")
    if matched_count < 0:
        raise ValueError("matched_count must be >= 0")
    return matched_count / expected_count


def document_groups(model: Metamodel) -> dict[str, str]:
    """Comparison corpora: entity names/descriptions bucketed by concern.

    Domain entities contribute name plus description, components and
    containers contribute responsibility text (description only), and API
    interfaces contribute name plus description. Entities are visited in id
    order so the concatenation is deterministic.
    """
    from ..model import EntityKind

    domain: list[str] = []
    responsibilities: list[str] = []
    contracts: list[str] = []
    for eid in sorted(model.entity_index):
        entity = model.entity_index[eid]
        if entity.kind is EntityKind.DomainEntity:
            domain.append(entity.name)
            if entity.description:
                domain.append(entity.description)
        elif entity.kind in (EntityKind.Container, EntityKind.Component):
            if entity.description:
                responsibilities.append(entity.description)
        elif entity.kind is EntityKind.ApiInterface:
            contracts.append(entity.name)
            if entity.description:
                contracts.append(entity.description)
    return {
        "domain-entities": " ".join(domain),
        "component-responsibilities": " ".join(responsibilities),
        "api-contracts": " ".join(contracts),
    }


def group_cosines(
    original: Mapping[str, str],
    regenerated: Mapping[str, str],
    embedder: Embedder = lexical_embed,
) -> dict[str, float]:
    """Cosine per group with text on both sides, embedding each text once.

    The fixed DOCUMENT_GROUPS come first in their order, then the original's
    extra groups. Raises NoComparableGroupsError when no group has text on
    both sides.
    """
    shared = [
        name
        for name in DOCUMENT_GROUPS
        if original.get(name, "").strip() and regenerated.get(name, "").strip()
    ]
    # also honor caller-defined extra groups, in sorted order for determinism
    extra = sorted(
        name
        for name in original
        if name not in DOCUMENT_GROUPS
        and original.get(name, "").strip()
        and regenerated.get(name, "").strip()
    )
    shared.extend(extra)
    if not shared:
        raise NoComparableGroupsError("no document group has text on both sides")
    return {name: cosine(embedder(original[name]), embedder(regenerated[name])) for name in shared}


def mean_cosine(cosines: Mapping[str, float]) -> float:
    """Semantic fidelity from group_cosines: their mean, summed in group order."""
    total = 0.0
    for value in cosines.values():
        total += value
    return total / len(cosines)


def semantic_fidelity(
    original: Mapping[str, str],
    regenerated: Mapping[str, str],
    embedder: Embedder = lexical_embed,
) -> float:
    """Mean per-group cosine over the groups with text on both sides."""
    return mean_cosine(group_cosines(original, regenerated, embedder))


def semantic_fidelity_between(
    original: Metamodel,
    regenerated: Metamodel,
    embedder: Embedder = lexical_embed,
) -> float:
    return semantic_fidelity(document_groups(original), document_groups(regenerated), embedder)


def machine_readability(artifacts: ArtifactSet) -> float:
    if artifacts.total_count == 0:
        raise EmptyArtifactSetError("no artifacts to audit")
    return artifacts.parsable_count / artifacts.total_count


def constraint_effectiveness(drift: int | float, baseline: int | float) -> float:
    """How much a constrained regeneration reduced structural drift.

    1 means the drift vanished relative to the unconstrained baseline, 0
    means no improvement (or worse). Total on the zero-baseline edge: both
    zero is a perfect hold, drift against a drift-free baseline is a full
    regression.
    """
    if drift < 0 or baseline < 0:
        raise ValueError("distances must be >= 0")
    if baseline == 0:
        return 1.0 if drift == 0 else 0.0
    return min(1.0, max(0.0, 1.0 - drift / baseline))


def pattern_coverage(expected: Iterable[str], preserved: Iterable[str]) -> float:
    """Fraction of the expected architectural patterns still detected."""
    expected_set = {name.casefold() for name in expected}
    if not expected_set:
        raise EmptyExpectedPatternsError("expected pattern set is empty")
    preserved_set = {name.casefold() for name in preserved}
    return len(expected_set & preserved_set) / len(expected_set)


def ordinal_score(raw: float, metric: str = "") -> float:
    """Map a [0,1] raw value onto the 0-5 scale, one decimal, half-up."""
    if not 0.0 <= raw <= 1.0:
        raise OutOfRangeRawError(metric or "raw", raw)
    scaled = Decimal(str(raw)) * Decimal(5)
    return float(scaled.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class MetricReport:
    """Raw and ordinal values for all seven metrics plus their inputs."""

    raw: Mapping[str, float]
    ordinal: Mapping[str, float]
    inputs: Mapping[str, Any] = field(default_factory=dict)

    def to_canonical_fragment(self) -> str:
        payload = {
            "schema_version": "1.0",
            "metrics": {
                key: {
                    "label": METRIC_LABELS[key],
                    "raw": self.raw[key],
                    "ordinal": self.ordinal[key],
                }
                for key in METRIC_KEYS
            },
            "inputs": _plain(self.inputs),
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"

    def to_markdown(self) -> str:
        lines = ["| Metric | Raw | Ordinal |", "| --- | --- | --- |"]
        for key in METRIC_KEYS:
            label = METRIC_LABELS[key]
            lines.append(f"| {label} ({key}) | {self.raw[key]:.4f} | {self.ordinal[key]:.1f} |")
        return "\n".join(lines) + "\n"


def _plain(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_plain(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def score_report(raw: Mapping[str, float], inputs: Mapping[str, Any] | None = None) -> MetricReport:
    """Assemble the normalized report; requires all seven raw values."""
    missing = [k for k in METRIC_KEYS if k not in raw]
    if missing:
        raise ValueError(f"missing raw metrics: {', '.join(missing)}")
    ordered_raw: dict[str, float] = {}
    ordered_ordinal: dict[str, float] = {}
    for key in METRIC_KEYS:
        value = float(raw[key])
        if not 0.0 <= value <= 1.0:
            raise OutOfRangeRawError(key, value)
        ordered_raw[key] = value
        ordered_ordinal[key] = ordinal_score(value, key)
    return MetricReport(raw=ordered_raw, ordinal=ordered_ordinal, inputs=dict(inputs or {}))
