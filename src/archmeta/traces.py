"""Traceability coverage and matrices over the four mapping classes.

A slot is one source-side entity of a mapping class (the business capability,
domain entity, component, or business process). The slot is filled when at
least one kind-valid trace link of that class touches the entity on its
source side. Links whose endpoint kinds do not fit the class are carried as
invalid and never fill anything. `trace_matrix` alone decides which slots a
link fills; `traceability_coverage` is a per-class summary of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoTraceableEntitiesError
from .model import MAPPING_CLASS_KINDS, Entity, MappingClass, Metamodel, TraceLink

UNMAPPED = "UNMAPPED"

# the source-side kinds of the mapping classes are disjoint
_SOURCE_CLASS = {kind: mc for mc, (src, _) in MAPPING_CLASS_KINDS.items() for kind in src}


@dataclass(frozen=True)
class ClassCoverage:
    mapping_class: MappingClass
    filled: int
    total: int
    unfilled_ids: tuple[str, ...]


@dataclass(frozen=True)
class TraceReport:
    per_class: tuple[ClassCoverage, ...]
    invalid_links: tuple[TraceLink, ...]

    @property
    def slots_total(self) -> int:
        return sum(c.total for c in self.per_class)

    @property
    def slots_filled(self) -> int:
        return sum(c.filled for c in self.per_class)

    @property
    def coverage(self) -> float:
        return self.slots_filled / self.slots_total


@dataclass(frozen=True)
class MatrixRow:
    mapping_class: MappingClass
    source_id: str
    source_name: str
    targets: tuple[str, ...]  # empty means unmapped


def trace_matrix(model: Metamodel) -> tuple[MatrixRow, ...]:
    """One row per slot, ordered by (mapping class, source id); a row's
    targets are the other endpoints of the valid links that fill it."""
    targets: dict[tuple[MappingClass, str], set[str]] = {}
    for link in model.traces:
        if link.validity != "valid":
            continue
        src_kinds, _tgt_kinds = MAPPING_CLASS_KINDS[link.mapping_class]
        a = model.entity_index.get(link.source)
        b = model.entity_index.get(link.target)
        if a is None or b is None:
            continue
        # orientation is free; credit whichever endpoint is source-side
        for end, other in ((a, b), (b, a)):
            if end.kind in src_kinds:
                targets.setdefault((link.mapping_class, end.id), set()).add(other.id)
    sources: dict[MappingClass, list[Entity]] = {mc: [] for mc in MappingClass}
    for entity in model.entities:
        mc = _SOURCE_CLASS.get(entity.kind)
        if mc is not None:
            sources[mc].append(entity)
    return tuple(
        MatrixRow(mc, e.id, e.name, tuple(sorted(targets.get((mc, e.id), ()))))
        for mc, entities in sources.items()
        for e in sorted(entities, key=lambda e: e.id)
    )


def traceability_coverage(model: Metamodel) -> TraceReport:
    """Coverage over every slot in the model, summarised from trace_matrix.
    Raises NoTraceableEntitiesError when no entity of any source-side kind
    exists."""
    rows = trace_matrix(model)
    if not rows:
        raise NoTraceableEntitiesError("no entities of any mapping-class source kind are present")
    per_class = []
    for mc in MappingClass:
        slots = [r for r in rows if r.mapping_class is mc]
        unfilled = tuple(r.source_id for r in slots if not r.targets)
        per_class.append(ClassCoverage(mc, len(slots) - len(unfilled), len(slots), unfilled))
    return TraceReport(
        per_class=tuple(per_class),
        invalid_links=tuple(l for l in model.traces if l.validity != "valid"),
    )


def matrix_to_tsv(rows: tuple[MatrixRow, ...]) -> str:
    """Tab-separated export; multiple targets joined with commas."""
    lines = ["mapping_class\tsource_id\tsource_name\ttargets"]
    for row in rows:
        targets = ",".join(row.targets) if row.targets else UNMAPPED
        name = " ".join(row.source_name.split())
        lines.append(f"{row.mapping_class.value}\t{row.source_id}\t{name}\t{targets}")
    return "\n".join(lines) + "\n"
