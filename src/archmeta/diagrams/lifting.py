"""Lift parsed diagrams into typed model fragments.

The vocabulary lives in data/lifting_table.json: per diagram type it maps
element classes to entity kinds (with an optional fixed layer, or an ignore
action) and edge classes to relation kinds. Entities land on the diagram
type's primary layer unless a rule pins a different one; the override flag is
set exactly when the resulting layer differs from the kind's home layer.

Canonical diagrams bypass the table: their element properties carry the full
entity record, so lifting reconstructs it exactly, preserved relation ids
included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable

from ..errors import (
    AmbiguousElementClassError,
    DuplicateIdError,
    NotParsedError,
    UnknownDiagramTypeError,
)
from ..model import (
    AbstractionLayer,
    DiagramRef,
    Entity,
    EntityKind,
    Metamodel,
    Relation,
    RelationKind,
    build_metamodel,
    layer_of,
)
from .types import Diagram, DiagramFormat, DiagramType, primary_layer


@dataclass(frozen=True)
class ModelFragment:
    """Entities and relations lifted from a single diagram."""

    entities: tuple[Entity, ...]
    relations: tuple[Relation, ...]
    diagram: DiagramRef | None = None


@lru_cache(maxsize=1)
def load_lifting_table() -> dict:
    text = resources.files("archmeta.data").joinpath("lifting_table.json").read_text("utf-8")
    table = json.loads(text)
    # Fail fast on a broken data file rather than at first use.
    for type_name, rules in table["diagram_types"].items():
        DiagramType(type_name)
        for cls, rule in rules["elements"].items():
            if rule.get("action") == "ignore":
                continue
            EntityKind(rule["kind"])
            if "layer" in rule:
                AbstractionLayer[rule["layer"]]
        for cls, kind in rules["edges"].items():
            RelationKind(kind)
    return table


def _lift_canonical(diagram: Diagram, ref: DiagramRef | None) -> ModelFragment:
    entities = tuple(
        Entity(
            id=el.local_id,
            kind=EntityKind(el.element_class),
            name=el.display_name,
            layer=AbstractionLayer[str(el.properties["layer"])],
            layer_override=bool(el.properties.get("layer_override", False)),
            description=str(el.properties.get("description", "")),
            attributes=dict(el.properties.get("attributes", {})),
        )
        for el in diagram.elements
    )
    relations = tuple(
        Relation(
            id=str(edge.properties["id"]),
            source=edge.source,
            target=edge.target,
            kind=RelationKind(edge.edge_class),
            label=edge.label,
        )
        for edge in diagram.edges
    )
    return ModelFragment(entities=entities, relations=relations, diagram=ref)


def lift_diagram(diagram: Diagram, name: str = "") -> ModelFragment:
    """Lift one parsed diagram. Raises on failed parses and unknown vocabulary."""
    if not diagram.parsed:
        raise NotParsedError(f"cannot lift a failed parse: {diagram.failure_reason}")
    ref = None
    if name:
        ref = DiagramRef(
            name=name,
            type=diagram.type.value if diagram.type else "",
            format=diagram.format.value,
            source_digest=diagram.source_digest,
        )
    if diagram.format is DiagramFormat.canonical:
        return _lift_canonical(diagram, ref)
    if diagram.type is None:
        raise UnknownDiagramTypeError(
            "diagram type is required to lift plantuml/mermaid content; "
            "pass a type hint (the notation alone is ambiguous)"
        )
    rules = load_lifting_table()["diagram_types"][diagram.type.value]
    base_layer = primary_layer(diagram.type)

    entities: list[Entity] = []
    dropped: set[str] = set()
    for el in diagram.elements:
        rule = rules["elements"].get(el.element_class)
        if rule is None:
            raise AmbiguousElementClassError(
                f"no lifting rule for element class {el.element_class!r} "
                f"in a {diagram.type.value} diagram"
            )
        if rule.get("action") == "ignore":
            dropped.add(el.local_id)
            continue
        kind = EntityKind(rule["kind"])
        layer = AbstractionLayer[rule["layer"]] if "layer" in rule else base_layer
        attributes = {}
        members = el.properties.get("members")
        if members:
            attributes["members"] = list(members)
        entities.append(
            Entity(
                id=el.local_id,
                kind=kind,
                name=el.display_name,
                layer=layer,
                layer_override=layer is not layer_of(kind),
                attributes=attributes,
            )
        )

    relations: list[Relation] = []
    counter = 0
    for edge in diagram.edges:
        if edge.source in dropped or edge.target in dropped:
            continue
        kind_name = rules["edges"].get(edge.edge_class)
        if kind_name is None:
            raise AmbiguousElementClassError(
                f"no lifting rule for edge class {edge.edge_class!r} "
                f"in a {diagram.type.value} diagram"
            )
        counter += 1
        relations.append(
            Relation(
                id=f"rel-{counter:03d}",
                source=edge.source,
                target=edge.target,
                kind=RelationKind(kind_name),
                label=edge.label,
            )
        )
    return ModelFragment(entities=tuple(entities), relations=tuple(relations), diagram=ref)


def combine_fragments(fragments: Iterable[ModelFragment], system: str = "") -> Metamodel:
    """Merge fragments into one validated model.

    Entities repeating an id must agree on kind (first occurrence keeps its
    record); relations deduplicate on (source, target, kind, label) and are
    re-numbered only when their ids collide.
    """
    ordered = tuple(fragments)
    entities: dict[str, Entity] = {}
    for fragment in ordered:
        for ent in fragment.entities:
            prior = entities.get(ent.id)
            if prior is None:
                entities[ent.id] = ent
            elif prior.kind is not ent.kind:
                raise DuplicateIdError(
                    f"entity {ent.id!r} lifted as both {prior.kind.value} and {ent.kind.value}"
                )
    relations: list[Relation] = []
    seen_content: set[tuple[str, str, RelationKind, str]] = set()
    used_ids: set[str] = set()
    refs: list[DiagramRef] = []
    next_n = 1
    for fragment in ordered:
        if fragment.diagram is not None and fragment.diagram not in refs:
            refs.append(fragment.diagram)
        for rel in fragment.relations:
            key = (rel.source, rel.target, rel.kind, rel.label)
            if key in seen_content:
                continue
            seen_content.add(key)
            rel_id = rel.id
            while rel_id in used_ids:
                rel_id = f"rel-{next_n:03d}"
                next_n += 1
            used_ids.add(rel_id)
            relations.append(rel if rel_id == rel.id else Relation(
                id=rel_id, source=rel.source, target=rel.target,
                kind=rel.kind, label=rel.label,
            ))
    return build_metamodel(
        system=system,
        entities=entities.values(),
        relations=relations,
        diagrams=refs,
    )


def lift_to_metamodel(
    diagrams: Iterable[tuple[str, Diagram]],
    system: str = "",
) -> Metamodel:
    """Lift several (name, diagram) pairs and merge them into one model."""
    frags = [lift_diagram(d, name=n) for n, d in diagrams]
    return combine_fragments(frags, system=system)
