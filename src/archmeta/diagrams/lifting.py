"""Lift parsed diagrams into typed model fragments.

The lifting rules live in data/lifting_table.json: per diagram type they map
element classes to entity kinds (with an optional fixed layer, or an ignore
action) and edge classes to relation kinds. _rules() types them once, which
also checks the data file; lift_diagram() applies them and render.py inverts
them. Entities land on the type's home layer (types._VIEWS) unless a rule
pins another; the override flag is set exactly when the resulting layer
differs from the kind's home layer.

Canonical diagrams bypass the rules: their element properties carry the full
entity record, so lifting reconstructs it exactly, preserved relation ids
included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, NamedTuple

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


class _Rules(NamedTuple):
    # element class -> (kind, layer, layer_override), or None to drop the element
    elements: dict[str, tuple[EntityKind, AbstractionLayer, bool] | None]
    edges: dict[str, RelationKind]  # edge class -> relation kind


@lru_cache(maxsize=1)
def load_lifting_table() -> dict:
    """The parsed data file, as written; _rules() types and checks it."""
    text = resources.files("archmeta.data").joinpath("lifting_table.json").read_text("utf-8")
    return json.loads(text)


@lru_cache(maxsize=1)
def _rules() -> dict[DiagramType, _Rules]:
    """Every diagram type's rules, typed. A type name, kind, layer or
    relation kind the enums lack raises here, on first use."""
    typed = {}
    for type_name, rules in load_lifting_table()["diagram_types"].items():
        dtype = DiagramType(type_name)
        elements = {}
        for cls, rule in rules["elements"].items():
            if rule.get("action") == "ignore":
                elements[cls] = None
                continue
            kind = EntityKind(rule["kind"])
            layer = AbstractionLayer[rule["layer"]] if "layer" in rule else primary_layer(dtype)
            elements[cls] = (kind, layer, layer is not layer_of(kind))
        edges = {cls: RelationKind(kind) for cls, kind in rules["edges"].items()}
        typed[dtype] = _Rules(elements, edges)
    return typed


def _rule(rules: dict, cls: str, what: str, dtype: DiagramType):
    try:
        return rules[cls]
    except KeyError:
        raise AmbiguousElementClassError(
            f"no lifting rule for {what} class {cls!r} in a {dtype.value} diagram") from None


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
    """Lift one parsed diagram. Raises on failed parses and on classes without a rule."""
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
    rules = _rules()[diagram.type]
    entities: list[Entity] = []
    dropped: set[str] = set()
    for el in diagram.elements:
        rule = _rule(rules.elements, el.element_class, "element", diagram.type)
        if rule is None:
            dropped.add(el.local_id)
            continue
        kind, layer, layer_override = rule
        members = el.properties.get("members")
        entities.append(
            Entity(
                id=el.local_id,
                kind=kind,
                name=el.display_name,
                layer=layer,
                layer_override=layer_override,
                attributes={"members": list(members)} if members else {},
            )
        )

    relations: list[Relation] = []
    for edge in diagram.edges:
        if edge.source in dropped or edge.target in dropped:
            continue
        relations.append(
            Relation(
                id=f"rel-{len(relations) + 1:03d}",
                source=edge.source,
                target=edge.target,
                kind=_rule(rules.edges, edge.edge_class, "edge", diagram.type),
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
