"""Render models back out as diagram text.

Two levels:

serialize_metamodel() writes the whole model in one format. Canonical is the
lossless one; plantuml/mermaid are presentation views that keep only what the
notation can say and note what they dropped in comment lines.

render_diagram_view() produces one of the 18 typed views. Construct selection
is the inverse of the lifting table: an entity kind or relation kind appears
in the output only when the view's notation has a construct that the table
lifts back to it, so render -> parse -> lift is stable for everything shown.
Each view type's inverse is worked out once per process, as one cached plan
that the view's emitter and view_entity_kinds() both read.
strict=True raises UnrepresentableConstructError instead of dropping.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, NamedTuple

from ..errors import UnrepresentableConstructError
from ..model import (
    Entity,
    EntityKind,
    Metamodel,
    Relation,
    RelationKind,
)
from .canonical import dumps_model
from .lifting import load_lifting_table
from .types import DiagramFormat, DiagramType

# Which notation each typed view is written in.
_VIEW_NOTATION: dict[DiagramType, str] = {
    DiagramType.BusinessContext: "plantuml-component",
    DiagramType.BusinessCapabilityMap: "plantuml-component",
    DiagramType.DomainModel: "plantuml-class",
    DiagramType.BusinessProcess: "mermaid-graph",
    DiagramType.DddContextMap: "plantuml-component",
    DiagramType.CqrsView: "plantuml-component",
    DiagramType.EventDrivenView: "mermaid-graph",
    DiagramType.CleanOnionView: "plantuml-component",
    DiagramType.SystemContainer: "plantuml-component",
    DiagramType.ComponentView: "plantuml-component",
    DiagramType.DeploymentInfrastructure: "plantuml-component",
    DiagramType.IntegrationApi: "plantuml-component",
    DiagramType.StranglerMigration: "plantuml-component",
    DiagramType.ClassModuleStructure: "plantuml-class",
    DiagramType.SequenceInteraction: "plantuml-sequence",
    DiagramType.DataModelSchema: "mermaid-er",
    DiagramType.RuntimeTopology: "plantuml-component",
    DiagramType.StateMachine: "plantuml-state",
}

NOTATION_FORMAT = {
    "plantuml-component": DiagramFormat.plantuml,
    "plantuml-class": DiagramFormat.plantuml,
    "plantuml-sequence": DiagramFormat.plantuml,
    "plantuml-state": DiagramFormat.plantuml,
    "mermaid-graph": DiagramFormat.mermaid,
    "mermaid-er": DiagramFormat.mermaid,
}

# Element classes a notation can declare, in preference order, and the edge
# classes its arrow/relationship constructs parse back to. Only the component
# notation writes package blocks; "package" comes last, so it writes a kind
# only when no other class lifts to that kind.
_NOTATION_ELEMENT_CLASSES: dict[str, tuple[str, ...]] = {
    "plantuml-component": ("component", "database", "actor", "interface", "queue", "package"),
    "plantuml-class": ("class", "interface"),
    "plantuml-sequence": ("participant", "actor"),
    "plantuml-state": ("state",),
    "mermaid-graph": ("node", "database", "circle"),
    "mermaid-er": ("er_entity",),
}
_NOTATION_EDGE_CLASSES: dict[str, tuple[str, ...]] = {
    "plantuml-component": ("dependency", "containment"),
    "plantuml-class": ("inheritance", "association", "dependency"),
    "plantuml-sequence": ("message", "reply"),
    "plantuml-state": ("transition",),
    "mermaid-graph": ("flow",),
    "mermaid-er": ("relationship",),
}

# Mermaid node shapes by element class: opener, closer, and the characters a
# label may not hold (the shape's closers plus ';', the statement splitter).
_MERMAID_SHAPES = {
    "node": ("[", "]", "];"),
    "database": ("[(", ")]", ")];"),
    "circle": ("((", "))", ");"),
}

_PLANTUML_IDENT_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
_MERMAID_IDENT_OK = _PLANTUML_IDENT_OK + "-"


def _ident_map(ids: Iterable[str], allowed: str) -> dict[str, str]:
    """Deterministic injective map from entity ids to notation identifiers."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for raw in ids:
        safe = "".join(c if c in allowed else "_" for c in raw) or "_"
        if safe[0].isdigit() or safe[0] == "-":
            safe = "e_" + safe
        candidate, n = safe, 1
        while candidate in used:
            n += 1
            candidate = f"{safe}_{n}"
        used.add(candidate)
        out[raw] = candidate
    return out


def _clean_display(name: str, forbidden: str, strict: bool, notation: str) -> str:
    return _clean_label(name, forbidden, strict, notation, "name") or "unnamed"


def _clean_label(label: str, forbidden: str, strict: bool, notation: str,
                 what: str = "label") -> str:
    text = " ".join(label.split())
    bad = [c for c in forbidden if c in text]
    if bad:
        if strict:
            raise UnrepresentableConstructError(notation, f"{what} containing {bad[0]!r}: {label!r}")
        for c in bad:
            text = text.replace(c, "'" if c == '"' else "/")
    return text


def _members_of(entity: Entity) -> list[str]:
    raw = entity.attributes.get("members")
    if not isinstance(raw, (list, tuple)):
        return []
    return [" ".join(str(m).split()) for m in raw if str(m).strip() and str(m).strip() != "}"]


def _close(lines: list[str], notes: list[str], notation: str) -> str:
    """The finished text: one comment line per omitted construct, then the end."""
    if notation.startswith("mermaid"):
        lines.extend(f"  %% omitted: {note}" for note in notes)
    else:
        lines.extend(f"' omitted: {note}" for note in notes)
        lines.append("@enduml")
    return "\n".join(lines) + "\n"


def _skip(notes: list[str], strict: bool, notation: str, construct: str) -> None:
    if strict:
        raise UnrepresentableConstructError(notation, construct)
    if construct not in notes:
        notes.append(construct)


# ---------------------------------------------------------------- notation emitters

def _emit_plantuml_component(
    entities: list[tuple[Entity, str]],
    relations: list[tuple[Relation, str]],
    idents: Mapping[str, str],
    strict: bool,
    notes: list[str],
) -> str:
    notation = "plantuml-component"
    lines = ["@startuml"]
    # containment nesting is expressible only through package blocks: each
    # child nests once, under a parent written with the package class
    children: dict[str, list[str]] = {}
    parent_of: dict[str, str] = {}
    kept_relations: list[tuple[Relation, str]] = []
    by_id = {e.id: (e, cls) for e, cls in entities}
    for rel, cls in relations:
        if cls != "containment":
            kept_relations.append((rel, cls))
        elif rel.target in parent_of or by_id[rel.source][1] != "package":
            _skip(notes, strict, notation, "containment relation")
        else:
            parent_of[rel.target] = rel.source
            children.setdefault(rel.source, []).append(rel.target)

    # depth first in entity order, children in relation order; an explicit
    # stack, so a package chain of any depth renders. None closes a package.
    stack: list[tuple[str | None, str]] = [
        (entity.id, "") for entity, _ in reversed(entities) if entity.id not in parent_of
    ]
    while stack:
        eid, indent = stack.pop()
        if eid is None:
            lines.append(f"{indent}}}")
            continue
        entity, cls = by_id[eid]
        ident = idents[eid]
        if cls == "package":
            # a package's textual id is its bare name, so edges can only
            # reference it when that name is the ident itself
            if _clean_display(entity.name, '"', strict, notation) != ident:
                _skip(notes, strict, notation, f"package display name {entity.name!r}")
            lines.append(f"{indent}package {ident} {{")
            stack.append((None, indent))
            stack.extend((child, indent + "  ") for child in reversed(children.get(eid, ())))
            continue
        display = _clean_display(entity.name, '"', strict, notation)
        lines.append(f'{indent}{cls} "{display}" as {ident}')

    for rel, cls in kept_relations:
        src, tgt = idents[rel.source], idents[rel.target]
        label = _clean_label(rel.label, "", strict, notation)
        suffix = f" : {label}" if label else ""
        lines.append(f"{src} --> {tgt}{suffix}")
    return _close(lines, notes, notation)


def _emit_plantuml_class(
    entities: list[tuple[Entity, str]],
    relations: list[tuple[Relation, str]],
    idents: Mapping[str, str],
    strict: bool,
    notes: list[str],
) -> str:
    notation = "plantuml-class"
    lines = ["@startuml"]
    arrows = {"inheritance": "--|>", "association": "-->", "dependency": "..>"}
    for entity, cls in entities:
        ident = idents[entity.id]
        members = _members_of(entity)
        if members:
            lines.append(f"{cls} {ident} {{")
            lines.extend(f"  {m}" for m in members)
            lines.append("}")
        else:
            lines.append(f"{cls} {ident}")
    for rel, cls in relations:
        label = _clean_label(rel.label, "", strict, notation)
        suffix = f" : {label}" if label else ""
        lines.append(f"{idents[rel.source]} {arrows[cls]} {idents[rel.target]}{suffix}")
    return _close(lines, notes, notation)


def _emit_plantuml_sequence(
    entities: list[tuple[Entity, str]],
    relations: list[tuple[Relation, str]],
    idents: Mapping[str, str],
    strict: bool,
    notes: list[str],
) -> str:
    notation = "plantuml-sequence"
    lines = ["@startuml"]
    for entity, cls in entities:
        ident = idents[entity.id]
        display = _clean_display(entity.name, '"', strict, notation)
        lines.append(f'participant "{display}" as {ident}')
    for rel, cls in relations:
        text = _clean_label(rel.label, "", strict, notation) or rel.kind.value
        arrow = "-->" if cls == "reply" else "->"
        lines.append(f"{idents[rel.source]} {arrow} {idents[rel.target]} : {text}")
    return _close(lines, notes, notation)


def _emit_plantuml_state(
    entities: list[tuple[Entity, str]],
    relations: list[tuple[Relation, str]],
    idents: Mapping[str, str],
    strict: bool,
    notes: list[str],
) -> str:
    notation = "plantuml-state"
    lines = ["@startuml"]
    for entity, _cls in entities:
        ident = idents[entity.id]
        display = _clean_display(entity.name, '"', strict, notation)
        if display == ident:
            lines.append(f"state {ident}")
        else:
            lines.append(f'state "{display}" as {ident}')
    for rel, _cls in relations:
        label = _clean_label(rel.label, "", strict, notation)
        suffix = f" : {label}" if label else ""
        lines.append(f"{idents[rel.source]} --> {idents[rel.target]}{suffix}")
    return _close(lines, notes, notation)


def _emit_mermaid_graph(
    entities: list[tuple[Entity, str]],
    relations: list[tuple[Relation, str]],
    idents: Mapping[str, str],
    strict: bool,
    notes: list[str],
) -> str:
    notation = "mermaid-graph"
    lines = ["graph TD"]
    for entity, cls in entities:
        ident = idents[entity.id]
        open_, close, forbidden = _MERMAID_SHAPES[cls]
        display = _clean_display(entity.name, forbidden, strict, notation)
        lines.append(f"  {ident}{open_}{display}{close}")
    for rel, _cls in relations:
        label = _clean_label(rel.label, "|;", strict, notation)
        mid = f"-->|{label}|" if label else "-->"
        lines.append(f"  {idents[rel.source]} {mid} {idents[rel.target]}")
    return _close(lines, notes, notation)


def _emit_mermaid_er(
    entities: list[tuple[Entity, str]],
    relations: list[tuple[Relation, str]],
    idents: Mapping[str, str],
    strict: bool,
    notes: list[str],
) -> str:
    import re

    notation = "mermaid-er"
    attr_ok = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
    type_ok = re.compile(r"^[A-Za-z_][A-Za-z0-9_()]*$")
    lines = ["erDiagram"]
    for entity, _cls in entities:
        ident = idents[entity.id]
        columns = []
        for member in _members_of(entity):
            # stored as "name (type)"; anything else cannot round-trip
            m = re.fullmatch(r"(\S+)\s*\(([^()]+)\)", member)
            if m and attr_ok.match(m.group(1)) and type_ok.match(m.group(2)):
                columns.append(f"    {m.group(2)} {m.group(1)}")
            else:
                _skip(notes, strict, notation, f"attribute {member!r}")
        if columns:
            lines.append(f"  {ident} {{")
            lines.extend(columns)
            lines.append("  }")
        else:
            lines.append(f"  {ident}")
    for rel, _cls in relations:
        text = _clean_label(rel.label, "", strict, notation) or rel.kind.value
        lines.append(f"  {idents[rel.source]} ||--o{{ {idents[rel.target]} : {text}")
    return _close(lines, notes, notation)


# ---------------------------------------------------------------- typed views

class _ViewPlan(NamedTuple):
    entity_class: dict[EntityKind, str]  # kind -> the notation's element class
    relation_class: dict[RelationKind, str]  # kind -> the notation's edge class
    kinds: frozenset[EntityKind]  # every kind the view's vocabulary lifts to


@functools.cache
def _view_plan(dtype: DiagramType) -> _ViewPlan:
    """Invert the lifting table for one view: kind -> construct class."""
    notation = _VIEW_NOTATION[dtype]
    rules = load_lifting_table()["diagram_types"][dtype.value]
    lifted = {
        cls: EntityKind(rule["kind"])
        for cls, rule in rules["elements"].items()
        if rule.get("action") != "ignore"
    }
    entity_class: dict[EntityKind, str] = {}
    for cls in _NOTATION_ELEMENT_CLASSES[notation]:
        if cls in lifted:
            entity_class.setdefault(lifted[cls], cls)
    relation_class: dict[RelationKind, str] = {}
    for cls in _NOTATION_EDGE_CLASSES[notation]:
        if cls in rules["edges"]:
            relation_class.setdefault(RelationKind(rules["edges"][cls]), cls)
    return _ViewPlan(entity_class, relation_class, frozenset(lifted.values()))


_EMITTERS: dict[str, Callable] = {
    "plantuml-component": _emit_plantuml_component,
    "plantuml-class": _emit_plantuml_class,
    "plantuml-sequence": _emit_plantuml_sequence,
    "plantuml-state": _emit_plantuml_state,
    "mermaid-graph": _emit_mermaid_graph,
    "mermaid-er": _emit_mermaid_er,
}


def view_notation(dtype: DiagramType) -> str:
    return _VIEW_NOTATION[dtype]


def view_format(dtype: DiagramType) -> DiagramFormat:
    return NOTATION_FORMAT[_VIEW_NOTATION[dtype]]


def view_entity_kinds(dtype: DiagramType) -> frozenset[EntityKind]:
    """All entity kinds the view's lifting vocabulary can produce."""
    return _view_plan(dtype).kinds


def render_diagram_view(model: Metamodel, dtype: DiagramType, strict: bool = False) -> str:
    """Write the slice of the model this view type covers, in its notation."""
    notation = _VIEW_NOTATION[dtype]
    entity_class, relation_class, kinds = _view_plan(dtype)
    notes: list[str] = []

    entities: list[tuple[Entity, str]] = []
    for entity in model.entities:
        cls = entity_class.get(entity.kind)
        if cls is not None:
            entities.append((entity, cls))
        elif entity.kind in kinds:
            # liftable into this view but not expressible by its notation
            _skip(notes, strict, notation, f"entity kind {entity.kind.value}")
    rendered = {e.id for e, _ in entities}

    relations: list[tuple[Relation, str]] = []
    for rel in model.relations:
        if rel.source not in rendered or rel.target not in rendered:
            continue
        cls = relation_class.get(rel.kind)
        if cls is None:
            _skip(notes, strict, notation, f"relation kind {rel.kind.value}")
            continue
        relations.append((rel, cls))

    allowed = _MERMAID_IDENT_OK if notation.startswith("mermaid") else _PLANTUML_IDENT_OK
    idents = _ident_map((e.id for e, _ in entities), allowed)
    return _EMITTERS[notation](entities, relations, idents, strict, notes)


# ---------------------------------------------------------------- whole model

_GENERIC_CLASS: dict[EntityKind, str] = {
    EntityKind.DataStore: "database",
    EntityKind.Queue: "queue",
    EntityKind.Stakeholder: "actor",
    EntityKind.Role: "actor",
    EntityKind.ApiInterface: "interface",
}


def serialize_metamodel(
    model: Metamodel,
    format: DiagramFormat | str = DiagramFormat.canonical,
    grouping: str = "flat",
    strict: bool = False,
) -> str:
    """Whole-model export. Canonical is lossless; the notations keep the
    dependency structure and note every construct they cannot say."""
    fmt = format if isinstance(format, DiagramFormat) else DiagramFormat(format)
    if grouping not in ("flat", "by-layer"):
        raise ValueError(f"unknown grouping: {grouping!r}")
    if fmt is DiagramFormat.canonical:
        return dumps_model(model)

    entities = list(model.entities)
    if grouping == "by-layer":
        entities.sort(key=lambda e: (int(e.layer), e.id))
    notes: list[str] = []
    renderable = {RelationKind.dependency, RelationKind.realization}
    relations = []
    for rel in model.relations:
        if rel.kind in renderable:
            relations.append(rel)
        else:
            _skip(notes, strict, fmt.value, f"relation kind {rel.kind.value}")

    if fmt is DiagramFormat.plantuml:
        idents = _ident_map((e.id for e in entities), _PLANTUML_IDENT_OK)
        lines = ["@startuml"]
        current_layer = None
        for entity in entities:
            if grouping == "by-layer" and entity.layer is not current_layer:
                current_layer = entity.layer
                lines.append(f"' layer {int(current_layer)}: {current_layer.name}")
            cls = _GENERIC_CLASS.get(entity.kind, "component")
            display = _clean_display(entity.name, '"', strict, "plantuml")
            lines.append(f'{cls} "{display}" as {idents[entity.id]}')
        for rel in relations:
            arrow = "..>" if rel.kind is RelationKind.realization else "-->"
            label = _clean_label(rel.label, "", strict, "plantuml")
            suffix = f" : {label}" if label else ""
            lines.append(f"{idents[rel.source]} {arrow} {idents[rel.target]}{suffix}")
        return _close(lines, notes, "plantuml")

    idents = _ident_map((e.id for e in entities), _MERMAID_IDENT_OK)
    lines = ["graph TD"]
    current_layer = None
    for entity in entities:
        if grouping == "by-layer" and entity.layer is not current_layer:
            current_layer = entity.layer
            lines.append(f"  %% layer {int(current_layer)}: {current_layer.name}")
        shape = {EntityKind.DataStore: "database", EntityKind.Queue: "circle"}.get(entity.kind)
        open_, close, bad = _MERMAID_SHAPES[shape or "node"]
        display = _clean_display(entity.name, bad, strict, "mermaid")
        lines.append(f"  {idents[entity.id]}{open_}{display}{close}")
    for rel in relations:
        if rel.kind is RelationKind.realization:
            _skip(notes, strict, "mermaid", "relation kind realization")
            continue
        label = _clean_label(rel.label, "|;", strict, "mermaid")
        mid = f"-->|{label}|" if label else "-->"
        lines.append(f"  {idents[rel.source]} {mid} {idents[rel.target]}")
    return _close(lines, notes, "mermaid")
