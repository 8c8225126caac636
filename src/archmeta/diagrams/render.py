"""Render models as diagram text.

render_diagram_view() writes one of the 18 typed views in its notation
(types._VIEWS). A kind appears only when the notation has a construct that
the view's lifting rules lift back to it, so render -> parse -> lift is
stable for everything shown; each view type's inverse of its rules is one
cached plan.
serialize_metamodel() writes the whole model: canonical losslessly, PlantUML
and Mermaid with the dependency structure only.

Both write every line through _Out, which has one writer per construct and
takes each keyword, arrow, node shape, header and comment prefix from the
notation's table in vocabulary.py, the table its parser is built from. A
lenient render names each construct it drops in an "omitted:" comment;
strict=True raises UnrepresentableConstructError instead.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Iterable, NamedTuple

from ..errors import UnrepresentableConstructError
from ..model import (
    Entity,
    EntityKind,
    Metamodel,
    Relation,
    RelationKind,
)
from .canonical import dumps_model
from .lifting import _rules
from .types import _VIEWS, DiagramFormat, DiagramType
from .vocabulary import IDENT_START, MERMAID, PLANTUML, Family

def _family(notation: str) -> Family:
    """The vocabulary of a view notation: "plantuml-class" is PLANTUML.families["class"]."""
    fmt, _, family = notation.partition("-")
    return (PLANTUML if fmt == "plantuml" else MERMAID).families[family]


# graph node class -> its written opener and closer, and what a name in it may not hold
_SHAPE = {cls: (opener, closer, "".join(dict.fromkeys(closer)) + MERMAID.statement_end)
          for cls, ((opener, closer), *_) in MERMAID.shapes.items()}
# per notation (is it Mermaid?): the characters an identifier may not hold
_NOT_IDENT = {False: re.compile(f"[^{PLANTUML.ident}]"), True: re.compile(f"[^{MERMAID.ident}]")}
_IDENT_START = re.compile(f"[{IDENT_START}]")
_ER_COLUMN = re.compile(MERMAID.er_member_column)


def _ident_map(ids: Iterable[str], mermaid: bool) -> dict[str, str]:
    """Deterministic injective map from entity ids to notation identifiers."""
    not_ident = _NOT_IDENT[mermaid]
    out: dict[str, str] = {}
    used: set[str] = set()
    for raw in ids:
        safe = not_ident.sub("_", raw) or "_"
        if not _IDENT_START.match(safe):
            safe = "e_" + safe
        candidate, n = safe, 1
        while candidate in used:
            n += 1
            candidate = f"{safe}_{n}"
        used.add(candidate)
        out[raw] = candidate
    return out


def _members_of(entity: Entity) -> list[str]:
    raw = entity.attributes.get("members")
    if not isinstance(raw, (list, tuple)):
        return []
    return [" ".join(str(m).split()) for m in raw if str(m).strip() and str(m).strip() != "}"]


class _Out:
    """One text being written: its lines, the constructs it omitted, and one
    writer per construct, which every view emitter and serialize_metamodel()
    call. `ident` maps entity ids to the notation's identifiers."""

    def __init__(self, notation: str, strict: bool) -> None:
        self.notation, self.strict = notation, strict
        self.mermaid = notation.startswith("mermaid")
        self.notes: list[str] = []
        self.ident: dict[str, str] = {}
        graph = f"{MERMAID.heads['graph'][0]} {MERMAID.directions[0]}"
        head = MERMAID.heads["er"][0] if notation == "mermaid-er" else graph
        self.lines = [head if self.mermaid else PLANTUML.frame[0]]

    def skip(self, construct: str) -> None:
        if self.strict:
            raise UnrepresentableConstructError(self.notation, construct)
        if construct not in self.notes:
            self.notes.append(construct)

    def label(self, label: str, forbidden: str = "", what: str = "label") -> str:
        text = " ".join(label.split())
        bad = [c for c in forbidden if c in text]
        if bad:
            if self.strict:
                raise UnrepresentableConstructError(
                    self.notation, f"{what} containing {bad[0]!r}: {label!r}")
            for c in bad:
                text = text.replace(c, "'" if c == '"' else "/")
        return text

    def display(self, name: str, forbidden: str = '"') -> str:
        """An entity's name, fit to stand between the notation's quotes or brackets."""
        return self.label(name, forbidden, "name") or "unnamed"

    def declare(self, keyword: str, eid: str, display: str | None = None,
                block: bool = False, indent: str = "") -> None:
        """PlantUML's `keyword "display" as ident` or `keyword ident`; block opens a body."""
        ident = self.ident[eid]
        line = f'{keyword} "{display}" as {ident}' if display is not None else f"{keyword} {ident}"
        self.lines.append(indent + line + (" {" if block else ""))

    def edge(self, source: str, arrow: str, target: str, label: str = "") -> None:
        line = f"{self.ident[source]} {arrow} {self.ident[target]}"
        line = f"{line} : {label}" if label else line
        self.lines.append("  " + line if self.mermaid else line)

    def edges(self, relations: list[tuple[Relation, str]]) -> None:
        """Each relation with its class's arrow; a labelled family's edges fall back to the kind."""
        family = _family(self.notation)
        for rel, cls in relations:
            label = self.label(rel.label) or (rel.kind.value if family.labelled else "")
            self.edge(rel.source, family.edges[cls][0], rel.target, label)

    def node(self, eid: str, cls: str, name: str) -> None:
        """A Mermaid graph node, drawn in its class's shape."""
        opener, closer, forbidden = _SHAPE[cls]
        self.lines.append(f"  {self.ident[eid]}{opener}{self.display(name, forbidden)}{closer}")

    def flow(self, source: str, target: str, label: str) -> None:
        """A Mermaid graph edge, its label between the arrow's label marks."""
        marks = MERMAID.flow_label
        arrow = MERMAID.families["graph"].edges["flow"][0]
        label = self.label(label, marks + MERMAID.statement_end)
        self.edge(source, f"{arrow}{marks}{label}{marks}" if label else arrow, target)

    def comment(self, text: str) -> None:
        self.lines.append(f"  {MERMAID.comment} {text}" if self.mermaid
                          else f"{PLANTUML.comment} {text}")

    def text(self) -> str:
        """The finished text: one comment line per omitted construct, then the end."""
        for note in self.notes:
            self.comment(f"omitted: {note}")
        if not self.mermaid:
            self.lines.append(PLANTUML.frame[1])
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------- notation emitters

def _emit_plantuml_component(out: _Out, entities: list[tuple[Entity, str]],
                             relations: list[tuple[Relation, str]]) -> None:
    package = PLANTUML.package
    # containment nesting is expressible only through package blocks: each
    # child nests once, under a parent written with the package class
    children: dict[str, list[str]] = {}
    parent_of: dict[str, str] = {}
    kept_relations: list[tuple[Relation, str]] = []
    by_id = {e.id: (e, cls) for e, cls in entities}
    for rel, cls in relations:
        if cls != "containment":
            kept_relations.append((rel, cls))
        elif rel.target in parent_of or by_id[rel.source][1] != package:
            out.skip("containment relation")
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
            out.lines.append(f"{indent}}}")
            continue
        entity, cls = by_id[eid]
        display = out.display(entity.name)
        if cls == package:
            # a package's textual id is its bare name, so edges can only
            # reference it when that name is the ident itself
            if display != out.ident[eid]:
                out.skip(f"package display name {entity.name!r}")
            out.declare(package, eid, block=True, indent=indent)
            stack.append((None, indent))
            stack.extend((child, indent + "  ") for child in reversed(children.get(eid, ())))
            continue
        out.declare(cls, eid, display, indent=indent)
    out.edges(kept_relations)


def _emit_plantuml_class(out: _Out, entities: list[tuple[Entity, str]],
                         relations: list[tuple[Relation, str]]) -> None:
    for entity, cls in entities:
        members = _members_of(entity)
        out.declare(cls, entity.id, block=bool(members))
        if members:
            out.lines.extend(f"  {m}" for m in members)
            out.lines.append("}")
    out.edges(relations)


def _emit_plantuml_sequence(out: _Out, entities: list[tuple[Entity, str]],
                            relations: list[tuple[Relation, str]]) -> None:
    for entity, cls in entities:
        out.declare(cls, entity.id, out.display(entity.name))
    out.edges(relations)


def _emit_plantuml_state(out: _Out, entities: list[tuple[Entity, str]],
                         relations: list[tuple[Relation, str]]) -> None:
    for entity, cls in entities:
        display = out.display(entity.name)
        out.declare(cls, entity.id, None if display == out.ident[entity.id] else display)
    out.edges(relations)


def _emit_mermaid_graph(out: _Out, entities: list[tuple[Entity, str]],
                        relations: list[tuple[Relation, str]]) -> None:
    for entity, cls in entities:
        out.node(entity.id, cls, entity.name)
    for rel, _cls in relations:
        out.flow(rel.source, rel.target, rel.label)


def _emit_mermaid_er(out: _Out, entities: list[tuple[Entity, str]],
                     relations: list[tuple[Relation, str]]) -> None:
    for entity, _cls in entities:
        ident = out.ident[entity.id]
        columns = []
        for member in _members_of(entity):
            # a member "name (type)" is a column; anything else cannot round-trip
            m = _ER_COLUMN.fullmatch(member)
            if m:
                columns.append(f"    {m.group(2)} {m.group(1)}")
            else:
                out.skip(f"attribute {member!r}")
        out.lines.extend([f"  {ident} {{", *columns, "  }"] if columns else [f"  {ident}"])
    out.edges(relations)


# ---------------------------------------------------------------- typed views

class _ViewPlan(NamedTuple):
    entity_class: dict[EntityKind, str]  # kind -> the notation's element class
    relation_class: dict[RelationKind, str]  # kind -> the notation's edge class
    kinds: frozenset[EntityKind]  # every kind the view's lifting rules lift to


@functools.cache
def _view_plan(dtype: DiagramType) -> _ViewPlan:
    """Invert the lifting rules for one view: kind -> construct class."""
    family = _family(_VIEWS[dtype][1])
    rules = _rules()[dtype]
    lifted = {cls: rule[0] for cls, rule in rules.elements.items() if rule is not None}
    entity_class: dict[EntityKind, str] = {}
    for cls in family.elements:
        if cls in lifted:
            entity_class.setdefault(lifted[cls], cls)
    relation_class: dict[RelationKind, str] = {}
    for cls in family.edges:
        if cls in rules.edges:
            relation_class.setdefault(rules.edges[cls], cls)
    return _ViewPlan(entity_class, relation_class, frozenset(lifted.values()))


_EMITTERS: dict[str, Callable[[_Out, list, list], None]] = {
    "plantuml-component": _emit_plantuml_component,
    "plantuml-class": _emit_plantuml_class,
    "plantuml-sequence": _emit_plantuml_sequence,
    "plantuml-state": _emit_plantuml_state,
    "mermaid-graph": _emit_mermaid_graph,
    "mermaid-er": _emit_mermaid_er,
}
NOTATION_FORMAT = {notation: DiagramFormat(notation.partition("-")[0]) for notation in _EMITTERS}


def view_notation(dtype: DiagramType) -> str:
    return _VIEWS[dtype][1]


def view_format(dtype: DiagramType) -> DiagramFormat:
    return NOTATION_FORMAT[_VIEWS[dtype][1]]


def view_entity_kinds(dtype: DiagramType) -> frozenset[EntityKind]:
    """All entity kinds the view's lifting rules can produce."""
    return _view_plan(dtype).kinds


def render_diagram_view(model: Metamodel, dtype: DiagramType, strict: bool = False) -> str:
    """Write the slice of the model this view type covers, in its notation."""
    out = _Out(_VIEWS[dtype][1], strict)
    entity_class, relation_class, kinds = _view_plan(dtype)

    entities: list[tuple[Entity, str]] = []
    for entity in model.entities:
        cls = entity_class.get(entity.kind)
        if cls is not None:
            entities.append((entity, cls))
        elif entity.kind in kinds:
            # liftable into this view but not expressible by its notation
            out.skip(f"entity kind {entity.kind.value}")
    rendered = {e.id for e, _ in entities}

    relations: list[tuple[Relation, str]] = []
    for rel in model.relations:
        if rel.source not in rendered or rel.target not in rendered:
            continue
        cls = relation_class.get(rel.kind)
        if cls is None:
            out.skip(f"relation kind {rel.kind.value}")
            continue
        relations.append((rel, cls))

    out.ident = _ident_map((e.id for e, _ in entities), out.mermaid)
    _EMITTERS[out.notation](out, entities, relations)
    return out.text()


# ---------------------------------------------------------------- whole model

# The element class the whole-model export draws a kind with, if not its family's first.
_GENERIC_CLASS: dict[DiagramFormat, dict[EntityKind, str]] = {
    DiagramFormat.plantuml: {
        EntityKind.DataStore: "database",
        EntityKind.Queue: "queue",
        EntityKind.Stakeholder: "actor",
        EntityKind.Role: "actor",
        EntityKind.ApiInterface: "interface",
    },
    DiagramFormat.mermaid: {EntityKind.DataStore: "database", EntityKind.Queue: "circle"},
}


def serialize_metamodel(
    model: Metamodel,
    format: DiagramFormat | str = DiagramFormat.canonical,
    grouping: str = "flat",
    strict: bool = False,
) -> str:
    """Whole-model export. Canonical is lossless. PlantUML draws every entity
    in the component family and Mermaid in the graph family, with the element
    class _GENERIC_CLASS picks; they keep dependency and realization edges
    (Mermaid only dependency) and note every construct they cannot say.

    strict=True raises UnrepresentableConstructError on the first construct
    the notation cannot say. That includes every containment relation, so a
    strict PlantUML or Mermaid export of a model with containment always
    raises, although the component view could draw it as nested packages."""
    fmt = format if isinstance(format, DiagramFormat) else DiagramFormat(format)
    if grouping not in ("flat", "by-layer"):
        raise ValueError(f"unknown grouping: {grouping!r}")
    if fmt is DiagramFormat.canonical:
        return dumps_model(model)

    out = _Out(fmt.value, strict)
    entities = list(model.entities)
    if grouping == "by-layer":
        entities.sort(key=lambda e: (int(e.layer), e.id))
    renderable = {RelationKind.dependency, RelationKind.realization}
    relations = []
    for rel in model.relations:
        if rel.kind in renderable:
            relations.append(rel)
        else:
            out.skip(f"relation kind {rel.kind.value}")

    family = MERMAID.families["graph"] if out.mermaid else PLANTUML.families["component"]
    out.ident = _ident_map((e.id for e in entities), out.mermaid)
    current_layer = None
    for entity in entities:
        if grouping == "by-layer" and entity.layer is not current_layer:
            current_layer = entity.layer
            out.comment(f"layer {int(current_layer)}: {current_layer.name}")
        cls = _GENERIC_CLASS[fmt].get(entity.kind, family.elements[0])
        if out.mermaid:
            out.node(entity.id, cls, entity.name)
        else:
            out.declare(cls, entity.id, out.display(entity.name))
    # a dependency takes the solid arrow, a realization the dotted one
    solid_dotted = PLANTUML.families["component"].edges["dependency"]
    for rel in relations:
        if not out.mermaid:
            arrow = solid_dotted[rel.kind is RelationKind.realization]
            out.edge(rel.source, arrow, rel.target, out.label(rel.label))
        elif rel.kind is RelationKind.realization:
            out.skip("relation kind realization")
        else:
            out.flow(rel.source, rel.target, rel.label)
    return out.text()
