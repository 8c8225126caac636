"""Canonical JSON interchange format (.archmeta.json).

One document fully describes a model: schema_version, system, entities,
relations, traces, constraints, diagrams. Serialization is deterministic
(fixed key order, arrays sorted, two-space indent, trailing newline) so equal
models produce byte-identical documents: the bytes of json.dumps(doc,
indent=2, ensure_ascii=False) over the documented key order. Strict parsing
rejects unknown fields; non-strict ignores them.

Both directions make one pass per record. The writer fills a fixed template
per record instead of running json's pure-Python indenting encoder; the
reader checks each field inline in a fixed order, so the first defect of a
record names the same field whatever else is wrong with it.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Any, Mapping

from ..errors import DiagramSyntaxError
from ..jsonin import decode_json
from ..model import (
    AbstractionLayer,
    Constraint,
    ConstraintKind,
    DiagramRef,
    Entity,
    EntityKind,
    MappingClass,
    Metamodel,
    Relation,
    RelationKind,
    TraceLink,
    build_metamodel,
    layer_of,
)
from .types import DiagramEdge, DiagramElement

SCHEMA_VERSION = "1.0"

_TOP_KEYS = frozenset(("schema_version", "system", "entities", "relations", "traces",
                       "constraints", "diagrams"))
_ENTITY_KEYS = frozenset(("id", "kind", "name", "layer", "layer_override", "description",
                          "attributes"))
_RELATION_KEYS = frozenset(("id", "source", "target", "kind", "label"))
_TRACE_KEYS = frozenset(("source", "target", "mapping_class"))
_CONSTRAINT_KEYS = frozenset(("id", "kind", "scope", "params"))
_DIAGRAM_KEYS = frozenset(("name", "type", "format", "source_digest"))
_SCOPE_KEYS = ("layers", "entities")

_ENTITY_KINDS = {k.value: k for k in EntityKind}
_RELATION_KINDS = {k.value: k for k in RelationKind}
_MAPPING_CLASSES = {c.value: c for c in MappingClass}
_CONSTRAINT_KINDS = {k.value: k for k in ConstraintKind}
_LAYERS = {layer.name: layer for layer in AbstractionLayer}


# --- parsing ---------------------------------------------------------------
#
# Each record is checked field by field in one fixed order, so the first
# defect decides the message. Messages are only formatted on failure.

def _fail(reason: str) -> DiagramSyntaxError:
    return DiagramSyntaxError(0, 0, reason)


def _unknown_fields(obj: dict[str, Any], allowed: frozenset[str], where: str) -> DiagramSyntaxError:
    return _fail(f"{where}: no unknown fields (got {', '.join(sorted(obj.keys() - allowed))})")


def _bad_field(obj: dict[str, Any], key: str, where: str) -> DiagramSyntaxError:
    """A string field that is missing (when required) or holds another type."""
    if key in obj:
        return _fail(f"{where}: string value for {key!r}")
    return _fail(f"{where}: field {key!r}")


def _entity_from(obj: Any, strict: bool) -> Entity:
    if not isinstance(obj, dict):
        raise _fail("entity: object")
    if strict and not obj.keys() <= _ENTITY_KEYS:
        raise _unknown_fields(obj, _ENTITY_KEYS, "entity")
    eid = obj.get("id")
    if not isinstance(eid, str):
        raise _bad_field(obj, "id", "entity")
    kind_name = obj.get("kind")
    if not isinstance(kind_name, str):
        raise _bad_field(obj, "kind", f"entity {eid!r}")
    kind = _ENTITY_KINDS.get(kind_name)
    if kind is None:
        raise _fail(f"entity {eid!r}: known kind (got {kind_name!r})")
    name = obj.get("name")
    if not isinstance(name, str):
        raise _bad_field(obj, "name", f"entity {eid!r}")
    layer_name = obj.get("layer", "")
    if not isinstance(layer_name, str):
        raise _bad_field(obj, "layer", f"entity {eid!r}")
    if layer_name:
        layer = _LAYERS.get(layer_name)
        if layer is None:
            raise _fail(f"entity {eid!r}: known layer (got {layer_name!r})")
    else:
        layer = layer_of(kind)
    override = obj.get("layer_override", False)
    if not isinstance(override, bool):
        raise _fail(f"entity {eid!r}: boolean layer_override")
    attributes = obj.get("attributes", {})
    if not isinstance(attributes, dict):
        raise _fail(f"entity {eid!r}: object attributes")
    description = obj.get("description", "")
    if not isinstance(description, str):
        raise _bad_field(obj, "description", f"entity {eid!r}")
    return Entity(eid, kind, name, layer, override, description, attributes)


def _relation_from(obj: Any, strict: bool, ids: Mapping[str, str]) -> Relation:
    if not isinstance(obj, dict):
        raise _fail("relation: object")
    if strict and not obj.keys() <= _RELATION_KEYS:
        raise _unknown_fields(obj, _RELATION_KEYS, "relation")
    rid = obj.get("id")
    if not isinstance(rid, str):
        raise _bad_field(obj, "id", "relation")
    kind_name = obj.get("kind")
    if not isinstance(kind_name, str):
        raise _bad_field(obj, "kind", f"relation {rid!r}")
    kind = _RELATION_KINDS.get(kind_name)
    if kind is None:
        raise _fail(f"relation {rid!r}: known kind (got {kind_name!r})")
    source = obj.get("source")
    if not isinstance(source, str):
        raise _bad_field(obj, "source", f"relation {rid!r}")
    target = obj.get("target")
    if not isinstance(target, str):
        raise _bad_field(obj, "target", f"relation {rid!r}")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise _bad_field(obj, "label", f"relation {rid!r}")
    return Relation(rid, ids.get(source, source), ids.get(target, target), kind, label)


def _trace_from(obj: Any, strict: bool, ids: Mapping[str, str]) -> TraceLink:
    if not isinstance(obj, dict):
        raise _fail("trace: object")
    if strict and not obj.keys() <= _TRACE_KEYS:
        raise _unknown_fields(obj, _TRACE_KEYS, "trace")
    cls_name = obj.get("mapping_class")
    if not isinstance(cls_name, str):
        raise _bad_field(obj, "mapping_class", "trace")
    cls = _MAPPING_CLASSES.get(cls_name)
    if cls is None:
        raise _fail(f"trace: known mapping_class (got {cls_name!r})")
    source = obj.get("source")
    if not isinstance(source, str):
        raise _bad_field(obj, "source", "trace")
    target = obj.get("target")
    if not isinstance(target, str):
        raise _bad_field(obj, "target", "trace")
    return TraceLink(ids.get(source, source), ids.get(target, target), cls)


def _constraint_from(obj: Any, strict: bool) -> Constraint:
    if not isinstance(obj, dict):
        raise _fail("constraint: object")
    if strict and not obj.keys() <= _CONSTRAINT_KEYS:
        raise _unknown_fields(obj, _CONSTRAINT_KEYS, "constraint")
    cid = obj.get("id")
    if not isinstance(cid, str):
        raise _bad_field(obj, "id", "constraint")
    kind_name = obj.get("kind")
    if not isinstance(kind_name, str):
        raise _bad_field(obj, "kind", f"constraint {cid!r}")
    kind = _CONSTRAINT_KINDS.get(kind_name)
    if kind is None:
        raise _fail(f"constraint {cid!r}: known kind (got {kind_name!r})")
    scope_obj = obj.get("scope")
    if scope_obj is None:
        scope_obj = {}  # dumps_model writes an empty scope as null
    elif not isinstance(scope_obj, dict):
        raise _fail(f"constraint {cid!r}: object or null scope")
    scope: dict[str, tuple[str, ...]] = {}
    for key in _SCOPE_KEYS:
        if key in scope_obj:
            vals = scope_obj[key]
            if not isinstance(vals, list) or not all(isinstance(v, str) for v in vals):
                raise _fail(f"constraint {cid!r}: string array scope.{key}")
            scope[key] = tuple(vals)
    if strict:
        unknown = sorted(scope_obj.keys() - set(_SCOPE_KEYS))
        if unknown:
            raise _fail(f"constraint {cid!r}: no unknown scope fields ({', '.join(unknown)})")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise _fail(f"constraint {cid!r}: object params")
    return Constraint(id=cid, kind=kind, scope=scope, params=params)


def _diagram_ref_from(obj: Any, strict: bool) -> DiagramRef:
    if not isinstance(obj, dict):
        raise _fail("diagram reference: object")
    if strict and not obj.keys() <= _DIAGRAM_KEYS:
        raise _unknown_fields(obj, _DIAGRAM_KEYS, "diagram reference")
    name = obj.get("name")
    if not isinstance(name, str):
        raise _bad_field(obj, "name", "diagram reference")
    dtype = obj.get("type")
    if not isinstance(dtype, str):
        raise _bad_field(obj, "type", "diagram reference")
    fmt = obj.get("format")
    if not isinstance(fmt, str):
        raise _bad_field(obj, "format", "diagram reference")
    digest = obj.get("source_digest", "")
    if not isinstance(digest, str):
        raise _bad_field(obj, "source_digest", "diagram reference")
    return DiagramRef(name, dtype, fmt, digest)


def _document(text: str, strict: bool) -> dict[str, Any]:
    try:
        doc = decode_json(text)
    except json.JSONDecodeError as exc:
        raise DiagramSyntaxError(exc.lineno, exc.colno, f"valid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise _fail("top-level object")
    if strict and not doc.keys() <= _TOP_KEYS:
        raise _unknown_fields(doc, _TOP_KEYS, "document")
    version = doc.get("schema_version")
    if not isinstance(version, str):
        raise _bad_field(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise _fail(f"schema_version {SCHEMA_VERSION!r} (got {version!r})")
    for key in ("entities", "relations", "traces", "constraints", "diagrams"):
        if key in doc and not isinstance(doc[key], list):
            raise _fail(f"document: array {key!r}")
    return doc


def _id_strings(entities: list[Entity]) -> dict[str, str]:
    """Each entity id mapped to itself. Relations and traces take their
    endpoints from it, so an endpoint shares its entity's id string instead of
    keeping the copy json.loads made for every occurrence."""
    return {e.id: e.id for e in entities}


def loads_model(text: str, strict: bool = True) -> Metamodel:
    """Parse a canonical document into a validated Metamodel."""
    doc = _document(text, strict)
    entities = [_entity_from(o, strict) for o in doc.get("entities", ())]
    ids = _id_strings(entities)
    relations = [_relation_from(o, strict, ids) for o in doc.get("relations", ())]
    traces = [_trace_from(o, strict, ids) for o in doc.get("traces", ())]
    constraints = [_constraint_from(o, strict) for o in doc.get("constraints", ())]
    diagrams = [_diagram_ref_from(o, strict) for o in doc.get("diagrams", ())]
    system = doc.get("system", "")
    if not isinstance(system, str):
        raise _bad_field(doc, "system", "document")
    return build_metamodel(entities=entities, relations=relations, traces=traces,
                           constraints=constraints, diagrams=diagrams, system=system)


def parse_canonical(text: str, strict: bool = True) -> tuple[list[DiagramElement], list[DiagramEdge]]:
    """Diagram view of a canonical document: entities as elements, relations
    as edges. Element properties carry everything needed for exact lifting."""
    doc = _document(text, strict)
    entities = [_entity_from(o, strict) for o in doc.get("entities", ())]
    ids = _id_strings(entities)
    relations = [_relation_from(o, strict, ids) for o in doc.get("relations", ())]
    for r in relations:
        for end in (r.source, r.target):
            if end not in ids:
                raise _fail(f"relation {r.id!r}: declared endpoint (got {end!r})")
    elements = [
        DiagramElement(e.id, e.name, e.kind.value, {
            "layer": e.layer.name,
            "layer_override": e.layer_override,
            "description": e.description,
            "attributes": dict(e.attributes),
        })
        for e in entities
    ]
    edges = [
        DiagramEdge(r.source, r.target, r.kind.value, r.label, {"id": r.id})
        for r in relations
    ]
    return elements, edges


# --- serialization ---------------------------------------------------------
#
# json.dumps falls back to its pure-Python encoder whenever indent is set.
# Here each fixed-shape record fills a template, strings go through the C
# string encoder, and only the free-form attributes, scope and params go
# through json.dumps, all of a model's in one call, indented to their depth
# (each indenting call leaves a reference cycle of the encoder's closures,
# which only the cyclic collector frees). All pieces are joined once, so no
# intermediate whole-document string is built.

_str = encode_basestring
_FREE_PAD = "\n      "  # depth of a record's fields: top object > array > record
_ITEM_BREAK = re.compile(r",\n  (?! )")

_ENTITY_JSON = (',\n    {\n      "id": %s,\n      "kind": %s,\n      "name": %s,'
                '\n      "layer": %s,\n      "layer_override": %s,\n      "description": %s,'
                '\n      "attributes": %s\n    }')
_RELATION_JSON = (',\n    {\n      "id": %s,\n      "source": %s,\n      "target": %s,'
                  '\n      "kind": %s,\n      "label": %s\n    }')
_TRACE_JSON = ',\n    {\n      "source": %s,\n      "target": %s,\n      "mapping_class": %s\n    }'
_CONSTRAINT_JSON = (',\n    {\n      "id": %s,\n      "kind": %s,\n      "scope": %s,'
                    '\n      "params": %s\n    }')
_DIAGRAM_JSON = (',\n    {\n      "name": %s,\n      "type": %s,\n      "format": %s,'
                 '\n      "source_digest": %s\n    }')


def _free_each(values: list[Any]) -> list[str]:
    """Each free-form JSON value as json.dumps(indent=2) writes it, at field
    depth, from one json.dumps call over the list of them.

    The list is written "[\n  v1,\n  v2\n]". A top-level item starts after
    ",\n  " and a non-space, since deeper lines are indented further; and
    adding four spaces after each newline re-indents an item exactly. Both
    hold because encoded strings never hold a raw newline.
    """
    if not values:
        return []
    text = json.dumps(values, indent=2, ensure_ascii=False)
    return [item.replace("\n  ", _FREE_PAD) for item in _ITEM_BREAK.split(text[4:-2])]


def _sorted_mapping(mapping: Mapping[Any, Any]) -> dict[Any, Any]:
    return {k: mapping[k] for k in sorted(mapping)}


def _scope(scope: Mapping[str, Any]) -> dict[str, list[str]] | None:
    out = {key: sorted(scope[key]) for key in _SCOPE_KEYS if scope.get(key)}
    return out or None


def _array(parts: list[str], key: str, records: list[str]) -> None:
    """Append `"key": [...]`; each record starts with its comma-and-newline
    separator, which the first one drops."""
    if records:
        records[0] = records[0][1:]
        parts.append(f',\n  "{key}": [')
        parts.extend(records)
        parts.append("\n  ]")
    else:
        parts.append(f',\n  "{key}": []')


def dumps_model(model: Metamodel) -> str:
    entities = sorted(model.entities, key=attrgetter("id"))
    constraints = sorted(model.constraints, key=attrgetter("id"))
    # every free-form value in document order, taken back one by one below
    free = iter(_free_each([
        *(_sorted_mapping(e.attributes) for e in entities if e.attributes),
        *(value for c in constraints for value in (_scope(c.scope), _sorted_mapping(c.params))),
    ]))
    parts = ['{\n  "schema_version": ', _str(SCHEMA_VERSION), ',\n  "system": ', _str(model.system)]
    _array(parts, "entities", [
        _ENTITY_JSON % (
            _str(e.id), _str(e.kind.value), _str(e.name), _str(e.layer.name),
            "true" if e.layer_override else "false", _str(e.description),
            next(free) if e.attributes else "{}",
        )
        for e in entities
    ])
    _array(parts, "relations", [
        _RELATION_JSON % (_str(r.id), _str(r.source), _str(r.target), _str(r.kind.value),
                          _str(r.label))
        for r in sorted(model.relations, key=attrgetter("id"))
    ])
    _array(parts, "traces", [
        _TRACE_JSON % (_str(t.source), _str(t.target), _str(t.mapping_class.value))
        for t in sorted(model.traces, key=lambda t: (t.mapping_class.value, t.source, t.target))
    ])
    _array(parts, "constraints", [
        _CONSTRAINT_JSON % (_str(c.id), _str(c.kind.value), next(free), next(free))
        for c in constraints
    ])
    _array(parts, "diagrams", [
        _DIAGRAM_JSON % (_str(d.name), _str(d.type), _str(d.format), _str(d.source_digest))
        for d in sorted(model.diagrams, key=attrgetter("name"))
    ])
    parts.append("\n}\n")
    return "".join(parts)
