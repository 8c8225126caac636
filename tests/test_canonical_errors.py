"""Error parity for the canonical loader: each malformed record raises the
same DiagramSyntaxError text, and with two defects the same one wins.

The expected strings were captured from the per-field validator that the
single-pass loader replaced, so they pin both the wording and the order in
which a record's fields are checked.
"""

from __future__ import annotations

import json

import pytest

from archmeta.diagrams.canonical import loads_model, parse_canonical
from archmeta.errors import DiagramSyntaxError

_ENTITY = {"id": "a", "kind": "System", "name": "A", "layer": "System",
           "layer_override": False, "description": "", "attributes": {}}
_RELATION = {"id": "r", "source": "a", "target": "b", "kind": "dependency", "label": ""}
_TRACE = {"source": "a", "target": "b", "mapping_class": "capability-container"}
_CONSTRAINT = {"id": "k", "kind": "acyclicity", "scope": None, "params": {}}
_DIAGRAM = {"name": "v", "type": "SystemContainer", "format": "plantuml", "source_digest": ""}
_GOOD = {"entities": _ENTITY, "relations": _RELATION, "traces": _TRACE,
         "constraints": _CONSTRAINT, "diagrams": _DIAGRAM}
_MISSING = object()


def _rec(section: str, **changes: object) -> dict:
    record = dict(_GOOD[section])
    for key, value in changes.items():
        if value is _MISSING:
            del record[key]
        else:
            record[key] = value
    return record


def _document(section: str, record: object) -> str:
    doc = {
        "schema_version": "1.0",
        "system": "s",
        "entities": [_ENTITY, dict(_ENTITY, id="b", kind="Container", name="B",
                                   layer="SystemStructural")],
        "relations": [_RELATION],
        "traces": [_TRACE],
        "constraints": [_CONSTRAINT],
        "diagrams": [_DIAGRAM],
    }
    if section == "entities":
        doc["entities"] = [record, doc["entities"][1]]
    else:
        doc[section] = [record]
    return json.dumps(doc)


_CASES = [
    # a record that is not an object
    ("entities", 1, "entity: object"),
    ("relations", "x", "relation: object"),
    ("traces", None, "trace: object"),
    ("constraints", [], "constraint: object"),
    ("diagrams", True, "diagram reference: object"),
    # unknown fields (strict mode), listed sorted
    ("entities", _rec("entities", zeta=1, alpha=2),
     "entity: no unknown fields (got alpha, zeta)"),
    ("relations", _rec("relations", zeta=1, alpha=2),
     "relation: no unknown fields (got alpha, zeta)"),
    ("traces", _rec("traces", zeta=1, alpha=2), "trace: no unknown fields (got alpha, zeta)"),
    ("constraints", _rec("constraints", zeta=1, alpha=2),
     "constraint: no unknown fields (got alpha, zeta)"),
    ("diagrams", _rec("diagrams", zeta=1, alpha=2),
     "diagram reference: no unknown fields (got alpha, zeta)"),
    # missing or non-string required fields
    ("entities", _rec("entities", id=_MISSING), "entity: field 'id'"),
    ("entities", _rec("entities", id=5), "entity: string value for 'id'"),
    ("entities", _rec("entities", id=None), "entity: string value for 'id'"),
    ("entities", _rec("entities", kind=_MISSING), "entity 'a': field 'kind'"),
    ("entities", _rec("entities", kind=5), "entity 'a': string value for 'kind'"),
    ("entities", _rec("entities", name=_MISSING), "entity 'a': field 'name'"),
    ("entities", _rec("entities", name=5), "entity 'a': string value for 'name'"),
    ("relations", _rec("relations", id=_MISSING), "relation: field 'id'"),
    ("relations", _rec("relations", id=5), "relation: string value for 'id'"),
    ("relations", _rec("relations", kind=_MISSING), "relation 'r': field 'kind'"),
    ("relations", _rec("relations", kind=5), "relation 'r': string value for 'kind'"),
    ("relations", _rec("relations", source=_MISSING), "relation 'r': field 'source'"),
    ("relations", _rec("relations", source=5), "relation 'r': string value for 'source'"),
    ("relations", _rec("relations", target=_MISSING), "relation 'r': field 'target'"),
    ("relations", _rec("relations", target=5), "relation 'r': string value for 'target'"),
    ("traces", _rec("traces", source=_MISSING), "trace: field 'source'"),
    ("traces", _rec("traces", source=5), "trace: string value for 'source'"),
    ("traces", _rec("traces", target=_MISSING), "trace: field 'target'"),
    ("traces", _rec("traces", target=5), "trace: string value for 'target'"),
    ("traces", _rec("traces", mapping_class=_MISSING), "trace: field 'mapping_class'"),
    ("traces", _rec("traces", mapping_class=5), "trace: string value for 'mapping_class'"),
    ("constraints", _rec("constraints", id=_MISSING), "constraint: field 'id'"),
    ("constraints", _rec("constraints", id=5), "constraint: string value for 'id'"),
    ("constraints", _rec("constraints", kind=_MISSING), "constraint 'k': field 'kind'"),
    ("constraints", _rec("constraints", kind=5), "constraint 'k': string value for 'kind'"),
    ("diagrams", _rec("diagrams", name=_MISSING), "diagram reference: field 'name'"),
    ("diagrams", _rec("diagrams", name=5), "diagram reference: string value for 'name'"),
    ("diagrams", _rec("diagrams", type=_MISSING), "diagram reference: field 'type'"),
    ("diagrams", _rec("diagrams", type=5), "diagram reference: string value for 'type'"),
    ("diagrams", _rec("diagrams", format=_MISSING), "diagram reference: field 'format'"),
    ("diagrams", _rec("diagrams", format=5), "diagram reference: string value for 'format'"),
    # unknown vocabulary
    ("entities", _rec("entities", kind="Starship"), "entity 'a': known kind (got 'Starship')"),
    ("relations", _rec("relations", kind="teleport"), "relation 'r': known kind (got 'teleport')"),
    ("constraints", _rec("constraints", kind="no-such-rule"),
     "constraint 'k': known kind (got 'no-such-rule')"),
    ("traces", _rec("traces", mapping_class="anything-goes"),
     "trace: known mapping_class (got 'anything-goes')"),
    ("entities", _rec("entities", layer="Nowhere"), "entity 'a': known layer (got 'Nowhere')"),
    ("entities", _rec("entities", layer=3), "entity 'a': string value for 'layer'"),
    # wrongly typed optional fields
    ("entities", _rec("entities", layer_override=1), "entity 'a': boolean layer_override"),
    ("entities", _rec("entities", layer_override="true"), "entity 'a': boolean layer_override"),
    ("entities", _rec("entities", attributes=[]), "entity 'a': object attributes"),
    ("entities", _rec("entities", attributes=None), "entity 'a': object attributes"),
    ("entities", _rec("entities", description=None), "entity 'a': string value for 'description'"),
    ("relations", _rec("relations", label=7), "relation 'r': string value for 'label'"),
    ("diagrams", _rec("diagrams", source_digest=1),
     "diagram reference: string value for 'source_digest'"),
    ("constraints", _rec("constraints", scope=["x"]), "constraint 'k': object or null scope"),
    ("constraints", _rec("constraints", scope={"layers": ["System", 4]}),
     "constraint 'k': string array scope.layers"),
    ("constraints", _rec("constraints", scope={"layers": ["System"], "zones": []}),
     "constraint 'k': no unknown scope fields (zones)"),
    ("constraints", _rec("constraints", params=[]), "constraint 'k': object params"),
    # two defects: the first in the record's check order wins
    ("entities", _rec("entities", id=5, kind="Starship"), "entity: string value for 'id'"),
    ("entities", _rec("entities", kind="Starship", layer_override=1),
     "entity 'a': known kind (got 'Starship')"),
    ("entities", _rec("entities", id=_MISSING, extra=1), "entity: no unknown fields (got extra)"),
    ("entities", _rec("entities", layer="Nowhere", attributes=[]),
     "entity 'a': known layer (got 'Nowhere')"),
    ("entities", _rec("entities", attributes=[], description=0), "entity 'a': object attributes"),
    ("relations", _rec("relations", source=_MISSING, target=1), "relation 'r': field 'source'"),
    ("relations", _rec("relations", kind="teleport", label=7),
     "relation 'r': known kind (got 'teleport')"),
    ("traces", _rec("traces", mapping_class=1, source=_MISSING),
     "trace: string value for 'mapping_class'"),
    # a falsy scope other than null is still not an object
    ("constraints", _rec("constraints", scope=[]), "constraint 'k': object or null scope"),
    ("constraints", _rec("constraints", scope=False), "constraint 'k': object or null scope"),
    ("constraints", _rec("constraints", scope=0), "constraint 'k': object or null scope"),
    ("constraints", _rec("constraints", scope=""), "constraint 'k': object or null scope"),
]


@pytest.mark.parametrize("section, record, reason", _CASES)
def test_malformed_record_message(section, record, reason):
    text = _document(section, record)
    with pytest.raises(DiagramSyntaxError) as err:
        loads_model(text)
    assert str(err.value) == f"line 0, col 0: expected {reason}"
    if section in ("entities", "relations"):  # the diagram view checks these two
        with pytest.raises(DiagramSyntaxError) as err:
            parse_canonical(text)
        assert str(err.value) == f"line 0, col 0: expected {reason}"


@pytest.mark.parametrize("section", sorted(_GOOD))
def test_unknown_field_is_ignored_in_lenient_mode(section):
    text = _document(section, _rec(section, zeta=1, alpha=2))
    with pytest.raises(DiagramSyntaxError):
        loads_model(text)
    assert len(loads_model(text, strict=False).entities) == 2


@pytest.mark.parametrize("text, reason", [
    ("[]", "top-level object"),
    ('{"schema_version": "1.0", "extra": 1}', "document: no unknown fields (got extra)"),
    ('{"schema_version": "2"}', "schema_version '1.0' (got '2')"),
    ('{"schema_version": "1.0", "entities": {}}', "document: array 'entities'"),
    ('{"system": "s"}', "document: field 'schema_version'"),
    ('{"schema_version": 1}', "document: string value for 'schema_version'"),
    ('{"schema_version": "1.0", "system": 3}', "document: string value for 'system'"),
    ("{", "valid JSON (Expecting property name enclosed in double quotes)"),
])
def test_malformed_document_message(text, reason):
    with pytest.raises(DiagramSyntaxError) as err:
        loads_model(text)
    line = "1, col 2" if reason.startswith("valid JSON") else "0, col 0"
    assert str(err.value) == f"line {line}: expected {reason}"
