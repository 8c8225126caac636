"""Diagram text parsing: both notations, all families, and the failure modes."""

from __future__ import annotations

import hashlib

import pytest

from archmeta.diagrams import (
    ArtifactStatus,
    DiagramFormat,
    DiagramType,
    check_parsability,
    detect_format,
    parse_diagram,
)
from archmeta.diagrams import parse
from archmeta.diagrams.canonical import parse_canonical
from archmeta.diagrams.mermaid import parse_mermaid
from archmeta.diagrams.plantuml import parse_plantuml
from archmeta.diagrams.types import DiagramEdge, DiagramElement
from archmeta.errors import DiagramSyntaxError, UnsupportedConstructError
from tests.conftest import DESK_DIR


def _elements(diagram):
    return {(e.local_id, e.element_class) for e in diagram.elements}


def _edges(diagram):
    return {(e.source, e.target, e.edge_class, e.label) for e in diagram.edges}


# ---------------------------------------------------------------- plantuml


def test_component_family_full_vocabulary():
    text = (
        "@startuml\n"
        "[Order Service]\n"
        'database "Orders Db" as db\n'
        'package "billing" {\n'
        "[Invoicer]\n"
        "}\n"
        "[Order Service] --> db : writes\n"
        "[Invoicer] ..> [Order Service]\n"
        "@enduml\n"
    )
    d = parse_diagram(text)
    assert d.parse_status == "parsed"
    assert d.format is DiagramFormat.plantuml
    assert _elements(d) == {
        ("Order Service", "component"),
        ("db", "database"),
        ("billing", "package"),
        ("Invoicer", "component"),
    }
    assert _edges(d) == {
        ("billing", "Invoicer", "containment", ""),
        ("Order Service", "db", "dependency", "writes"),
        ("Invoicer", "Order Service", "dependency", ""),
    }


def test_edge_reference_declares_implicitly():
    d = parse_diagram("@startuml\nalpha --> beta\n@enduml\n")
    assert d.parse_status == "parsed"
    assert _elements(d) == {("alpha", "component"), ("beta", "component")}


def test_class_family_members_and_inheritance():
    text = (
        "@startuml\n"
        "class Order {\n"
        "  id\n"
        "  total\n"
        "}\n"
        "interface Api\n"
        "Order --|> Api\n"
        "@enduml\n"
    )
    d = parse_diagram(text)
    assert d.parse_status == "parsed"
    assert d.type is DiagramType.ClassModuleStructure
    assert _elements(d) == {("Order", "class"), ("Api", "interface")}
    assert ("Order", "Api", "inheritance", "") in _edges(d)
    order = next(e for e in d.elements if e.local_id == "Order")
    assert order.properties["members"] == ("id", "total")


def test_sequence_family():
    text = (
        "@startuml\n"
        'participant "Checkout" as c\n'
        "actor buyer\n"
        "buyer -> c : submit\n"
        "@enduml\n"
    )
    d = parse_diagram(text)
    assert d.parse_status == "parsed"
    assert d.type is DiagramType.SequenceInteraction
    assert ("buyer", "c", "message", "submit") in _edges(d)


def test_state_family_with_initial_marker():
    text = (
        "@startuml\n"
        'state "Open" as open\n'
        "[*] --> open\n"
        "open --> closed : archive\n"
        "@enduml\n"
    )
    d = parse_diagram(text)
    assert d.parse_status == "parsed"
    assert d.type is DiagramType.StateMachine
    assert ("initial", "open", "transition", "") in _edges(d)
    assert ("open", "closed", "transition", "archive") in _edges(d)


def test_plantuml_strictness():
    missing_end = parse_diagram("@startuml\n[A] --> [B]\n")
    assert missing_end.parse_status == "failed"
    assert "expected @enduml" in missing_end.failure_reason

    unsupported = parse_diagram("@startuml\ntitle Checkout\n[A] --> [B]\n@enduml\n")
    assert unsupported.parse_status == "failed"
    assert unsupported.failure_reason.startswith("unsupported: title")

    duplicate = parse_diagram('@startuml\ncomponent "X" as x\ncomponent "Y" as x\n@enduml\n')
    assert duplicate.parse_status == "failed"

    gibberish = parse_diagram("@startuml\n<<<%%>>>\n@enduml\n")
    assert gibberish.parse_status == "failed"


def test_parse_plantuml_raises_directly():
    with pytest.raises(UnsupportedConstructError):
        parse_plantuml("@startuml\nskinparam monochrome true\n@enduml\n")
    with pytest.raises(DiagramSyntaxError) as err:
        parse_plantuml("@startuml\n???\n@enduml\n")
    assert err.value.line == 2


def test_each_parser_emits_typed_records():
    assert parse_plantuml("@startuml\nclass A {\n  +x: int\n}\nA --> B : uses\n@enduml\n") == (
        "class",
        [DiagramElement("A", "A", "class", {"members": ("+x: int",)}),
         DiagramElement("B", "B", "class")],
        [DiagramEdge("A", "B", "association", "uses")],
    )
    assert parse_mermaid("erDiagram\nORDER {\n  string id\n}\nORDER ||--o{ LINE : has\n") == (
        "er",
        [DiagramElement("ORDER", "ORDER", "er_entity", {"members": ("id (string)",)}),
         DiagramElement("LINE", "LINE", "er_entity")],
        [DiagramEdge("ORDER", "LINE", "relationship", "has")],
    )
    canonical = (
        '{"schema_version": "1.0", "entities": ['
        '{"id": "a", "kind": "Container", "name": "A"}, {"id": "b", "kind": "Component", "name": "B"}],'
        ' "relations": [{"id": "r", "source": "a", "target": "b", "kind": "containment"}]}'
    )
    assert parse_canonical(canonical) == (
        [DiagramElement("a", "A", "Container", {"layer": "System", "layer_override": False,
                                                "description": "", "attributes": {}}),
         DiagramElement("b", "B", "Component", {"layer": "System", "layer_override": False,
                                                "description": "", "attributes": {}})],
        [DiagramEdge("a", "b", "containment", "", {"id": "r"})],
    )


# ---------------------------------------------------------------- mermaid


def test_mermaid_graph_shapes_and_labeled_edges():
    text = (
        "graph TD\n"
        "  a[Cart] --> b\n"
        "  b[(Orders)]\n"
        "  c((Mail))\n"
        "  b -->|notify| c\n"
    )
    d = parse_diagram(text)
    assert d.parse_status == "parsed"
    assert d.format is DiagramFormat.mermaid
    assert _elements(d) == {("a", "node"), ("b", "database"), ("c", "circle")}
    assert _edges(d) == {("a", "b", "flow", ""), ("b", "c", "flow", "notify")}
    assert next(e for e in d.elements if e.local_id == "b").display_name == "Orders"


def test_mermaid_semicolon_separated_statements():
    d = parse_diagram("graph LR\n  a --> b; b --> c\n")
    assert d.parse_status == "parsed"
    assert len(d.edges) == 2


def test_mermaid_er_family():
    text = (
        "erDiagram\n"
        "  ORDER ||--o{ LINE : contains\n"
        "  ORDER {\n"
        "    int id\n"
        "  }\n"
    )
    d = parse_diagram(text)
    assert d.parse_status == "parsed"
    assert d.type is DiagramType.DataModelSchema
    assert _elements(d) == {("ORDER", "er_entity"), ("LINE", "er_entity")}
    assert ("ORDER", "LINE", "relationship", "contains") in _edges(d)


def test_mermaid_sequence_and_state_families():
    seq = parse_diagram("sequenceDiagram\n  participant a as Checkout\n  a ->> b : pay\n")
    assert seq.parse_status == "parsed"
    assert seq.type is DiagramType.SequenceInteraction

    state = parse_diagram("stateDiagram-v2\n  [*] --> open\n  open --> closed : archive\n")
    assert state.parse_status == "parsed"
    assert state.type is DiagramType.StateMachine
    assert ("initial", "open", "transition", "") in _edges(state)


def test_mermaid_strictness():
    unsupported = parse_diagram("graph TD\n  subgraph cluster\n  a --> b\n  end\n")
    assert unsupported.parse_status == "failed"
    assert unsupported.failure_reason.startswith("unsupported: subgraph")

    headerless = parse_diagram("a --> b\n", format="mermaid")
    assert headerless.parse_status == "failed"


@pytest.mark.parametrize("line, construct", [
    ("accTitle Checkout", "accTitle"),
    ("accTitle: Checkout", "accTitle"),
    ("accDescr: orders flow to billing", "accDescr"),
])
def test_mermaid_accessibility_lines_are_unsupported_not_syntax_errors(line, construct):
    d = parse_diagram(f"graph TD\n{line}\n  a --> b\n")
    assert d.failure_reason == f"unsupported: {construct} (line 2)"


# ---------------------------------------------------------------- dispatch


def test_detect_format():
    assert detect_format("@startuml\n@enduml\n") is DiagramFormat.plantuml
    assert detect_format("graph TD\n a --> b\n") is DiagramFormat.mermaid
    assert detect_format('{"schema_version": "1.0"}') is DiagramFormat.canonical
    assert detect_format("once upon a time") is None
    assert detect_format("  \n' comment only\n@startuml\n@enduml\n") is DiagramFormat.plantuml


def test_unknown_format_fails_gracefully():
    d = parse_diagram("once upon a time")
    assert d.parse_status == "failed"


def test_format_pin_overrides_detection():
    plantuml_text = "@startuml\n[A] --> [B]\n@enduml\n"
    pinned = parse_diagram(plantuml_text, format="mermaid")
    assert pinned.parse_status == "failed"


def test_type_hint_wins_over_inference():
    d = parse_diagram("graph TD\n a --> b\n", type_hint=DiagramType.EventDrivenView)
    assert d.type is DiagramType.EventDrivenView


def test_source_digest_is_sha256_of_text():
    text = "@startuml\n[A]\n@enduml\n"
    d = parse_diagram(text)
    assert d.source_digest == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_check_parsability_counts_and_alignment():
    batch = [
        ("ok.puml", "@startuml\n[A] --> [B]\n@enduml\n"),
        ("bad.puml", "@startuml\n[A] -->\n@enduml\n"),
        ("ok.mmd", "graph TD\n a --> b\n"),
    ]
    aset = check_parsability(batch)
    assert (aset.parsable_count, aset.total_count) == (2, 3)
    failed = [s for s in aset.artifacts if s.parse_status != "parsed"]
    assert [s.name for s in failed] == ["bad.puml"]

    with pytest.raises(ValueError):
        check_parsability(batch, formats=["plantuml"])


# ---------------------------------------------------------------- recorded outcomes


def _audit_batch() -> list[tuple[str, str]]:
    """The desk artifacts, one of them broken, plus a broken text of each notation."""
    files = sorted((DESK_DIR / "artifacts").iterdir())
    return [(p.name, p.read_text("utf-8")) for p in files] + [
        ("broken.puml", "@startuml\n[A] -->\n@enduml\n"),
        ("broken.mmd", "graph TD\n  subgraph cluster\n  a --> b\n  end\n"),
    ]


def _statuses(batch: list[tuple[str, str]]) -> list[ArtifactStatus]:
    statuses = []
    for name, text in batch:
        d = parse_diagram(text)
        statuses.append(ArtifactStatus(name, d.format, d.parse_status, d.failure_reason))
    return statuses


def test_recorded_outcomes_audit_like_a_fresh_parse(parses):
    batch = _audit_batch()
    cold = check_parsability(batch)
    assert len(parses) == len(batch)
    warm = check_parsability(batch)
    assert len(parses) == len(batch)  # every status came from the record
    assert warm == cold
    assert list(cold.artifacts) == _statuses(batch)
    failed = {s.name: s.failure_reason for s in cold.artifacts if s.parse_status == "failed"}
    assert sorted(failed) == ["broken.mmd", "broken.puml", "c4-07.puml"]
    assert failed["broken.mmd"].startswith("unsupported: ")
    assert failed["broken.puml"].startswith("syntax: ")


def test_outcomes_recorded_by_parse_diagram_serve_the_audit(parses):
    batch = _audit_batch()
    expected = _statuses(batch)
    assert len(parses) == len(batch)
    assert list(check_parsability(batch).artifacts) == expected
    assert len(parses) == len(batch)


def test_an_outcome_under_a_pinned_format_is_not_served_under_the_detected_one(parses):
    text = "@startuml\n[A] --> [B]\n@enduml\n"
    assert parse_diagram(text, format="mermaid").parse_status == "failed"
    assert check_parsability([("a.puml", text)]).artifacts == (
        ArtifactStatus("a.puml", DiagramFormat.plantuml, "parsed"),
    )
    pinned = check_parsability([("a.puml", text)], formats=["mermaid"]).artifacts[0]
    assert (pinned.format, pinned.parse_status) == (DiagramFormat.mermaid, "failed")
    assert len(parses) == 2


def test_the_outcome_record_drops_the_least_recently_used(parses, monkeypatch):
    monkeypatch.setattr(parse, "_OUTCOMES_HELD", 2)
    a, b, c = (f"graph TD\n  {n} --> z\n" for n in "abc")
    check_parsability([("a", a), ("b", b), ("a", a), ("c", c)])
    assert len(parse._outcomes) == 2
    check_parsability([("a", a), ("c", c)])
    assert parses == [a, b, c]
    check_parsability([("b", b)])
    assert parses == [a, b, c, b]
