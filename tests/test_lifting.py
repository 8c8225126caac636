"""Lifting parsed diagrams into typed fragments and merged models."""

from __future__ import annotations

import copy
import hashlib
import random

import pytest

from archmeta.diagrams import DiagramType, parse_diagram
from archmeta.diagrams import lifting
from archmeta.diagrams.canonical import dumps_model
from archmeta.diagrams.lifting import (
    ModelFragment,
    combine_fragments,
    lift_diagram,
    lift_to_metamodel,
    load_lifting_table,
)
from archmeta.diagrams.render import (
    render_diagram_view,
    serialize_metamodel,
    view_entity_kinds,
    view_format,
)
from archmeta.errors import (
    AmbiguousElementClassError,
    DuplicateIdError,
    NotParsedError,
    UnknownDiagramTypeError,
)
from archmeta.model import (
    AbstractionLayer,
    Entity,
    EntityKind,
    Relation,
    RelationKind,
    layer_of,
)
from tests.support.strategies import random_containment_dag, random_model, random_nested_model


def test_table_covers_every_diagram_type():
    table = load_lifting_table()["diagram_types"]
    assert set(table) == {t.value for t in DiagramType}
    for rules in table.values():
        assert rules["elements"]
        assert "edges" in rules


def test_container_view_lifting_kinds_and_layers():
    text = (
        "@startuml\n"
        'component "Checkout" as web\n'
        'database "Orders" as db\n'
        'queue "Jobs" as q\n'
        "actor buyer\n"
        "web --> db : writes\n"
        "@enduml\n"
    )
    d = parse_diagram(text, type_hint=DiagramType.SystemContainer)
    frag = lift_diagram(d)
    by_id = {e.id: e for e in frag.entities}
    assert by_id["web"].kind is EntityKind.Container
    assert by_id["web"].layer is AbstractionLayer.System
    assert by_id["web"].layer_override is False
    assert by_id["db"].kind is EntityKind.DataStore
    # queue carries its own pinned layer, which is also its home layer
    assert by_id["q"].kind is EntityKind.Queue
    assert by_id["q"].layer is AbstractionLayer.Runtime
    assert by_id["q"].layer_override is False
    # stakeholders are pulled up to the business layer
    assert by_id["buyer"].kind is EntityKind.Stakeholder
    assert by_id["buyer"].layer is AbstractionLayer.Business
    assert [(r.source, r.target, r.kind, r.label) for r in frag.relations] == [
        ("web", "db", RelationKind.dependency, "writes")
    ]
    assert frag.relations[0].id == "rel-001"


def test_layer_override_marks_divergence_from_home_layer():
    # components lifted through a pattern-level view leave their home layer
    d = parse_diagram("graph TD\n  a[Writer] --> b[Reader]\n", type_hint=DiagramType.EventDrivenView)
    frag = lift_diagram(d)
    assert layer_of(EntityKind.Component) is AbstractionLayer.System
    for ent in frag.entities:
        assert ent.layer is AbstractionLayer.SystemPattern
        assert ent.layer_override is True


def test_ignored_elements_drop_their_edges():
    d = parse_diagram("stateDiagram-v2\n  [*] --> open\n  open --> closed : archive\n")
    frag = lift_diagram(d)
    assert {e.id for e in frag.entities} == {"open", "closed"}
    assert [(r.source, r.target) for r in frag.relations] == [("open", "closed")]
    assert frag.relations[0].kind is RelationKind.state_transition


def test_class_members_become_attributes():
    text = "@startuml\nclass Order {\n  id\n  total\n}\n@enduml\n"
    d = parse_diagram(text, type_hint=DiagramType.ClassModuleStructure)
    frag = lift_diagram(d)
    assert frag.entities[0].attributes == {"members": ["id", "total"]}


def test_named_lift_attaches_diagram_ref():
    d = parse_diagram("graph TD\n  a --> b\n", type_hint=DiagramType.EventDrivenView)
    frag = lift_diagram(d, name="views/events.mmd")
    assert frag.diagram is not None
    assert frag.diagram.name == "views/events.mmd"
    assert frag.diagram.type == "EventDrivenView"
    assert frag.diagram.source_digest == d.source_digest
    assert lift_diagram(d).diagram is None


def test_lift_rejects_failed_and_untyped_parses():
    failed = parse_diagram("@startuml\n???\n@enduml\n")
    with pytest.raises(NotParsedError):
        lift_diagram(failed)
    # a component-family sheet alone does not determine a view type
    untyped = parse_diagram("@startuml\n[A] --> [B]\n@enduml\n")
    assert untyped.type is None
    with pytest.raises(UnknownDiagramTypeError):
        lift_diagram(untyped)


def test_lift_rejects_vocabulary_gaps():
    # sequence views have no rule for graph-family nodes
    d = parse_diagram("graph TD\n  a --> b\n", type_hint=DiagramType.SequenceInteraction)
    with pytest.raises(AmbiguousElementClassError):
        lift_diagram(d)


# ---------------------------------------------------------------- merging


def _ent(id, kind=EntityKind.Component, name=""):
    return Entity(id=id, kind=kind, name=name or id)


@pytest.mark.parametrize("path, value", [
    (("Nope",), {"elements": {}, "edges": {}}),
    (("SystemContainer", "elements", "component"), {"kind": "Nope"}),
    (("SystemContainer", "elements", "component"), {"kind": "Container", "layer": "Nope"}),
    (("SystemContainer", "edges", "dependency"), "Nope"),
], ids=["type", "kind", "layer", "relation-kind"])
def test_a_broken_lifting_table_fails_on_first_use(monkeypatch, path, value):
    table = copy.deepcopy(load_lifting_table())
    rules = table["diagram_types"]
    for key in path[:-1]:
        rules = rules[key]
    rules[path[-1]] = value
    monkeypatch.setattr(lifting, "load_lifting_table", lambda: table)
    lifting._rules.cache_clear()
    try:
        with pytest.raises((KeyError, ValueError), match="Nope"):
            lift_diagram(parse_diagram("@startuml\ncomponent a\n@enduml\n",
                                       type_hint=DiagramType.SystemContainer))
    finally:
        lifting._rules.cache_clear()


def test_combine_merges_repeated_entities():
    a = ModelFragment(entities=(_ent("x"), _ent("y")), relations=())
    b = ModelFragment(
        entities=(_ent("y"), _ent("z")),
        relations=(Relation(id="rel-001", source="y", target="z", kind=RelationKind.dependency),),
    )
    model = combine_fragments([a, b], system="merged")
    assert sorted(e.id for e in model.entities) == ["x", "y", "z"]
    assert len(model.relations) == 1


def test_combine_rejects_kind_conflicts():
    a = ModelFragment(entities=(_ent("x", EntityKind.Component),), relations=())
    b = ModelFragment(entities=(_ent("x", EntityKind.DataStore),), relations=())
    with pytest.raises(DuplicateIdError):
        combine_fragments([a, b])


def test_combine_deduplicates_identical_edges_and_renumbers_collisions():
    shared = (_ent("x"), _ent("y"))
    dep = Relation(id="rel-001", source="x", target="y", kind=RelationKind.dependency)
    other = Relation(id="rel-001", source="y", target="x", kind=RelationKind.dependency)
    a = ModelFragment(entities=shared, relations=(dep,))
    b = ModelFragment(entities=shared, relations=(dep, other))
    model = combine_fragments([a, b])
    assert len(model.relations) == 2
    contents = {(r.source, r.target) for r in model.relations}
    assert contents == {("x", "y"), ("y", "x")}
    assert len({r.id for r in model.relations}) == 2


def test_combine_collects_distinct_diagram_refs():
    d = parse_diagram("graph TD\n  a --> b\n", type_hint=DiagramType.EventDrivenView)
    frag = lift_diagram(d, name="one.mmd")
    model = combine_fragments([frag, frag], system="s")
    assert [ref.name for ref in model.diagrams] == ["one.mmd"]


def test_lift_to_metamodel_end_to_end():
    pairs = [
        ("flow.mmd", parse_diagram("graph TD\n  a --> b\n", type_hint=DiagramType.EventDrivenView)),
        ("store.puml", parse_diagram(
            '@startuml\ncomponent "Api" as api\ndatabase "D" as d\napi --> d\n@enduml\n',
            type_hint=DiagramType.SystemContainer,
        )),
    ]
    model = lift_to_metamodel(pairs, system="shop")
    assert model.system == "shop"
    assert {e.id for e in model.entities} == {"a", "b", "api", "d"}
    assert [ref.name for ref in model.diagrams] == ["flow.mmd", "store.puml"]


# ---------------------------------------------------------------- round trips


def test_canonical_lift_reconstructs_model_exactly():
    model = random_model(random.Random(411), max_entities=30)
    d = parse_diagram(dumps_model(model))
    frag = lift_diagram(d)
    rebuilt = combine_fragments([frag], system=model.system)
    assert {(e.id, e.kind, e.layer, e.layer_override) for e in rebuilt.entities} == {
        (e.id, e.kind, e.layer, e.layer_override) for e in model.entities
    }
    assert {(r.id, r.source, r.target, r.kind, r.label) for r in rebuilt.relations} == {
        (r.id, r.source, r.target, r.kind, r.label) for r in model.relations
    }


@pytest.mark.parametrize("dtype", list(DiagramType), ids=lambda t: t.value)
def test_every_view_renders_to_liftable_text(dtype, original_model):
    text = render_diagram_view(original_model, dtype)
    d = parse_diagram(text, format=view_format(dtype).value, type_hint=dtype)
    assert d.parse_status == "parsed", d.failure_reason
    frag = lift_diagram(d, name=f"{dtype.value}.view")
    allowed = view_entity_kinds(dtype)
    for ent in frag.entities:
        assert ent.kind in allowed


# sha256 over every view, strict and lenient, of the three desk models and 100
# seeds each of random_nested_model and random_containment_dag (121 nested
# package lines among them); a strict view that raises contributes its error
VIEWS_DIGEST = "87af48fd56e85d3c5b37f3dae8598348fe913e6850f9ef206b0dcf1ac62b7314"


def test_rendered_views_are_pinned(original_model, process_a_model, process_b_model):
    models = [original_model, process_a_model, process_b_model]
    models += [random_nested_model(random.Random(seed)) for seed in range(100)]
    models += [random_containment_dag(random.Random(seed)) for seed in range(100)]
    digest = hashlib.sha256()
    for model in models:
        for dtype in DiagramType:
            for strict in (False, True):
                try:
                    text = render_diagram_view(model, dtype, strict)
                except Exception as exc:
                    text = f"{type(exc).__name__}: {exc}"
                digest.update(f"{dtype.value}|{strict}|".encode() + text.encode() + b"\0")
    assert digest.hexdigest() == VIEWS_DIGEST


# sha256 over serialize_metamodel's PlantUML and Mermaid text, flat and by
# layer, strict and lenient, of the three desk models and 50 random_model
# seeds; a strict call that raises contributes its error
SERIALIZED_DIGEST = "1602fea8c05528526a9bb1f1f5e0ce95784ca745c19c7b438c325aabf066518a"


def test_serialized_notations_are_pinned(original_model, process_a_model, process_b_model):
    models = [original_model, process_a_model, process_b_model]
    models += [random_model(random.Random(seed)) for seed in range(50)]
    digest = hashlib.sha256()
    for model in models:
        for fmt in ("plantuml", "mermaid"):
            for grouping in ("flat", "by-layer"):
                for strict in (False, True):
                    try:
                        text = serialize_metamodel(model, fmt, grouping, strict)
                    except Exception as exc:
                        text = f"{type(exc).__name__}: {exc}"
                    digest.update(f"{fmt}|{grouping}|{strict}|".encode() + text.encode() + b"\0")
    assert digest.hexdigest() == SERIALIZED_DIGEST
