"""Core model types: layer defaults, validation, containment, trace validity."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.errors import (
    ContainmentCycleError,
    DanglingReferenceError,
    DuplicateIdError,
)
from archmeta.model import (
    DEFAULT_LAYER,
    AbstractionLayer,
    Constraint,
    ConstraintKind,
    DiagramRef,
    Entity,
    EntityKind,
    Finding,
    MappingClass,
    Metamodel,
    Relation,
    RelationKind,
    TraceLink,
    build_metamodel,
    layer_of,
    validate_well_formed,
)
from tests.oracles import oracle_ancestor_of_kind
from tests.support.strategies import random_containment_dag, random_model

L = AbstractionLayer
K = EntityKind


def test_layers_are_ordered_one_to_twelve():
    values = [layer.value for layer in AbstractionLayer]
    assert values == list(range(1, 13))
    assert L.Business < L.System < L.Implementation < L.Evolutionary


def test_every_entity_kind_has_a_home_layer():
    for kind in EntityKind:
        assert layer_of(kind) is DEFAULT_LAYER[kind]


@pytest.mark.parametrize(
    "kind, layer",
    [
        (K.BusinessCapability, L.Business),
        (K.Stakeholder, L.Business),
        (K.DomainEntity, L.BusinessConceptual),
        (K.BoundedContext, L.BusinessConceptual),
        (K.Container, L.System),
        (K.ApiInterface, L.System),
        (K.Command, L.SystemPattern),
        (K.DependencyRule, L.SystemStructural),
        (K.DeploymentNode, L.SystemRuntime),
        (K.ServiceInstance, L.Runtime),
        (K.Table, L.Implementation),
        (K.Interaction, L.ImplementationBehavioral),
        (K.State, L.Behavioral),
        (K.LegacySystem, L.Evolutionary),
        (K.RoutingRule, L.Evolutionary),
    ],
)
def test_default_layer_assignments(kind, layer):
    assert Entity("x", kind, "X").layer is layer


def test_explicit_layer_is_kept():
    moved = Entity("x", K.Component, "X", layer=L.Implementation, layer_override=True)
    assert moved.layer is L.Implementation


def test_duplicate_entity_id_rejected():
    with pytest.raises(DuplicateIdError):
        build_metamodel([Entity("a", K.System, "One"), Entity("a", K.System, "Two")])


def test_duplicate_relation_id_rejected():
    ents = [Entity("a", K.System, "A"), Entity("b", K.System, "B")]
    rels = [
        Relation("r", "a", "b", RelationKind.dependency),
        Relation("r", "b", "a", RelationKind.dependency),
    ]
    with pytest.raises(DuplicateIdError):
        build_metamodel(ents, rels)


def test_dangling_relation_endpoint_rejected():
    with pytest.raises(DanglingReferenceError):
        build_metamodel(
            [Entity("a", K.System, "A")],
            [Relation("r", "a", "ghost", RelationKind.dependency)],
        )


def test_dangling_trace_endpoint_rejected():
    with pytest.raises(DanglingReferenceError):
        build_metamodel(
            [Entity("a", K.BusinessCapability, "A")],
            traces=[TraceLink("a", "ghost", MappingClass.capability_container)],
        )


def test_containment_cycle_rejected():
    ents = [Entity("a", K.Container, "A"), Entity("b", K.Component, "B")]
    rels = [
        Relation("c1", "a", "b", RelationKind.containment),
        Relation("c2", "b", "a", RelationKind.containment),
    ]
    with pytest.raises(ContainmentCycleError):
        build_metamodel(ents, rels)


def test_ancestor_of_kind_finds_nearest():
    ents = [
        Entity("ctx", K.BoundedContext, "Ctx"),
        Entity("box", K.Container, "Box"),
        Entity("part", K.Component, "Part"),
    ]
    rels = [
        Relation("c1", "ctx", "box", RelationKind.containment),
        Relation("c2", "box", "part", RelationKind.containment),
    ]
    model = build_metamodel(ents, rels)
    assert model.ancestor_of_kind("part", K.Container) == "box"
    assert model.ancestor_of_kind("part", K.BoundedContext) == "ctx"
    assert model.ancestor_of_kind("ctx", K.Container) is None


def test_ancestor_of_kind_ambiguity_yields_none():
    ents = [
        Entity("box1", K.Container, "One"),
        Entity("box2", K.Container, "Two"),
        Entity("part", K.Component, "Part"),
    ]
    rels = [
        Relation("c1", "box1", "part", RelationKind.containment),
        Relation("c2", "box2", "part", RelationKind.containment),
    ]
    model = build_metamodel(ents, rels)
    assert model.ancestor_of_kind("part", K.Container) is None


def test_trace_validity_recomputed_in_both_orientations():
    ents = [
        Entity("cap", K.BusinessCapability, "Cap"),
        Entity("box", K.Container, "Box"),
        Entity("tbl", K.Table, "tbl"),
    ]
    model = build_metamodel(
        ents,
        traces=[
            TraceLink("cap", "box", MappingClass.capability_container),
            TraceLink("box", "cap", MappingClass.capability_container),
            TraceLink("cap", "tbl", MappingClass.capability_container, validity="valid"),
        ],
    )
    assert model.traces[0].validity == "valid"
    assert model.traces[1].validity == "valid"
    assert model.traces[2].validity.startswith("invalid:")


def test_validate_well_formed_flags_layer_disagreement():
    quiet = build_metamodel([Entity("x", K.Component, "X")])
    assert validate_well_formed(quiet) == []

    moved = build_metamodel(
        [Entity("x", K.Component, "X", layer=L.Business, layer_override=False)]
    )
    rules = {f.rule for f in validate_well_formed(moved)}
    assert "layer-override-missing" in rules

    flagged = build_metamodel(
        [Entity("x", K.Component, "X", layer=L.Business, layer_override=True)]
    )
    assert validate_well_formed(flagged) == []


def test_entities_of_kind_and_index():
    ents = [
        Entity("a", K.System, "A"),
        Entity("b", K.Container, "B"),
        Entity("c", K.Container, "C"),
    ]
    model = build_metamodel(ents)
    assert [e.id for e in model.entities_of_kind(K.Container)] == ["b", "c"]
    assert model.entity("a").name == "A"
    assert model.entity_index["b"].kind is K.Container


def _assert_ancestors_match_oracle(model):
    ids = [*model.entity_index, *model.containment_parents, "ghost"]
    for entity_id in ids:
        for kind in K:
            expected = oracle_ancestor_of_kind(model, entity_id, kind)
            assert model.ancestor_of_kind(entity_id, kind) == expected, (entity_id, kind)
            assert model.ancestor_table(kind).get(entity_id) == expected, (entity_id, kind)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ancestor_of_kind_matches_oracle_on_random_models(seed):
    _assert_ancestors_match_oracle(random_model(random.Random(seed)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ancestor_of_kind_matches_oracle_on_containment_dags(seed):
    _assert_ancestors_match_oracle(random_containment_dag(random.Random(seed)))


def test_ancestor_of_kind_on_assembled_cycle_raises():
    model = Metamodel(
        entities=(
            Entity("a", K.Container, "A"),
            Entity("b", K.Component, "B"),
            Entity("c", K.Component, "C"),
        ),
        relations=(
            Relation("c1", "a", "b", RelationKind.containment),
            Relation("c2", "b", "a", RelationKind.containment),
            Relation("c3", "b", "c", RelationKind.containment),
        ),
    )
    with pytest.raises(ContainmentCycleError):
        model.ancestor_of_kind("c", K.Container)


@pytest.mark.parametrize(
    "record",
    [
        Entity("e", K.Component, "E"),
        Relation("r", "a", "b", RelationKind.dependency),
        TraceLink("a", "b", MappingClass.capability_container),
        Constraint("k", ConstraintKind.acyclicity),
        DiagramRef("v", "SystemContainer", "plantuml"),
        Finding("duplicate-id", "e", "entity id 'e' repeats"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, "changed")
    # a name that is not a field is rejected too; CPython 3.11 raises TypeError
    # for it on slotted frozen dataclasses, later versions FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1
    assert not hasattr(record, "extra")
