"""Structural findings: what build_metamodel raises and validate_well_formed lists.

The expected outcomes were captured from the separate build and validate
checks that one structural walker replaced. They pin each build error's type
and exact message (the text the CLI prints), and the rule and offending id of
every validate finding, in order. The property tests tie the two entry points
and the containment order to each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.errors import ContainmentCycleError
from archmeta.model import (
    AbstractionLayer,
    Entity,
    EntityKind,
    MappingClass,
    Metamodel,
    Relation,
    RelationKind,
    TraceLink,
    build_metamodel,
    validate_well_formed,
)
from tests.support.strategies import random_containment_dag, random_model, random_nested_model

K = EntityKind
R = RelationKind
M = MappingClass

_FATAL = {"duplicate-id", "dangling-reference", "containment-cycle"}

_BASE_ENTITIES = (
    Entity("cap", K.BusinessCapability, "Cap"),
    Entity("box", K.Container, "Box"),
    Entity("part", K.Component, "Part"),
    Entity("mod", K.Module, "Mod"),
)
_BASE_RELATIONS = (
    Relation("c1", "box", "part", R.containment),
    Relation("d1", "part", "mod", R.dependency),
)
_BASE_TRACES = (
    TraceLink("cap", "box", M.capability_container),
    TraceLink("part", "mod", M.component_code_module),
)

# edit name -> (extra entities, extra relations, extra traces)
_EDITS = {
    "duplicate-entity": ((Entity("box", K.Container, "Box again"),), (), ()),
    "duplicate-relation": ((), (Relation("d1", "mod", "part", R.dependency),), ()),
    "dangling-source": ((), (Relation("d2", "ghost", "mod", R.dependency),), ()),
    "dangling-target": ((), (Relation("d3", "part", "ghost", R.data_flow),), ()),
    "dangling-trace": ((), (), (TraceLink("cap", "ghost", M.capability_container),)),
    "dangling-trace-both": ((), (), (TraceLink("ghost", "phantom", M.process_interaction),)),
    "bad-mapping-class": ((), (), (TraceLink("cap", "mod", M.capability_container),)),
    "missing-override": (
        (Entity("late", K.Component, "Late", layer=AbstractionLayer.Business),), (), ()),
    "two-cycle": ((), (Relation("c2", "part", "box", R.containment),), ()),
    "self-containment": ((), (Relation("c3", "mod", "mod", R.containment),), ()),
}


def _assemble(*edits: str) -> tuple[tuple[Entity, ...], tuple[Relation, ...], tuple[TraceLink, ...]]:
    ents, rels, trcs = list(_BASE_ENTITIES), list(_BASE_RELATIONS), list(_BASE_TRACES)
    for edit in edits:
        more_ents, more_rels, more_trcs = _EDITS[edit]
        ents += more_ents
        rels += more_rels
        trcs += more_trcs
    return tuple(ents), tuple(rels), tuple(trcs)


def _build_outcome(ents, rels, trcs) -> tuple[str, str] | None:
    try:
        build_metamodel(ents, rels, trcs)
    except Exception as err:  # the type is part of what is pinned
        return type(err).__name__, str(err)
    return None


def _rules(ents, rels, trcs) -> list[tuple[str, str]]:
    model = Metamodel(entities=ents, relations=rels, traces=trcs)
    return [(f.rule, f.offending_id) for f in validate_well_formed(model)]


_CASES = [
    ((), None, []),
    (("duplicate-entity",),
     ("DuplicateIdError", "duplicate entity id: box"),
     [("duplicate-id", "box")]),
    (("duplicate-relation",),
     ("DuplicateIdError", "duplicate relation id: d1"),
     [("duplicate-id", "d1")]),
    (("dangling-source",),
     ("DanglingReferenceError", "relation d2: source 'ghost' is not an entity"),
     [("dangling-reference", "d2")]),
    (("dangling-target",),
     ("DanglingReferenceError", "relation d3: target 'ghost' is not an entity"),
     [("dangling-reference", "d3")]),
    (("dangling-trace",),
     ("DanglingReferenceError", "trace cap->ghost: endpoint 'ghost' is not an entity"),
     [("dangling-reference", "ghost")]),
    (("dangling-trace-both",),
     ("DanglingReferenceError", "trace ghost->phantom: endpoint 'ghost' is not an entity"),
     [("dangling-reference", "ghost"), ("dangling-reference", "phantom")]),
    (("bad-mapping-class",), None, [("invalid-mapping-class", "cap")]),
    (("missing-override",), None, [("layer-override-missing", "late")]),
    (("two-cycle",),
     ("ContainmentCycleError", "containment cycle: box -> part -> box"),
     [("containment-cycle", "box")]),
    (("self-containment",),
     ("ContainmentCycleError", "containment cycle: mod -> mod"),
     [("containment-cycle", "mod")]),
    # several defects: the first in check order is what build raises
    (("missing-override", "dangling-trace"),
     ("DanglingReferenceError", "trace cap->ghost: endpoint 'ghost' is not an entity"),
     [("dangling-reference", "ghost"), ("layer-override-missing", "late")]),
    (("two-cycle", "bad-mapping-class", "missing-override"),
     ("ContainmentCycleError", "containment cycle: box -> part -> box"),
     [("invalid-mapping-class", "cap"), ("layer-override-missing", "late"),
      ("containment-cycle", "box")]),
    (("two-cycle", "duplicate-relation"),
     ("DuplicateIdError", "duplicate relation id: d1"),
     [("duplicate-id", "d1"), ("containment-cycle", "box")]),
    (("dangling-trace", "dangling-target", "duplicate-entity"),
     ("DuplicateIdError", "duplicate entity id: box"),
     [("duplicate-id", "box"), ("dangling-reference", "d3"), ("dangling-reference", "ghost")]),
    (("bad-mapping-class", "dangling-trace-both", "dangling-source"),
     ("DanglingReferenceError", "relation d2: source 'ghost' is not an entity"),
     [("dangling-reference", "d2"), ("invalid-mapping-class", "cap"),
      ("dangling-reference", "ghost"), ("dangling-reference", "phantom")]),
    (tuple(_EDITS),
     ("DuplicateIdError", "duplicate entity id: box"),
     [("duplicate-id", "box"), ("duplicate-id", "d1"), ("dangling-reference", "d2"),
      ("dangling-reference", "d3"), ("dangling-reference", "ghost"),
      ("dangling-reference", "ghost"), ("dangling-reference", "phantom"),
      ("invalid-mapping-class", "cap"), ("layer-override-missing", "late"),
      ("containment-cycle", "box")]),
]


@pytest.mark.parametrize("edits, raised, rules", _CASES,
                         ids=["+".join(edits) or "none" for edits, _, _ in _CASES])
def test_pinned_outcome(edits, raised, rules):
    records = _assemble(*edits)
    assert _build_outcome(*records) == raised
    assert _rules(*records) == rules


# ---------------------------------------------------------------- seeded defects

_DEFECTS = (
    "duplicate-entity", "duplicate-relation", "dangling-source", "dangling-target",
    "dangling-trace", "bad-mapping-class", "missing-override", "two-cycle",
)


def _inject(rng: random.Random, model: Metamodel, defects: tuple[str, ...]):
    """The model's records with each defect inserted at a random position.

    Injected dangling relations are never containment, so the containment
    graph only ever holds entity endpoints.
    """
    ents, rels, trcs = list(model.entities), list(model.relations), list(model.traces)

    def put(records: list, record: object) -> None:
        records.insert(rng.randrange(len(records) + 1), record)

    for n, defect in enumerate(defects):
        a, b = rng.choice(ents), rng.choice(ents)
        if defect == "duplicate-entity":
            put(ents, dataclasses.replace(a, name="twin", kind=rng.choice(list(K)), layer=None))
        elif defect == "duplicate-relation":
            if rels:
                rid = rng.choice(rels).id
            else:
                rid = f"x{n}"
                put(rels, Relation(rid, b.id, a.id, R.data_flow))
            put(rels, Relation(rid, a.id, b.id, R.dependency))
        elif defect == "dangling-source":
            put(rels, Relation(f"x{n}", f"ghost{n}", a.id, rng.choice((R.dependency, R.data_flow))))
        elif defect == "dangling-target":
            put(rels, Relation(f"x{n}", a.id, f"ghost{n}", rng.choice((R.dependency, R.realization))))
        elif defect == "dangling-trace":
            ends = (a.id, f"ghost{n}") if rng.random() < 0.5 else (f"ghost{n}", a.id)
            put(trcs, TraceLink(*ends, rng.choice(list(M))))
        elif defect == "bad-mapping-class":
            odd = Entity(f"odd{n}", K.Policy, "Odd")
            put(ents, odd)
            put(trcs, TraceLink(odd.id, a.id, rng.choice(list(M))))
        elif defect == "missing-override":
            layers = [layer for layer in AbstractionLayer if layer != a.layer]
            moved = dataclasses.replace(a, layer=rng.choice(layers), layer_override=False)
            ents[ents.index(a)] = moved
        else:  # two-cycle (a self loop when both picks are one entity)
            put(rels, Relation(f"y{n}", a.id, b.id, R.containment))
            put(rels, Relation(f"z{n}", b.id, a.id, R.containment))
    return tuple(ents), tuple(rels), tuple(trcs)


def _seeded(seed: int):
    rng = random.Random(seed)
    make = (random_model, random_nested_model)[seed % 2]
    model = make(rng)
    defects = tuple(rng.sample(_DEFECTS, rng.choice((0, 1, 1, 2, 3))))
    return _inject(rng, model, defects)


def test_pinned_outcomes_over_seeded_defects():
    build = hashlib.sha256()
    rules = hashlib.sha256()
    raised = 0
    for seed in range(300):
        records = _seeded(seed)
        outcome = _build_outcome(*records)
        raised += outcome is not None
        build.update(repr(outcome).encode() + b"\n")
        rules.update(repr(_rules(*records)).encode() + b"\n")
    assert raised == _SEEDED_RAISED
    assert build.hexdigest() == _SEEDED_BUILD_DIGEST
    assert rules.hexdigest() == _SEEDED_RULES_DIGEST


_SEEDED_RAISED = 212
_SEEDED_BUILD_DIGEST = "3736a47b589c2f0aa6bb590ea9100f9397e53b8c50753fbc0a6789647140d70a"
_SEEDED_RULES_DIGEST = "75c0c5737dfe4b92e64c87461a93cb5c7acab07efadbf3725884bd55612393dd"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_build_raises_exactly_the_first_fatal_finding(seed):
    ents, rels, trcs = _seeded(seed)
    findings = validate_well_formed(Metamodel(entities=ents, relations=rels, traces=trcs))
    fatal = next((f for f in findings if f.rule in _FATAL), None)
    outcome = _build_outcome(ents, rels, trcs)
    if fatal is None:
        assert outcome is None
    else:
        assert outcome is not None and outcome[1] == fatal.message


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cycle_finding_matches_ancestor_table(seed):
    rng = random.Random(seed)
    model = random_containment_dag(rng)
    if model.relations and rng.random() < 0.7:
        # an edge back from a child to a parent: a cycle when the parent
        # already contains the child, through entities or dangling ids alike
        child = rng.choice(model.relations).target
        parent = rng.choice(model.relations).source
        back = Relation("back", child, parent, R.containment)
        model = dataclasses.replace(model, relations=(*model.relations, back))
    cycles = [f for f in validate_well_formed(model) if f.rule == "containment-cycle"]
    try:
        model.ancestor_table(K.Container)
    except ContainmentCycleError as err:
        assert [f.message for f in cycles] == [str(err)]
    else:
        assert cycles == []
