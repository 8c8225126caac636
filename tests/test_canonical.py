"""Canonical JSON serialization: fixpoint, structure preservation, strictness."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.diagrams import dumps_model, loads_model
from archmeta.errors import DanglingReferenceError, DiagramParseError
from archmeta.model import (
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
)

from tests.oracles import oracle_dumps_model
from tests.support.strategies import random_model

FIXTURES = Path(__file__).parent / "fixtures"


def _structural_view(model):
    return (
        model.system,
        tuple((e.id, e.kind, e.name, e.layer, e.description) for e in sorted(model.entities, key=lambda e: e.id)),
        tuple(sorted((r.id, r.source, r.target, r.kind, r.label) for r in model.relations)),
        tuple(sorted((t.source, t.target, t.mapping_class.value, t.validity) for t in model.traces)),
        tuple(sorted(c.id for c in model.constraints)),
        tuple(sorted(d.name for d in model.diagrams)),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_reaches_fixpoint(seed):
    model = random_model(random.Random(seed))
    once = dumps_model(model)
    reparsed = loads_model(once)
    assert dumps_model(reparsed) == once
    assert _structural_view(reparsed) == _structural_view(model)


def test_dump_is_sorted_and_newline_terminated():
    ents = [
        Entity("z", EntityKind.Container, "Last"),
        Entity("a", EntityKind.Container, "First"),
    ]
    rels = [Relation("r2", "z", "a", RelationKind.dependency),
            Relation("r1", "a", "z", RelationKind.data_flow)]
    text = dumps_model(build_metamodel(ents, rels))
    doc = json.loads(text)
    assert [e["id"] for e in doc["entities"]] == ["a", "z"]
    assert [r["id"] for r in doc["relations"]] == ["r1", "r2"]
    assert doc["schema_version"] == "1.0"
    assert text.endswith("\n")


def test_loads_rejects_bad_documents():
    good = dumps_model(build_metamodel([Entity("a", EntityKind.System, "A")]))
    doc = json.loads(good)

    with pytest.raises(DiagramParseError):
        loads_model("not json at all {")

    wrong_version = dict(doc, schema_version="9.9")
    with pytest.raises(DiagramParseError):
        loads_model(json.dumps(wrong_version))

    unknown_key = dict(doc, surprise=True)
    with pytest.raises(DiagramParseError):
        loads_model(json.dumps(unknown_key))

    bad_kind = json.loads(good)
    bad_kind["entities"][0]["kind"] = "Starship"
    with pytest.raises(DiagramParseError):
        loads_model(json.dumps(bad_kind))


def test_loads_rejects_semantic_breakage():
    base = build_metamodel(
        [Entity("a", EntityKind.System, "A"), Entity("b", EntityKind.Container, "B")],
        [Relation("r", "a", "b", RelationKind.dependency)],
    )
    doc = json.loads(dumps_model(base))
    doc["relations"][0]["target"] = "ghost"
    with pytest.raises(DanglingReferenceError):
        loads_model(json.dumps(doc))


def test_lenient_mode_tolerates_unknown_keys():
    good = dumps_model(build_metamodel([Entity("a", EntityKind.System, "A")]))
    doc = json.loads(good)
    doc["entities"][0]["annotation"] = "kept out of the model"
    model = loads_model(json.dumps(doc), strict=False)
    assert model.entity("a").name == "A"


# ---------------------------------------------------------------- byte parity with the oracle

# quotes, backslashes, control characters, non-ASCII and the line separators
# that ensure_ascii=False leaves raw
_tricky = st.sampled_from('"\\\x00\x07\x1f\x7f\n\t\u2028\u2029é漢😀')
_text = st.text(st.one_of(st.characters(), _tricky), max_size=8)
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e300, 0.1, 2.5e-308]),
    _text,
)
_free = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_text, inner, max_size=3),
    ),
    max_leaves=10,
)
_free_mapping = st.dictionaries(_text, _free, max_size=4)


def _records(strategy, max_size: int):
    return st.lists(strategy, max_size=max_size).map(tuple)


# assembled directly, not through build_metamodel: the writer must match the
# oracle on any field values, duplicate ids and dangling endpoints included
_free_form_models = st.builds(
    Metamodel,
    system=_text,
    entities=_records(st.builds(
        Entity, _text, st.sampled_from(EntityKind), _text,
        layer=st.sampled_from(AbstractionLayer), layer_override=st.booleans(),
        description=_text, attributes=_free_mapping,
    ), 4),
    relations=_records(st.builds(
        Relation, _text, _text, _text, st.sampled_from(RelationKind), label=_text,
    ), 4),
    traces=_records(st.builds(TraceLink, _text, _text, st.sampled_from(MappingClass)), 3),
    constraints=_records(st.builds(
        Constraint, _text, st.sampled_from(ConstraintKind),
        scope=st.dictionaries(st.sampled_from(["layers", "entities"]), _records(_text, 3)),
        params=_free_mapping,
    ), 3),
    diagrams=_records(st.builds(DiagramRef, _text, _text, _text, _text), 2),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dump_matches_oracle_on_random_models(seed):
    model = random_model(random.Random(seed))
    assert dumps_model(model) == oracle_dumps_model(model)


@settings(max_examples=100, deadline=None)
@given(_free_form_models)
def test_dump_matches_oracle_on_free_form_values(model):
    assert dumps_model(model) == oracle_dumps_model(model)


@pytest.mark.parametrize("name", ["original", "process_a", "process_b"])
def test_dump_matches_oracle_on_fixtures(name):
    text = (FIXTURES / "desk" / f"{name}.archmeta.json").read_text("utf-8")
    model = loads_model(text)
    assert dumps_model(model) == oracle_dumps_model(model) == text
