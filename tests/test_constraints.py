"""Constraint evaluation: all six kinds, scoping, params, and the catalog."""

from __future__ import annotations

import json
import re

import pytest

from archmeta.constraints import (
    DEFAULT_DIRECTION_GROUPS,
    consistency_score,
    constraints_from_json,
    evaluate_constraint,
    evaluate_constraints,
    load_preset_constraints,
    validate_constraint_params,
    violation_counts,
)
from archmeta.errors import (
    InvalidConstraintParamsError,
    NoConstraintsDefinedError,
)
from archmeta.model import (
    Constraint,
    ConstraintKind,
    Entity,
    EntityKind,
    Relation,
    RelationKind,
    build_metamodel,
)
from tests import oracles
from tests.support import mutations


def _by_id(results):
    return {r.constraint_id: r for r in results}


# ------------------------------------------------- the 6x2 verdict matrix


def test_base_model_satisfies_every_kind():
    results = evaluate_constraints(mutations.build())
    assert len(results) == 6
    assert {r.kind for r in results} == set(ConstraintKind)
    for r in results:
        assert r.status == "satisfied", r
        assert r.instances == ()
    assert consistency_score(results) == 1.0


@pytest.mark.parametrize("name", sorted(mutations.MUTATIONS))
def test_each_mutation_breaks_exactly_its_own_constraint(name):
    broken_id = mutations.MUTATIONS[name][0]
    results = _by_id(evaluate_constraints(mutations.build([name])))
    assert results[broken_id].status == "violated"
    assert results[broken_id].instances == mutations.EXPECTED_INSTANCES[broken_id]
    for cid, r in results.items():
        if cid != broken_id:
            assert r.status == "satisfied", (name, cid, r.instances)


def test_consistency_tracks_hand_counts():
    all_names = sorted(mutations.MUTATIONS)
    for applied in (all_names[:0], all_names[:1], all_names[:3], all_names):
        results = evaluate_constraints(mutations.build(applied))
        violated, total = violation_counts(results)
        assert (violated, total) == (len(applied), 6)
        assert consistency_score(results) == oracles.oracle_consistency(violated, total)
    assert consistency_score(evaluate_constraints(mutations.build(all_names[:3]))) == 0.5
    assert consistency_score(evaluate_constraints(mutations.build(all_names))) == 0.0


# ------------------------------------------------- per-kind semantics


def _tiny(entities, relations):
    return build_metamodel(
        system="t",
        entities=[Entity(id=i, kind=k, name=i) for i, k in entities],
        relations=[
            Relation(id=f"r{n}", source=s, target=t, kind=k)
            for n, (s, t, k) in enumerate(relations)
        ],
    )


def test_direction_uses_declared_groups_over_defaults():
    model = _tiny(
        [("a", EntityKind.Component), ("b", EntityKind.Container)],
        [("a", "b", RelationKind.dependency)],
    )
    flipped = Constraint(
        id="g",
        kind=ConstraintKind.dependency_direction,
        params={
            "groups": [
                {"name": "apps", "layers": ["System"]},
                {"name": "code", "layers": ["Implementation"]},
            ]
        },
    )
    # both endpoints share one group: never a violation
    assert evaluate_constraint(model, flipped).status == "satisfied"
    assert [name for name, _ in DEFAULT_DIRECTION_GROUPS] == [
        "Implementation",
        "System",
        "Business",
    ]


def test_direction_ignores_layers_outside_all_groups():
    model = _tiny(
        [("a", EntityKind.Component), ("b", EntityKind.Class)],
        [("a", "b", RelationKind.dependency)],
    )
    only_code = Constraint(
        id="g",
        kind=ConstraintKind.dependency_direction,
        params={
            "groups": [
                {"name": "code", "layers": ["Implementation"]},
                {"name": "apps", "layers": ["System"]},
            ]
        },
    )
    # a->b is apps->code, outward for this ordering
    assert evaluate_constraint(model, only_code).status == "violated"
    # but with the source layer unlisted the edge is invisible
    partial = Constraint(
        id="g2",
        kind=ConstraintKind.dependency_direction,
        params={
            "groups": [
                {"name": "code", "layers": ["Implementation"]},
                {"name": "biz", "layers": ["Business"]},
            ]
        },
    )
    assert evaluate_constraint(model, partial).status == "satisfied"


def test_scope_restricts_which_edges_count():
    model = _tiny(
        [("a", EntityKind.BusinessCapability), ("b", EntityKind.Container)],
        [("a", "b", RelationKind.dependency)],
    )
    unscoped = Constraint(id="d", kind=ConstraintKind.dependency_direction)
    assert evaluate_constraint(model, unscoped).status == "violated"
    scoped = Constraint(
        id="d",
        kind=ConstraintKind.dependency_direction,
        scope={"entities": ("a",)},  # target falls outside the scope
    )
    assert evaluate_constraint(model, scoped).status == "satisfied"
    by_layer = Constraint(
        id="d",
        kind=ConstraintKind.dependency_direction,
        scope={"layers": ("Business", "System")},
    )
    assert evaluate_constraint(model, by_layer).status == "violated"


def test_layer_boundary_filters_on_source_only():
    model = _tiny(
        [
            ("cls", EntityKind.Class),
            ("cap", EntityKind.BusinessCapability),
            ("box", EntityKind.Container),
        ],
        [
            ("cls", "cap", RelationKind.dependency),
            ("box", "cap", RelationKind.dependency),  # source outside scope
            ("cls", "cap", RelationKind.data_flow),  # not a dependency
        ],
    )
    constraint = Constraint(
        id="b",
        kind=ConstraintKind.layer_boundary,
        scope={"layers": ("Implementation",)},
        params={"allowed_targets": ["Implementation", "System"]},
    )
    result = evaluate_constraint(model, constraint)
    assert result.instances == ("r0",)


def test_acyclicity_flags_self_loops_and_whole_components():
    model = _tiny(
        [("a", EntityKind.Component), ("b", EntityKind.Component), ("c", EntityKind.Component)],
        [
            ("a", "b", RelationKind.dependency),
            ("b", "a", RelationKind.dependency),
            ("c", "c", RelationKind.dependency),
        ],
    )
    result = evaluate_constraint(model, Constraint(id="acy", kind=ConstraintKind.acyclicity))
    assert result.instances == ("a", "b", "c")


def test_acyclicity_honors_relation_kinds_param():
    model = _tiny(
        [("a", EntityKind.Component), ("b", EntityKind.Component)],
        [
            ("a", "b", RelationKind.message_flow),
            ("b", "a", RelationKind.message_flow),
        ],
    )
    deps_only = Constraint(id="acy", kind=ConstraintKind.acyclicity)
    assert evaluate_constraint(model, deps_only).status == "satisfied"
    messaging = Constraint(
        id="acy2",
        kind=ConstraintKind.acyclicity,
        params={"relation_kinds": ["message-flow"]},
    )
    assert evaluate_constraint(model, messaging).instances == ("a", "b")


def test_context_isolation_allowed_pairs_escape():
    model = mutations.build(["context-bypass"])
    strict = Constraint(id="ctx", kind=ConstraintKind.context_isolation)
    assert evaluate_constraint(model, strict).instances == ("bad-context",)
    relaxed = Constraint(
        id="ctx",
        kind=ConstraintKind.context_isolation,
        params={"allowed_pairs": [["bc-a", "bc-b"]]},
    )
    assert evaluate_constraint(model, relaxed).status == "satisfied"
    wrong_way = Constraint(
        id="ctx",
        kind=ConstraintKind.context_isolation,
        params={"allowed_pairs": [["bc-b", "bc-a"]]},  # pairs are directed
    )
    assert evaluate_constraint(model, wrong_way).status == "violated"
    # a null param is an absent one, as for every optional param
    unset = Constraint(id="ctx", kind=ConstraintKind.context_isolation,
                       params={"allowed_pairs": None})
    assert evaluate_constraint(model, unset).instances == ("bad-context",)


def test_cqrs_reports_each_shared_store_once():
    model = _tiny(
        [
            ("cmd", EntityKind.Command),
            ("qry", EntityKind.Query),
            ("qry2", EntityKind.Query),
            ("ds", EntityKind.DataStore),
        ],
        [
            ("cmd", "ds", RelationKind.dependency),
            ("qry", "ds", RelationKind.data_flow),
            ("qry2", "ds", RelationKind.dependency),
        ],
    )
    result = evaluate_constraint(model, Constraint(id="q", kind=ConstraintKind.cqrs_separation))
    assert result.instances == ("ds",)


def test_mediation_skips_intra_container_and_containerless_edges():
    model = mutations.build()
    constraint = Constraint(id="m", kind=ConstraintKind.interface_mediation)
    assert evaluate_constraint(model, constraint).status == "satisfied"
    # ok-via-api crosses containers but lands on an interface: satisfied,
    # while the same shape onto a component violates
    broken = mutations.build(["container-bypass"])
    assert evaluate_constraint(broken, constraint).instances == ("bad-direct",)


# ------------------------------------------------- parameter validation


@pytest.mark.parametrize(
    "constraint",
    [
        Constraint(id="x", kind=ConstraintKind.acyclicity, scope={"teams": ("a",)}),
        Constraint(id="x", kind=ConstraintKind.acyclicity, scope={"layers": ("Attic",)}),
        Constraint(id="x", kind=ConstraintKind.acyclicity, scope={"layers": ()}),
        Constraint(id="x", kind=ConstraintKind.layer_boundary),
        Constraint(id="x", kind=ConstraintKind.layer_boundary, params={"allowed_targets": []}),
        Constraint(id="x", kind=ConstraintKind.acyclicity, params={"relation_kinds": ["friendship"]}),
        Constraint(id="x", kind=ConstraintKind.acyclicity, params={"relation_kinds": []}),
        Constraint(id="x", kind=ConstraintKind.dependency_direction, params={"groups": [{"name": "a", "layers": ["System"]}]}),
        Constraint(id="x", kind=ConstraintKind.dependency_direction, params={"groups": [{"layers": ["System"]}, {"name": "b", "layers": ["Business"]}]}),
        Constraint(
            id="x",
            kind=ConstraintKind.dependency_direction,
            params={"groups": [
                {"name": "a", "layers": ["System"]},
                {"name": "b", "layers": ["System"]},
            ]},
        ),
        Constraint(id="x", kind=ConstraintKind.context_isolation, params={"allowed_pairs": "bc-a"}),
        Constraint(id="x", kind=ConstraintKind.context_isolation, params={"allowed_pairs": [["bc-a"]]}),
        Constraint(id="x", kind=ConstraintKind.cqrs_separation, params={"stores": ["ds"]}),
        Constraint(id="x", kind=ConstraintKind.interface_mediation, params={"ports": 2}),
    ],
    ids=[
        "unknown-scope-key",
        "unknown-scope-layer",
        "empty-scope-layers",
        "boundary-missing-targets",
        "boundary-empty-targets",
        "unknown-relation-kind",
        "empty-relation-kinds",
        "single-group",
        "group-missing-name",
        "overlapping-groups",
        "pairs-not-a-list",
        "pair-wrong-arity",
        "cqrs-extra-param",
        "mediation-extra-param",
    ],
)
def test_invalid_params_are_rejected(constraint):
    with pytest.raises(InvalidConstraintParamsError):
        validate_constraint_params(constraint)


def test_valid_params_pass_for_every_kind():
    for constraint in mutations.CONSTRAINTS:
        validate_constraint_params(constraint)


# ------------------------------------------------- catalogs


def test_constraints_from_json_roundtrip():
    text = json.dumps(
        {
            "constraints": [
                {
                    "id": "walls",
                    "kind": "context-isolation",
                    "scope": {"layers": ["System"]},
                    "params": {"allowed_pairs": [["bc-a", "bc-b"]]},
                },
                {"id": "acyclic", "kind": "acyclicity"},
            ]
        }
    )
    loaded = constraints_from_json(text)
    assert [c.id for c in loaded] == ["walls", "acyclic"]
    assert loaded[0].kind is ConstraintKind.context_isolation
    assert loaded[0].scope == {"layers": ("System",)}


def test_constraints_from_json_rejects_bad_documents():
    with pytest.raises(NoConstraintsDefinedError):
        constraints_from_json('{"constraints": []}')
    with pytest.raises(InvalidConstraintParamsError):
        constraints_from_json('{"constraints": [{"id": "x", "kind": "tidiness"}]}')
    with pytest.raises(InvalidConstraintParamsError):
        constraints_from_json(
            '{"constraints": [{"id": "x", "kind": "layer-boundary", "params": {}}]}'
        )


@pytest.mark.parametrize(
    "document, named",
    [
        ('{"nope": []}', "(catalog)"),
        ("not json", "(catalog)"),
        ('{"constraints": [{"id": "x", "kind": "bogus"}]}', "'x'"),
        ('{"constraints": [{"id": "ok", "kind": "acyclicity"}, {"kind": "acyclicity"}]}', "'#1'"),
        ('{"constraints": ["acyclicity"]}', "'#0'"),
        *((f'{{"constraints": [{{"id": "s", "kind": "acyclicity", "scope": {scope}}}]}}', "'s'")
          for scope in ("[]", '""', "0", "false")),  # only null reads as an empty scope
        ('{"constraints": [{"id": "e", "kind": "acyclicity", "scope": {"entities": []}}]}', "'e'"),
        ('{"constraints": [{"id": "p", "kind": "acyclicity", "params": [1]}]}', "'p'"),
        ('{"constraints": [{"id": "r", "kind": "acyclicity", "params": {"relation_kinds": [[1]]}}]}', "'r'"),
    ],
)
def test_constraints_from_json_names_the_malformed_entry(document, named):
    with pytest.raises(InvalidConstraintParamsError, match=re.escape(named)):
        constraints_from_json(document)


def test_preset_catalog_loads_and_validates():
    preset = load_preset_constraints()
    assert len(preset) == 16
    ids = [c.id for c in preset]
    assert len(set(ids)) == 16
    assert "inward-dependencies" in ids
    assert "containers-via-api" in ids
    assert "contexts-via-api" in ids
    assert "cqrs-store-split" in ids
    assert sum(1 for c in preset if c.kind is ConstraintKind.acyclicity) == 12
    for c in preset:
        validate_constraint_params(c)


def test_consistency_requires_at_least_one_result():
    with pytest.raises(NoConstraintsDefinedError):
        consistency_score([])


def test_results_sorted_by_constraint_id():
    results = evaluate_constraints(mutations.build())
    ids = [r.constraint_id for r in results]
    assert ids == sorted(ids)
