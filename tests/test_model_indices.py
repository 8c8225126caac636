"""The model's cached indices against the scans they replaced.

Two kinds of evidence: the scope queries in archmeta.constraints agree with
the one-pass scans kept in tests/oracles.py, relation for relation and in
order; and constraint results, pattern hits and drift deltas over 200 seeded
random models hash to digests captured from the scanning implementation.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.constraints import (
    _scoped_ids,
    _scoped_relations,
    evaluate_constraints,
    load_preset_constraints,
)
from archmeta.extract.patterns import detect_patterns
from archmeta.metrics.delta import model_delta
from archmeta.model import AbstractionLayer, Constraint, ConstraintKind, EntityKind, RelationKind
from tests.oracles import oracle_scoped_ids, oracle_scoped_relations
from tests.support.strategies import (
    random_constraint,
    random_containment_dag,
    random_model,
    random_nested_model,
)

LAYER_NAMES = tuple(layer.name for layer in AbstractionLayer)
ABSENT_IDS = ("absent-1", "zz-missing")


def _random_scope(rng: random.Random, ids: list[str]) -> dict[str, tuple[str, ...]]:
    """Empty, layers only, entities only, or both; entity lists may name absent ids."""
    shape = rng.randrange(4)
    scope: dict[str, tuple[str, ...]] = {}
    if shape in (1, 3):
        scope["layers"] = tuple(rng.sample(LAYER_NAMES, rng.randint(1, 3)))
    if shape in (2, 3):
        chosen = rng.sample(ids, rng.randint(0, len(ids)))
        if rng.random() < 0.5:
            chosen.append(rng.choice(ABSENT_IDS))
        scope["entities"] = tuple(chosen)
    return scope


def _rescoped(rng: random.Random, constraint: Constraint, ids: list[str]) -> Constraint:
    return Constraint(constraint.id, constraint.kind, scope=_random_scope(rng, ids),
                      params=constraint.params)


# ---------------------------------------------------------------- pinned results

# sha256 over 200 seeds of repr(evaluate_constraints(m, preset + six randomly
# scoped random constraints + m's own)) and repr(detect_patterns(m)) for the
# seed's random_model draw a and its random_nested_model draw n, and of
# model_delta(a, b) and model_delta(n, a) with their sets sorted, where b is
# the seed's second random_model draw. Captured from the implementation that
# scanned model.relations per query.
PINNED = {
    "constraints": "ff83cb95f8e0591336b77ec793ff7789291c71367c040d20024cb901c8899b14",
    "patterns": "d63f3dc9eb9683313e53545458f7a8d251a761173c6d5e2fdbd3c0ca7b0c2a7c",
    "delta": "ff3985ec06a12ad9e8d2f259fdd101c7206fd05b00655967d78ad469de7f29cc",
}


def _pinned_digests() -> dict[str, str]:
    preset = load_preset_constraints()
    hashes = {name: hashlib.sha256() for name in PINNED}
    for seed in range(200):
        rng = random.Random(seed)
        a = random_model(rng)
        b = random_model(rng)
        n = random_nested_model(rng)
        for m in (a, n):
            ids = [e.id for e in m.entities]
            extra = [_rescoped(rng, random_constraint(rng, f"x-{i}"), ids) for i in range(6)]
            results = evaluate_constraints(m, [*preset, *extra, *m.constraints])
            hashes["constraints"].update(f"{seed}:{results!r}\n".encode("utf-8"))
            hashes["patterns"].update(f"{seed}:{detect_patterns(m)!r}\n".encode("utf-8"))
        for before, after in ((a, b), (n, a)):
            delta = model_delta(before, after)
            key = (
                delta.nodes_added, delta.nodes_removed, delta.edges_added, delta.edges_removed,
                sorted(delta.added_nodes), sorted(delta.removed_nodes),
                sorted(delta.added_edges), sorted(delta.removed_edges),
            )
            hashes["delta"].update(f"{seed}:{key!r}\n".encode("utf-8"))
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_results_match_the_scanning_implementation():
    assert _pinned_digests() == PINNED


# ---------------------------------------------------------------- scope queries

_GENERATORS = (random_model, random_nested_model, random_containment_dag)
_KIND_SETS = (
    *((kind,) for kind in RelationKind),
    (RelationKind.dependency, RelationKind.data_flow),
    (RelationKind.data_flow, RelationKind.dependency),
    (RelationKind.message_flow, RelationKind.containment, RelationKind.dependency),
    tuple(RelationKind),
)


def _acyclicity_kinds(constraint: Constraint) -> set[RelationKind]:
    """The kind set an acyclicity constraint asks for, as its evaluator builds it."""
    names = constraint.params.get("relation_kinds") or ("dependency",)
    return {RelationKind(name) for name in names}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scoped_queries_match_the_scan(seed):
    rng = random.Random(seed)
    model = rng.choice(_GENERATORS)(rng)
    ids = [e.id for e in model.entities]
    kind_sets = list(_KIND_SETS)
    for i in range(4):
        drawn = random_constraint(rng, f"x-{i}")
        if drawn.kind is ConstraintKind.acyclicity:
            kind_sets.append(_acyclicity_kinds(drawn))
        kind_sets.append(set(rng.sample(list(RelationKind), rng.randint(1, 3))))
    for _ in range(4):
        scope = _random_scope(rng, ids)
        in_scope = _scoped_ids(model, scope)
        assert in_scope == oracle_scoped_ids(model, scope), scope
        for kinds in kind_sets:
            got = _scoped_relations(model, in_scope, kinds)
            want = oracle_scoped_relations(model, in_scope, kinds)
            assert [r.id for r in got] == [r.id for r in want], (scope, kinds)
            assert all(a is b for a, b in zip(got, want))


def test_scope_naming_only_absent_ids_is_empty():
    model = random_nested_model(random.Random(3))
    in_scope = _scoped_ids(model, {"entities": ABSENT_IDS})
    assert in_scope == set()
    assert _scoped_relations(model, in_scope, tuple(RelationKind)) == []


# ---------------------------------------------------------------- the indices


def test_indices_partition_the_model():
    for seed in range(60):
        rng = random.Random(seed)
        model = _GENERATORS[seed % len(_GENERATORS)](rng)
        assert set(model.relations_by_kind) == set(RelationKind)
        assert set(model.out_relations) == set(RelationKind)
        assert set(model.entity_ids_by_layer) == set(AbstractionLayer)
        for kind in RelationKind:
            assert model.relations_by_kind[kind] == tuple(
                r for r in model.relations if r.kind is kind
            )
            expected: dict[str, list[int]] = {}
            for pos, r in enumerate(model.relations):
                if r.kind is kind:
                    expected.setdefault(r.source, []).append(pos)
            assert model.out_relations[kind] == {s: tuple(p) for s, p in expected.items()}
        for layer in AbstractionLayer:
            assert model.entity_ids_by_layer[layer] == tuple(
                e.id for e in model.entities if e.layer is layer
            )


def test_indices_are_built_once_per_model():
    model = random_nested_model(random.Random(5))
    assert model.relations_by_kind is model.relations_by_kind
    assert model.out_relations is model.out_relations
    assert model.entity_ids_by_layer is model.entity_ids_by_layer
    for kind in (EntityKind.Container, EntityKind.BoundedContext):
        assert model.ancestor_table(kind) is model.ancestor_table(kind)
