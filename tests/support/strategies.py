"""Seeded random generators for models and graphs used across the suite.

Plain `random.Random` drives everything, so the same helpers serve both the
hypothesis-style property tests (seed drawn as the example) and the counted
acceptance loops (seeds 0..N).
"""

from __future__ import annotations

import random
import string

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

_WORDS = (
    "order", "billing", "ledger", "gateway", "cache", "worker", "router",
    "audit", "portal", "search", "batch", "stream", "vault", "relay",
)

_NONCONTAINMENT = tuple(k for k in RelationKind if k is not RelationKind.containment)


def _name(rng: random.Random) -> str:
    parts = rng.sample(_WORDS, rng.randint(1, 3))
    suffix = "".join(rng.choices(string.ascii_lowercase + string.digits, k=3))
    return " ".join(parts) + " " + suffix


def random_constraint(rng: random.Random, cid: str) -> Constraint:
    kind = rng.choice(list(ConstraintKind))
    layers = [layer.name for layer in AbstractionLayer]
    scope = {}
    if rng.random() < 0.4:
        scope["layers"] = tuple(rng.sample(layers, rng.randint(1, 3)))
    params: dict[str, object] = {}
    if kind is ConstraintKind.layer_boundary:
        params["allowed_targets"] = tuple(rng.sample(layers, rng.randint(1, 4)))
    elif kind is ConstraintKind.acyclicity and rng.random() < 0.5:
        params["relation_kinds"] = tuple(
            sorted({rng.choice(list(RelationKind)).value for _ in range(rng.randint(1, 2))})
        )
    elif kind is ConstraintKind.dependency_direction and rng.random() < 0.3:
        split = rng.randint(1, len(layers) - 1)
        params["groups"] = (
            {"name": "outer", "layers": tuple(layers[split:])},
            {"name": "inner", "layers": tuple(layers[:split])},
        )
    elif kind is ConstraintKind.context_isolation and rng.random() < 0.3:
        params["allowed_pairs"] = (("e00", "e01"),)
    return Constraint(cid, kind, scope=scope, params=params)


def random_model(rng: random.Random, max_entities: int = 50) -> Metamodel:
    n = rng.randint(1, max_entities)
    entities = []
    for i in range(n):
        kind = rng.choice(list(EntityKind))
        desc = _name(rng) if rng.random() < 0.3 else ""
        attrs: dict[str, object] = {}
        if rng.random() < 0.15:
            attrs["role"] = rng.choice(["core", "adapter", "repository", "model", "view", "controller"])
        entities.append(
            Entity(f"e{i:02d}", kind, _name(rng), description=desc, attributes=attrs)
        )

    relations = []
    serial = 0
    for i in range(1, n):
        if rng.random() < 0.4:
            parent = rng.randrange(i)
            serial += 1
            relations.append(
                Relation(f"c{serial:03d}", f"e{parent:02d}", f"e{i:02d}", RelationKind.containment)
            )
    for _ in range(rng.randint(0, min(2 * n, 40))):
        serial += 1
        relations.append(
            Relation(
                f"r{serial:03d}",
                f"e{rng.randrange(n):02d}",
                f"e{rng.randrange(n):02d}",
                rng.choice(_NONCONTAINMENT),
                label=_name(rng) if rng.random() < 0.2 else "",
            )
        )

    traces = [
        TraceLink(
            f"e{rng.randrange(n):02d}",
            f"e{rng.randrange(n):02d}",
            rng.choice(list(MappingClass)),
        )
        for _ in range(rng.randint(0, min(n, 10)))
    ]
    constraints = [random_constraint(rng, f"k-{i:02d}") for i in range(rng.randint(0, 5))]
    diagrams = [
        DiagramRef(
            name=f"view-{i}",
            type=rng.choice(["SystemContainer", "DomainModel", "BusinessContext"]),
            format=rng.choice(["plantuml", "mermaid"]),
            source_digest="%064x" % rng.getrandbits(256),
        )
        for i in range(rng.randint(0, 3))
    ]
    return build_metamodel(
        entities=entities,
        relations=relations,
        traces=traces,
        constraints=constraints,
        diagrams=diagrams,
        system=_name(rng),
    )


_NESTING_KINDS = (EntityKind.BoundedContext, EntityKind.Container, EntityKind.Component)


def random_containment_dag(rng: random.Random, max_nodes: int = 30) -> Metamodel:
    """A directly assembled model whose containment is a multi-parent DAG.

    Node i takes up to three parents among nodes 0..i-1, so diamonds and
    children under two distinct containers of one kind both occur; kinds come
    mostly from three nesting kinds so that matches are frequent. About one
    node in ten is left out of the entities, so some containment endpoints
    dangle, which only a model assembled without build_metamodel can hold.
    """
    n = rng.randint(1, max_nodes)
    ids = [f"n{i:02d}" for i in range(n)]
    relations = []
    for i in range(1, n):
        for parent in rng.sample(range(i), rng.randint(0, min(i, 3))):
            relations.append(
                Relation(f"c{len(relations):03d}", ids[parent], ids[i], RelationKind.containment)
            )
    entities = []
    for node_id in ids:
        if rng.random() < 0.1:
            continue
        if rng.random() < 0.8:
            kind = rng.choice(_NESTING_KINDS)
        else:
            kind = rng.choice(list(EntityKind))
        entities.append(Entity(node_id, kind, _name(rng)))
    return Metamodel(system=_name(rng), entities=tuple(entities), relations=tuple(relations))


_ARCHITECTURE_KINDS = (
    EntityKind.BoundedContext, EntityKind.Container, EntityKind.Component,
    EntityKind.ApiInterface, EntityKind.Command, EntityKind.Query, EntityKind.DataStore,
    EntityKind.Event, EntityKind.Module,
)
_FLOW_KINDS = (RelationKind.dependency, RelationKind.data_flow, RelationKind.message_flow)


def random_nested_model(rng: random.Random, max_entities: int = 40) -> Metamodel:
    """A built model dense in what the structural rules look at.

    Kinds come from contexts, containers, components, interfaces, commands,
    queries, stores, events and modules; node i takes up to two containment
    parents among nodes 0..i-1 (so shared and ambiguous membership occur),
    and flows are mostly dependencies. About one entity in six carries a role.
    """
    n = rng.randint(1, max_entities)
    entities = []
    for i in range(n):
        attrs: dict[str, object] = {}
        if rng.random() < 0.17:
            attrs["role"] = rng.choice(["core", "adapter", "repository", "model", "view", "controller"])
        entities.append(Entity(f"e{i:02d}", rng.choice(_ARCHITECTURE_KINDS), _name(rng),
                               attributes=attrs))
    relations = []
    for i in range(1, n):
        for parent in rng.sample(range(i), min(i, rng.choice((0, 1, 1, 1, 2)))):
            relations.append(Relation(f"c{len(relations):03d}", f"e{parent:02d}", f"e{i:02d}",
                                      RelationKind.containment))
    for _ in range(rng.randint(0, 3 * n)):
        kind = rng.choice(_FLOW_KINDS) if rng.random() < 0.4 else RelationKind.dependency
        relations.append(Relation(f"r{len(relations):03d}", f"e{rng.randrange(n):02d}",
                                  f"e{rng.randrange(n):02d}", kind))
    rng.shuffle(relations)
    return build_metamodel(entities=entities, relations=relations, system=_name(rng))


def random_named_graph(rng: random.Random, max_nodes: int = 5) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """A small directed graph over single-letter names, edges without repeats."""
    count = rng.randint(0, max_nodes)
    nodes = frozenset(string.ascii_lowercase[i] for i in range(count))
    pool = [(a, b) for a in nodes for b in nodes]
    edges = frozenset(rng.sample(pool, rng.randint(0, len(pool))) if pool else [])
    return nodes, edges
