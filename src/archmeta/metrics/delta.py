"""Structural drift between two models, compared as named dependency graphs.

Entities are identified by normalized name rather than id so that two
independently lifted models of the same system line up.  The distance is
the size of the symmetric difference over nodes and edges, which equals
graph edit distance under this identity model (insert/delete cost 1,
relabeling impossible because the label *is* the identity).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..extract.matching import normalize_name
from ..model import Metamodel, RelationKind

DEFAULT_DELTA_RELATIONS = (RelationKind.dependency,)


@dataclass(frozen=True)
class NamedGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class GraphDelta:
    nodes_added: int
    nodes_removed: int
    edges_added: int
    edges_removed: int
    added_nodes: frozenset[str]
    removed_nodes: frozenset[str]
    added_edges: frozenset[tuple[str, str]]
    removed_edges: frozenset[tuple[str, str]]

    @property
    def distance(self) -> int:
        return self.nodes_added + self.nodes_removed + self.edges_added + self.edges_removed

    @property
    def is_identical(self) -> bool:
        return self.distance == 0


def named_dependency_graph(
    model: Metamodel,
    relation_kinds: tuple[RelationKind, ...] = DEFAULT_DELTA_RELATIONS,
) -> NamedGraph:
    """The model's entities by normalized name, and the edges of its relations
    of `relation_kinds` between those names. The graph over the default kinds
    is computed once per model and cached on it."""
    if relation_kinds == DEFAULT_DELTA_RELATIONS:
        return model.derived(_default_graph)
    return _named_graph(model, relation_kinds)


def _default_graph(model: Metamodel) -> NamedGraph:
    return _named_graph(model, DEFAULT_DELTA_RELATIONS)


def _named_graph(model: Metamodel, relation_kinds: tuple[RelationKind, ...]) -> NamedGraph:
    names = {eid: normalize_name(e.name) for eid, e in model.entity_index.items()}
    nodes = frozenset(names.values())
    edges = frozenset(
        (names[r.source], names[r.target])
        for kind in relation_kinds
        for r in model.relations_by_kind[kind]
        if r.source in names and r.target in names
    )
    return NamedGraph(nodes=nodes, edges=edges)


def graph_delta(before: NamedGraph, after: NamedGraph) -> GraphDelta:
    added_nodes = after.nodes - before.nodes
    removed_nodes = before.nodes - after.nodes
    added_edges = after.edges - before.edges
    removed_edges = before.edges - after.edges
    return GraphDelta(
        nodes_added=len(added_nodes),
        nodes_removed=len(removed_nodes),
        edges_added=len(added_edges),
        edges_removed=len(removed_edges),
        added_nodes=frozenset(added_nodes),
        removed_nodes=frozenset(removed_nodes),
        added_edges=frozenset(added_edges),
        removed_edges=frozenset(removed_edges),
    )


def model_delta(before: Metamodel, after: Metamodel) -> GraphDelta:
    return graph_delta(named_dependency_graph(before), named_dependency_graph(after))
