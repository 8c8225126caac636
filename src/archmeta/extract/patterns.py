"""Detect architectural patterns structurally.

Every detector is a pure predicate over the model graph returning evidence
ids when it fires. Detection is intentionally conservative: a pattern is
reported only when its structural signature is complete, so renames or edge
edits that break the signature drop the pattern rather than degrade it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..constraints import DEFAULT_DIRECTION_GROUPS, shared_stores
from ..model import AbstractionLayer, EntityKind, Metamodel, RelationKind

LAYERED_MIN_LAYERS = 2
MICROSERVICES_MIN_CONTAINERS = 2
FACADE_MIN_CLIENTS = 3
FACADE_MIN_DELEGATES = 2

# the layer ordinal, and the coarse group ordinal, business innermost: the
# dependency-direction groups, which list the outermost first
_LAYER_ORDER = {layer: int(layer) for layer in AbstractionLayer}
_GROUP_ORDER = {
    AbstractionLayer[layer]: rank
    for rank, (_name, layers) in enumerate(reversed(DEFAULT_DIRECTION_GROUPS))
    for layer in layers
}


@dataclass(frozen=True)
class PatternHit:
    name: str
    evidence: tuple[str, ...]


def _role(entity) -> str:
    return str(entity.attributes.get("role", "")).lower()


def _dependency_edges(model: Metamodel):
    return model.relations_by_kind[RelationKind.dependency]


def _dependency_and_data_edges(model: Metamodel):
    by_kind = model.relations_by_kind
    return by_kind[RelationKind.dependency] + by_kind[RelationKind.data_flow]


def _downward(model: Metamodel, name: str, rank: Mapping[AbstractionLayer, int]) -> PatternHit | None:
    """Fires when no dependency climbs in `rank` and at least one descends;
    the descending dependencies are the evidence."""
    index = model.entity_index
    cross = []
    for rel in _dependency_edges(model):
        src = rank[index[rel.source].layer]
        tgt = rank[index[rel.target].layer]
        if tgt > src:
            return None
        if tgt < src:
            cross.append(rel.id)
    if not cross:
        return None
    return PatternHit(name, tuple(sorted(cross)))


def _detect_layered(model: Metamodel) -> PatternHit | None:
    if len({int(e.layer) for e in model.entities}) < LAYERED_MIN_LAYERS:
        return None
    return _downward(model, "layered", _LAYER_ORDER)


def _detect_clean_onion(model: Metamodel) -> PatternHit | None:
    return _downward(model, "clean-onion", _GROUP_ORDER)


def _detect_cqrs(model: Metamodel) -> PatternHit | None:
    commands = model.entities_of_kind(EntityKind.Command)
    queries = model.entities_of_kind(EntityKind.Query)
    if not commands or not queries or shared_stores(model, None):
        return None
    evidence = sorted(e.id for group in (commands, queries) for e in group)
    return PatternHit("cqrs", tuple(evidence))


def _detect_event_driven(model: Metamodel) -> PatternHit | None:
    events = {e.id for e in model.entities_of_kind(EntityKind.Event)}
    if not events:
        return None
    produced: set[str] = set()
    consumed: set[str] = set()
    flow_ids: dict[str, list[str]] = {}
    for rel in model.relations_by_kind[RelationKind.message_flow]:
        if rel.target in events:
            produced.add(rel.target)
            flow_ids.setdefault(rel.target, []).append(rel.id)
        if rel.source in events:
            consumed.add(rel.source)
            flow_ids.setdefault(rel.source, []).append(rel.id)
    brokered = sorted(produced & consumed)
    if not brokered:
        return None
    evidence = sorted(set(brokered) | {rid for b in brokered for rid in flow_ids[b]})
    return PatternHit("event-driven", tuple(evidence))


def _detect_microservices(model: Metamodel) -> PatternHit | None:
    containers = model.entities_of_kind(EntityKind.Container)
    if len(containers) < MICROSERVICES_MIN_CONTAINERS:
        return None
    container_of = model.ancestor_table(EntityKind.Container)
    cross = []
    for rel in _dependency_edges(model):
        src_box = container_of.get(rel.source)
        tgt_box = container_of.get(rel.target)
        if src_box and tgt_box and src_box != tgt_box:
            cross.append(rel.id)
    if not cross:
        return None
    return PatternHit("microservices", tuple(sorted(cross)))


def _detect_hexagonal(model: Metamodel) -> PatternHit | None:
    core = {e.id for e in model.entities if _role(e) == "core"}
    adapters = {e.id for e in model.entities if _role(e) == "adapter"}
    if not core or not adapters:
        return None
    for rel in _dependency_edges(model):
        if rel.source in core and rel.target not in core:
            return None
    return PatternHit("hexagonal", tuple(sorted(core | adapters)))


def _detect_mvc(model: Metamodel) -> PatternHit | None:
    buckets = {"model": [], "view": [], "controller": []}
    for entity in model.entities:
        role = _role(entity)
        if role in buckets:
            buckets[role].append(entity.id)
    if not all(buckets.values()):
        return None
    return PatternHit("mvc", tuple(sorted(i for ids in buckets.values() for i in ids)))


def _detect_repository(model: Metamodel) -> PatternHit | None:
    repos = {e.id for e in model.entities if _role(e) == "repository"}
    if not repos:
        return None
    store_kinds = (EntityKind.DataStore, EntityKind.Table)
    backed = set()
    for rel in _dependency_and_data_edges(model):
        if rel.source in repos:
            target = model.entity_index.get(rel.target)
            if target is not None and target.kind in store_kinds:
                backed.add(rel.source)
                backed.add(rel.target)
    if not backed:
        return None
    return PatternHit("repository", tuple(sorted(backed)))


def _detect_facade(model: Metamodel) -> PatternHit | None:
    incoming: dict[str, set[str]] = {}
    outgoing: dict[str, set[str]] = {}
    for rel in _dependency_edges(model):
        incoming.setdefault(rel.target, set()).add(rel.source)
        outgoing.setdefault(rel.source, set()).add(rel.target)
    hits = []
    for entity in model.entities:
        clients = incoming.get(entity.id, set())
        delegates = outgoing.get(entity.id, set()) - clients
        if len(clients) >= FACADE_MIN_CLIENTS and len(delegates) >= FACADE_MIN_DELEGATES:
            hits.append(entity.id)
    if not hits:
        return None
    return PatternHit("facade", tuple(sorted(hits)))


def _detect_strangler(model: Metamodel) -> PatternHit | None:
    legacy = model.entities_of_kind(EntityKind.LegacySystem)
    fresh = model.entities_of_kind(EntityKind.System)
    routing = model.entities_of_kind(EntityKind.RoutingRule)
    if not legacy or not fresh or not routing:
        return None
    evidence = sorted(e.id for group in (legacy, fresh, routing) for e in group)
    return PatternHit("strangler", tuple(evidence))


_DETECTORS: tuple[Callable[[Metamodel], PatternHit | None], ...] = (
    _detect_layered,
    _detect_clean_onion,
    _detect_cqrs,
    _detect_event_driven,
    _detect_microservices,
    _detect_hexagonal,
    _detect_mvc,
    _detect_repository,
    _detect_facade,
    _detect_strangler,
)

PATTERN_NAMES = (
    "clean-onion", "cqrs", "event-driven", "facade", "hexagonal",
    "layered", "microservices", "mvc", "repository", "strangler",
)


def detect_patterns(model: Metamodel) -> tuple[PatternHit, ...]:
    """Every pattern that fires on the model, by name; computed once per
    model and cached on it."""
    return model.derived(_detect_all)


def _detect_all(model: Metamodel) -> tuple[PatternHit, ...]:
    hits = [h for h in (d(model) for d in _DETECTORS) if h is not None]
    hits.sort(key=lambda h: h.name)
    return tuple(hits)


def detected_names(model: Metamodel) -> frozenset[str]:
    return frozenset(h.name for h in detect_patterns(model))
