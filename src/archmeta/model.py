"""Core typed graph: layers, entity kinds, relations, and the model container.

Every other module consumes these types. A Metamodel is immutable after
construction; build_metamodel() is the validating constructor and
validate_well_formed() re-checks all structural invariants on any instance,
including ones assembled directly in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    ContainmentCycleError,
    DanglingReferenceError,
    DuplicateIdError,
)


class AbstractionLayer(enum.IntEnum):
    """The twelve ordered abstraction layers. Ordinal = depth from business."""

    Business = 1
    BusinessConceptual = 2
    BusinessSystem = 3
    System = 4
    SystemPattern = 5
    SystemStructural = 6
    SystemRuntime = 7
    Runtime = 8
    Implementation = 9
    ImplementationBehavioral = 10
    Behavioral = 11
    Evolutionary = 12


class EntityKind(enum.Enum):
    """Closed vocabulary of node types."""

    BusinessCapability = "BusinessCapability"
    BusinessProcess = "BusinessProcess"
    Stakeholder = "Stakeholder"
    Role = "Role"
    DomainEntity = "DomainEntity"
    ValueObject = "ValueObject"
    Aggregate = "Aggregate"
    BoundedContext = "BoundedContext"
    System = "System"
    Container = "Container"
    Component = "Component"
    Agent = "Agent"
    ApiInterface = "ApiInterface"
    DataStore = "DataStore"
    DeploymentNode = "DeploymentNode"
    Command = "Command"
    Query = "Query"
    Event = "Event"
    Handler = "Handler"
    Policy = "Policy"
    DependencyRule = "DependencyRule"
    Module = "Module"
    Class = "Class"
    Method = "Method"
    Schema = "Schema"
    Table = "Table"
    Interaction = "Interaction"
    Message = "Message"
    State = "State"
    Transition = "Transition"
    Guard = "Guard"
    Action = "Action"
    LegacySystem = "LegacySystem"
    MigrationStep = "MigrationStep"
    RoutingRule = "RoutingRule"
    ServiceInstance = "ServiceInstance"
    Queue = "Queue"
    Cache = "Cache"
    ScalingGroup = "ScalingGroup"


# Default home layer for every kind. Total: every EntityKind has exactly one.
DEFAULT_LAYER: dict[EntityKind, AbstractionLayer] = {
    EntityKind.BusinessCapability: AbstractionLayer.Business,
    EntityKind.BusinessProcess: AbstractionLayer.Business,
    EntityKind.Stakeholder: AbstractionLayer.Business,
    EntityKind.Role: AbstractionLayer.Business,
    EntityKind.DomainEntity: AbstractionLayer.BusinessConceptual,
    EntityKind.ValueObject: AbstractionLayer.BusinessConceptual,
    EntityKind.Aggregate: AbstractionLayer.BusinessConceptual,
    EntityKind.BoundedContext: AbstractionLayer.BusinessConceptual,
    EntityKind.System: AbstractionLayer.System,
    EntityKind.Container: AbstractionLayer.System,
    EntityKind.Component: AbstractionLayer.System,
    EntityKind.Agent: AbstractionLayer.System,
    EntityKind.ApiInterface: AbstractionLayer.System,
    EntityKind.DataStore: AbstractionLayer.System,
    EntityKind.Command: AbstractionLayer.SystemPattern,
    EntityKind.Query: AbstractionLayer.SystemPattern,
    EntityKind.Event: AbstractionLayer.SystemPattern,
    EntityKind.Handler: AbstractionLayer.SystemPattern,
    EntityKind.Policy: AbstractionLayer.SystemPattern,
    EntityKind.DependencyRule: AbstractionLayer.SystemStructural,
    EntityKind.DeploymentNode: AbstractionLayer.SystemRuntime,
    EntityKind.ServiceInstance: AbstractionLayer.Runtime,
    EntityKind.Queue: AbstractionLayer.Runtime,
    EntityKind.Cache: AbstractionLayer.Runtime,
    EntityKind.ScalingGroup: AbstractionLayer.Runtime,
    EntityKind.Module: AbstractionLayer.Implementation,
    EntityKind.Class: AbstractionLayer.Implementation,
    EntityKind.Method: AbstractionLayer.Implementation,
    EntityKind.Schema: AbstractionLayer.Implementation,
    EntityKind.Table: AbstractionLayer.Implementation,
    EntityKind.Interaction: AbstractionLayer.ImplementationBehavioral,
    EntityKind.Message: AbstractionLayer.ImplementationBehavioral,
    EntityKind.State: AbstractionLayer.Behavioral,
    EntityKind.Transition: AbstractionLayer.Behavioral,
    EntityKind.Guard: AbstractionLayer.Behavioral,
    EntityKind.Action: AbstractionLayer.Behavioral,
    EntityKind.LegacySystem: AbstractionLayer.Evolutionary,
    EntityKind.MigrationStep: AbstractionLayer.Evolutionary,
    EntityKind.RoutingRule: AbstractionLayer.Evolutionary,
}


def layer_of(kind: EntityKind) -> AbstractionLayer:
    """Default abstraction layer for a kind. Total over the enumeration."""
    return DEFAULT_LAYER[kind]


class RelationKind(enum.Enum):
    dependency = "dependency"
    containment = "containment"
    realization = "realization"
    data_flow = "data-flow"
    message_flow = "message-flow"
    state_transition = "state-transition"
    migration_route = "migration-route"
    interface_exposure = "interface-exposure"


class MappingClass(enum.Enum):
    """The four trace mapping classes, serialized as shown."""

    capability_container = "capability-container"
    domain_entity_data_schema = "domain-entity-data-schema"
    component_code_module = "component-code-module"
    process_interaction = "process-interaction"


# (source-side kinds, target-side kinds) per mapping class. Links are
# undirected within a class: a link is kind-valid if one endpoint is drawn
# from each side, in either orientation. Slots are counted on the source side.
MAPPING_CLASS_KINDS: dict[MappingClass, tuple[frozenset[EntityKind], frozenset[EntityKind]]] = {
    MappingClass.capability_container: (
        frozenset({EntityKind.BusinessCapability}),
        frozenset({EntityKind.Container}),
    ),
    MappingClass.domain_entity_data_schema: (
        frozenset({EntityKind.DomainEntity}),
        frozenset({EntityKind.Schema, EntityKind.Table}),
    ),
    MappingClass.component_code_module: (
        frozenset({EntityKind.Component}),
        frozenset({EntityKind.Module, EntityKind.Class}),
    ),
    MappingClass.process_interaction: (
        frozenset({EntityKind.BusinessProcess}),
        frozenset({EntityKind.Interaction}),
    ),
}


class ConstraintKind(enum.Enum):
    dependency_direction = "dependency-direction"
    layer_boundary = "layer-boundary"
    acyclicity = "acyclicity"
    context_isolation = "context-isolation"
    cqrs_separation = "cqrs-separation"
    interface_mediation = "interface-mediation"


@dataclass(frozen=True)
class Entity:
    """A typed node.

    layer defaults to the kind's home layer; setting a different layer without
    layer_override=True is reported by validate_well_formed.
    """

    id: str
    kind: EntityKind
    name: str
    layer: AbstractionLayer | None = None
    layer_override: bool = False
    description: str = ""
    attributes: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.layer is None:
            object.__setattr__(self, "layer", layer_of(self.kind))


@dataclass(frozen=True)
class Relation:
    """A typed directed edge between two entity ids."""

    id: str
    source: str
    target: str
    kind: RelationKind
    label: str = ""


@dataclass(frozen=True)
class TraceLink:
    """An undirected cross-layer mapping between two entity ids.

    validity is computed when a model is built: "valid" when the endpoint
    kinds match the mapping class (either orientation), otherwise
    "invalid:<reason>". Invalid links never fill a coverage slot.
    """

    source: str
    target: str
    mapping_class: MappingClass
    validity: str = "valid"


@dataclass(frozen=True)
class Constraint:
    """A declared architectural rule; evaluation lives in archmeta.constraints.

    scope limits evaluation to entity subsets: {"layers": [...]} and/or
    {"entities": [...]}; empty scope means the whole model.
    """

    id: str
    kind: ConstraintKind
    scope: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class DiagramRef:
    """Pointer to a diagram artifact that contributed to or renders the model."""

    name: str
    type: str
    format: str
    source_digest: str = ""


@dataclass(frozen=True)
class Finding:
    """One well-formedness violation."""

    rule: str
    offending_id: str
    message: str


@dataclass(frozen=True)
class DependencyGraph:
    """Directed graph over entity ids, dependency-kind relations only."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class Metamodel:
    """Immutable container for one system description."""

    system: str = ""
    entities: tuple[Entity, ...] = ()
    relations: tuple[Relation, ...] = ()
    traces: tuple[TraceLink, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    diagrams: tuple[DiagramRef, ...] = ()

    @cached_property
    def entity_index(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    def entity(self, entity_id: str) -> Entity:
        return self.entity_index[entity_id]

    def entities_of_kind(self, *kinds: EntityKind) -> tuple[Entity, ...]:
        wanted = set(kinds)
        return tuple(e for e in self.entities if e.kind in wanted)

    @cached_property
    def containment_parents(self) -> dict[str, tuple[str, ...]]:
        """child id -> parent ids, from containment relations (parent ⊃ child)."""
        parents: dict[str, list[str]] = {}
        for r in self.relations:
            if r.kind is RelationKind.containment:
                parents.setdefault(r.target, []).append(r.source)
        return {k: tuple(sorted(v)) for k, v in parents.items()}

    @cached_property
    def _containment_order(self) -> tuple[str, ...]:
        """Every entity and containment endpoint, parents before children.

        Kahn's algorithm over the containment relations. Raises
        ContainmentCycleError when a cycle leaves nodes unordered, which only
        a directly assembled model can hold (build_metamodel rejects cycles).
        """
        pending = {child: len(parents) for child, parents in self.containment_parents.items()}
        children: dict[str, list[str]] = {}
        for child, parents in self.containment_parents.items():
            for parent in parents:
                children.setdefault(parent, []).append(child)
        nodes = dict.fromkeys([*self.entity_index, *children])
        order = [node for node in nodes if node not in pending]
        for node in order:  # grows while it is walked
            for child in children.get(node, ()):
                pending[child] -= 1
                if not pending[child]:
                    order.append(child)
        stuck = sorted(child for child, count in pending.items() if count)
        if stuck:
            raise ContainmentCycleError("containment cycle through " + ", ".join(stuck))
        return tuple(order)

    @cached_property
    def _ancestor_tables(self) -> dict[EntityKind, dict[str, str | None]]:
        """kind -> its _ancestor_table, filled on the first lookup of that kind."""
        return {}

    def ancestor_of_kind(self, entity_id: str, kind: EntityKind) -> str | None:
        """Nearest ancestor (or self) of the given kind via containment.

        Returns None when there is no such ancestor or when multiple distinct
        ancestors of that kind are reachable (ambiguous membership).

        The first call for a kind makes one O(entities + containment edges)
        pass over the containment graph, parents before children, and caches
        the resulting table on the model; every call after that is an O(1)
        lookup. The containment relations must be acyclic, which
        build_metamodel guarantees; on a directly assembled model with a
        cycle this raises ContainmentCycleError.
        """
        table = self._ancestor_tables.get(kind)
        if table is None:
            table = self._ancestor_tables[kind] = self._ancestor_table(kind)
        return table.get(entity_id)

    def _ancestor_table(self, kind: EntityKind) -> dict[str, str | None]:
        """node -> its unique nearest kind ancestor, or None when ambiguous.

        A node with no such ancestor has no entry. A node of the kind maps to
        itself; any other node joins its parents' entries, so a diamond over
        one ancestor stays unique and two distinct ancestors give None.
        """
        index = self.entity_index
        parents = self.containment_parents
        table: dict[str, str | None] = {}
        for node in self._containment_order:
            ent = index.get(node)
            if ent is not None and ent.kind is kind:
                table[node] = node
                continue
            for parent in parents.get(node, ()):
                if parent not in table:
                    continue
                found = table[parent]
                if node not in table:
                    table[node] = found
                elif table[node] != found:
                    table[node] = None
        return table


def _trace_validity(link: TraceLink, index: Mapping[str, Entity]) -> str:
    side_a, side_b = MAPPING_CLASS_KINDS[link.mapping_class]
    ks = index[link.source].kind
    kt = index[link.target].kind
    if (ks in side_a and kt in side_b) or (ks in side_b and kt in side_a):
        return "valid"
    return (
        f"invalid:endpoint kinds ({ks.value}, {kt.value}) do not match "
        f"{link.mapping_class.value}"
    )


def build_metamodel(
    entities: Iterable[Entity],
    relations: Iterable[Relation] = (),
    traces: Iterable[TraceLink] = (),
    constraints: Iterable[Constraint] = (),
    diagrams: Iterable[DiagramRef] = (),
    system: str = "",
) -> Metamodel:
    """Validating constructor.

    Raises DuplicateIdError, DanglingReferenceError, or ContainmentCycleError;
    recomputes every trace link's validity from the endpoint kinds.
    """
    ents = tuple(entities)
    rels = tuple(relations)
    trcs = tuple(traces)

    index: dict[str, Entity] = {}
    for e in ents:
        if e.id in index:
            raise DuplicateIdError(f"duplicate entity id: {e.id}")
        index[e.id] = e

    rel_ids: set[str] = set()
    for r in rels:
        if r.id in rel_ids:
            raise DuplicateIdError(f"duplicate relation id: {r.id}")
        rel_ids.add(r.id)
        for end, label in ((r.source, "source"), (r.target, "target")):
            if end not in index:
                raise DanglingReferenceError(
                    f"relation {r.id}: {label} {end!r} is not an entity"
                )

    for t in trcs:
        for end in (t.source, t.target):
            if end not in index:
                raise DanglingReferenceError(
                    f"trace {t.source}->{t.target}: endpoint {end!r} is not an entity"
                )

    cycle = _containment_cycle(ents, rels)
    if cycle:
        raise ContainmentCycleError("containment cycle: " + " -> ".join(cycle))

    normalized_traces = tuple(
        TraceLink(t.source, t.target, t.mapping_class, _trace_validity(t, index))
        for t in trcs
    )
    return Metamodel(
        system=system,
        entities=ents,
        relations=rels,
        traces=normalized_traces,
        constraints=tuple(constraints),
        diagrams=tuple(diagrams),
    )


def _containment_cycle(
    entities: tuple[Entity, ...], relations: tuple[Relation, ...]
) -> list[str] | None:
    """First containment cycle as an id path, or None. Iterative DFS."""
    children: dict[str, list[str]] = {}
    for r in relations:
        if r.kind is RelationKind.containment:
            children.setdefault(r.source, []).append(r.target)
    for outs in children.values():
        outs.sort()

    WHITE, GREY, BLACK = 0, 1, 2
    color = {e.id: WHITE for e in entities}
    for root in sorted(children):
        if color.get(root, BLACK) != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        path = [root]
        color[root] = GREY
        while stack:
            node, i = stack[-1]
            outs = children.get(node, [])
            if i < len(outs):
                stack[-1] = (node, i + 1)
                nxt = outs[i]
                if color.get(nxt, BLACK) == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color.get(nxt, BLACK) == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def validate_well_formed(model: Metamodel) -> list[Finding]:
    """Structural invariant check; empty result means the model is well formed.

    Sound and complete for: id uniqueness, endpoint resolution (relations and
    traces), containment cycle freedom, layer-vs-default agreement (unless the
    override flag is set), and trace mapping-class endpoint kinds.
    """
    findings: list[Finding] = []
    seen: dict[str, Entity] = {}
    for e in model.entities:
        if e.id in seen:
            findings.append(Finding("duplicate-id", e.id, f"entity id {e.id!r} repeats"))
        seen[e.id] = e

    rel_seen: set[str] = set()
    for r in model.relations:
        if r.id in rel_seen:
            findings.append(Finding("duplicate-id", r.id, f"relation id {r.id!r} repeats"))
        rel_seen.add(r.id)
        for end, which in ((r.source, "source"), (r.target, "target")):
            if end not in seen:
                findings.append(
                    Finding(
                        "dangling-reference",
                        r.id,
                        f"relation {r.id} {which} {end!r} is not an entity",
                    )
                )

    for t in model.traces:
        missing = [x for x in (t.source, t.target) if x not in seen]
        for end in missing:
            findings.append(
                Finding(
                    "dangling-reference",
                    end,
                    f"trace {t.source}->{t.target} endpoint {end!r} is not an entity",
                )
            )
        if not missing:
            verdict = _trace_validity(t, seen)
            if verdict != "valid":
                findings.append(
                    Finding(
                        "invalid-mapping-class",
                        t.source,
                        f"trace {t.source}->{t.target}: {verdict.removeprefix('invalid:')}",
                    )
                )

    for e in model.entities:
        if e.layer != layer_of(e.kind) and not e.layer_override:
            findings.append(
                Finding(
                    "layer-override-missing",
                    e.id,
                    f"{e.id} has layer {e.layer.name} but kind {e.kind.value} "
                    f"defaults to {layer_of(e.kind).name} and no override flag",
                )
            )

    cycle = _containment_cycle(model.entities, model.relations)
    if cycle:
        findings.append(
            Finding(
                "containment-cycle",
                cycle[0],
                "containment cycle: " + " -> ".join(cycle),
            )
        )
    return findings


def dependency_graph(
    model: Metamodel,
    layer: AbstractionLayer | None = None,
    entity_ids: Iterable[str] | None = None,
) -> DependencyGraph:
    """Directed graph of dependency relations, optionally scope-filtered.

    Nodes are the scoped entities plus the endpoints of surviving edges; an
    edge survives only when both endpoints are in scope.
    """
    if entity_ids is not None:
        scope = {i for i in entity_ids if i in model.entity_index}
        if layer is not None:
            scope = {i for i in scope if model.entity(i).layer == layer}
    elif layer is not None:
        scope = {e.id for e in model.entities if e.layer == layer}
    else:
        scope = {e.id for e in model.entities}

    edges = frozenset(
        (r.source, r.target)
        for r in model.relations
        if r.kind is RelationKind.dependency
        and r.source in scope
        and r.target in scope
    )
    nodes = frozenset(scope) | {n for edge in edges for n in edge}
    return DependencyGraph(nodes=nodes, edges=edges)
