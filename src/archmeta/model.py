"""Core typed graph: layers, entity kinds, relations, and the model container.

Every other module consumes these types. A Metamodel is immutable after
construction. One structural walk defines "well formed": validate_well_formed()
lists everything it finds on any instance, including ones assembled directly
in tests, and build_metamodel(), the validating constructor, raises the first
finding that no model may hold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, TypeVar

from .errors import (
    ArchmetaError,
    ContainmentCycleError,
    DanglingReferenceError,
    DuplicateIdError,
)

_T = TypeVar("_T")


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Relation:
    """A typed directed edge between two entity ids."""

    id: str
    source: str
    target: str
    kind: RelationKind
    label: str = ""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Constraint:
    """A declared architectural rule; evaluation lives in archmeta.constraints.

    scope limits evaluation to entity subsets: {"layers": [...]} and/or
    {"entities": [...]}; empty scope means the whole model.
    """

    id: str
    kind: ConstraintKind
    scope: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class DiagramRef:
    """Pointer to a diagram artifact that contributed to or renders the model."""

    name: str
    type: str
    format: str
    source_digest: str = ""


@dataclass(frozen=True, slots=True)
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

    # The indices below are built on first use and cached on the frozen model,
    # like entity_index. Callers read them and must not mutate them.

    @cached_property
    def entity_ids_by_layer(self) -> dict[AbstractionLayer, tuple[str, ...]]:
        """layer -> ids of the entities on it, in model order; every layer has an entry."""
        by_layer: dict[AbstractionLayer, list[str]] = {layer: [] for layer in AbstractionLayer}
        for e in self.entities:
            by_layer[e.layer].append(e.id)
        return {layer: tuple(ids) for layer, ids in by_layer.items()}

    @cached_property
    def relations_by_kind(self) -> dict[RelationKind, tuple[Relation, ...]]:
        """kind -> its relations, in model order; every kind has an entry."""
        by_kind: dict[RelationKind, list[Relation]] = {kind: [] for kind in RelationKind}
        for r in self.relations:
            by_kind[r.kind].append(r)
        return {kind: tuple(rels) for kind, rels in by_kind.items()}

    @cached_property
    def out_relations(self) -> dict[RelationKind, dict[str, tuple[int, ...]]]:
        """kind -> source id -> positions in `relations` of that source's
        relations of the kind, ascending; sources without any have no entry."""
        by_kind: dict[RelationKind, dict[str, list[int]]] = {kind: {} for kind in RelationKind}
        for pos, r in enumerate(self.relations):
            by_kind[r.kind].setdefault(r.source, []).append(pos)
        return {
            kind: {source: tuple(found) for source, found in out.items()}
            for kind, out in by_kind.items()
        }

    @cached_property
    def containment_parents(self) -> dict[str, tuple[str, ...]]:
        """child id -> parent ids, from containment relations (parent ⊃ child)."""
        parents: dict[str, list[str]] = {}
        for r in self.relations_by_kind[RelationKind.containment]:
            parents.setdefault(r.target, []).append(r.source)
        return {k: tuple(sorted(v)) for k, v in parents.items()}

    @cached_property
    def _containment_order(self) -> tuple[str, ...]:
        """Every entity and containment endpoint, parents before children.

        Raises ContainmentCycleError on a cycle, which only a directly
        assembled model can hold: build_metamodel rejects cycles and seeds
        this order on the models it returns.
        """
        cycle, order = _containment_walk(
            self.entity_index, self.relations_by_kind[RelationKind.containment]
        )
        if cycle is not None:
            raise ContainmentCycleError(cycle.message)
        return order

    @cached_property
    def _ancestor_tables(self) -> dict[EntityKind, dict[str, str | None]]:
        """kind -> its ancestor_table, filled on the first lookup of that kind."""
        return {}

    @cached_property
    def _derived(self) -> dict[Callable[[Metamodel], Any], Any]:
        """compute -> compute(self), filled by derived()."""
        return {}

    def derived(self, compute: Callable[[Metamodel], _T]) -> _T:
        """compute(self), computed on the first call with `compute` and cached
        on the model, so the value lives and dies with it.

        For layers above the model to keep what they derive from it, such as
        drift graphs and pattern hits, without this module importing them.
        `compute` must depend on nothing but the model and return a value
        callers cannot change; every later call returns that same object.
        """
        memo = self._derived
        if compute not in memo:
            memo[compute] = compute(self)
        return memo[compute]

    def ancestor_of_kind(self, entity_id: str, kind: EntityKind) -> str | None:
        """Nearest ancestor (or self) of the given kind via containment.

        Returns None when there is no such ancestor or when multiple distinct
        ancestors of that kind are reachable (ambiguous membership). One
        lookup in ancestor_table(kind); callers asking for many ids fetch the
        table once instead.
        """
        return self.ancestor_table(kind).get(entity_id)

    def ancestor_table(self, kind: EntityKind) -> dict[str, str | None]:
        """node id -> its nearest ancestor (or self) of the kind, None when ambiguous.

        A node with no such ancestor has no entry. A node of the kind maps to
        itself; any other node joins its parents' entries, so a diamond over
        one ancestor stays unique and two distinct ancestors give None.

        The first call for a kind makes one O(entities + containment edges)
        pass over the containment graph, parents before children, and caches
        the table on the model. The containment relations must be acyclic,
        which build_metamodel guarantees; on a directly assembled model with a
        cycle this raises ContainmentCycleError.
        """
        table = self._ancestor_tables.get(kind)
        if table is not None:
            return table
        index = self.entity_index
        parents = self.containment_parents
        table = {}
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
        self._ancestor_tables[kind] = table
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


def _containment_walk(
    entity_ids: Iterable[str], containment: Iterable[Relation]
) -> tuple[Finding | None, tuple[str, ...]]:
    """One iterative depth-first pass over containment (parent ⊃ child).

    Roots and each node's children are visited in sorted order. Returns the
    first cycle met as a containment-cycle finding with an empty order, or
    None and every entity and containment endpoint with parents before
    children: entities outside containment, then the reverse postorder.
    """
    children: dict[str, list[str]] = {}
    for r in containment:
        children.setdefault(r.source, []).append(r.target)
    for outs in children.values():
        outs.sort()

    ON_PATH, DONE = 1, 2
    state: dict[str, int] = {}
    postorder: list[str] = []
    for root in sorted(children):
        if root in state:
            continue
        state[root] = ON_PATH
        path = [root]
        stack = [iter(children[root])]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                node = path.pop()
                state[node] = DONE
                postorder.append(node)
            elif child not in state:
                state[child] = ON_PATH
                path.append(child)
                stack.append(iter(children.get(child, ())))
            elif state[child] == ON_PATH:
                cycle = " -> ".join([*path[path.index(child):], child])
                return Finding("containment-cycle", child, "containment cycle: " + cycle), ()
    outside = [node for node in entity_ids if node not in state]
    return None, (*outside, *reversed(postorder))


def _walk(
    entities: tuple[Entity, ...],
    relations: tuple[Relation, ...],
    traces: tuple[TraceLink, ...],
) -> tuple[list[Finding], dict[str, Entity], list[str | None], tuple[str, ...]]:
    """Check every structural rule in one pass over the records.

    Returns (findings, index, validities, order):
    - findings in rule order: duplicate ids, relation endpoints, trace
      endpoints and mapping classes, layer overrides, then the first
      containment cycle;
    - index maps each id to its entity (the last one when an id repeats);
    - validities holds, per trace, the validity computed from its endpoint
      kinds, or None when an endpoint is not an entity;
    - order is the containment order, empty when there is a cycle.
    """
    findings: list[Finding] = []
    index: dict[str, Entity] = {}
    for e in entities:
        if e.id in index:
            findings.append(Finding("duplicate-id", e.id, f"duplicate entity id: {e.id}"))
        index[e.id] = e

    rel_ids: set[str] = set()
    containment: list[Relation] = []
    for r in relations:
        if r.id in rel_ids:
            findings.append(Finding("duplicate-id", r.id, f"duplicate relation id: {r.id}"))
        rel_ids.add(r.id)
        for end, which in ((r.source, "source"), (r.target, "target")):
            if end not in index:
                findings.append(Finding(
                    "dangling-reference", r.id, f"relation {r.id}: {which} {end!r} is not an entity"
                ))
        if r.kind is RelationKind.containment:
            containment.append(r)

    validities: list[str | None] = []
    for t in traces:
        missing = [end for end in (t.source, t.target) if end not in index]
        for end in missing:
            findings.append(Finding(
                "dangling-reference", end,
                f"trace {t.source}->{t.target}: endpoint {end!r} is not an entity",
            ))
        if missing:
            validities.append(None)
            continue
        validity = _trace_validity(t, index)
        validities.append(validity)
        if validity != "valid":
            findings.append(Finding(
                "invalid-mapping-class", t.source,
                f"trace {t.source}->{t.target}: {validity.removeprefix('invalid:')}",
            ))

    for e in entities:
        home = DEFAULT_LAYER[e.kind]
        if e.layer != home and not e.layer_override:
            findings.append(Finding(
                "layer-override-missing", e.id,
                f"{e.id} has layer {e.layer.name} but kind {e.kind.value} "
                f"defaults to {home.name} and no override flag",
            ))

    cycle, order = _containment_walk(index, containment)
    if cycle is not None:
        findings.append(cycle)
    return findings, index, validities, order


# The rules no built model may break, and the error build_metamodel raises.
_FATAL: dict[str, type[ArchmetaError]] = {
    "duplicate-id": DuplicateIdError,
    "dangling-reference": DanglingReferenceError,
    "containment-cycle": ContainmentCycleError,
}


def build_metamodel(
    entities: Iterable[Entity],
    relations: Iterable[Relation] = (),
    traces: Iterable[TraceLink] = (),
    constraints: Iterable[Constraint] = (),
    diagrams: Iterable[DiagramRef] = (),
    system: str = "",
) -> Metamodel:
    """Validating constructor.

    Raises the first duplicate-id, dangling-reference or containment-cycle
    finding of validate_well_formed's walk as DuplicateIdError,
    DanglingReferenceError or ContainmentCycleError, with the same message;
    recomputes every trace link's validity from the endpoint kinds.
    """
    ents = tuple(entities)
    rels = tuple(relations)
    trs = tuple(traces)
    findings, index, validities, order = _walk(ents, rels, trs)
    for finding in findings:
        error = _FATAL.get(finding.rule)
        if error is not None:
            raise error(finding.message)
    model = Metamodel(
        system=system,
        entities=ents,
        relations=rels,
        # every trace endpoint resolved (a dangling one raised above), so each has a validity
        traces=tuple(
            TraceLink(t.source, t.target, t.mapping_class, v) for t, v in zip(trs, validities)
        ),
        constraints=tuple(constraints),
        diagrams=tuple(diagrams),
    )
    # what the two cached properties would compute, so no later walk repeats it
    vars(model).update(entity_index=index, _containment_order=order)
    return model


def validate_well_formed(model: Metamodel) -> list[Finding]:
    """Structural invariant check; empty result means the model is well formed.

    Sound and complete for: id uniqueness, endpoint resolution (relations and
    traces), containment cycle freedom, layer-vs-default agreement (unless the
    override flag is set), and trace mapping-class endpoint kinds.
    """
    return _walk(model.entities, model.relations, model.traces)[0]


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
        for r in model.relations_by_kind[RelationKind.dependency]
        if r.source in scope and r.target in scope
    )
    nodes = frozenset(scope) | {n for edge in edges for n in edge}
    return DependencyGraph(nodes=nodes, edges=edges)
