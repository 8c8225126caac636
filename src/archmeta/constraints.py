"""Evaluate declared architectural constraints against a model.

Six constraint kinds are supported. Each evaluation is boolean per constraint
(satisfied or violated) with the offending entity or relation ids collected as
instances. Scope narrows the entity set a constraint sees: an entity is in
scope when its layer is listed under "layers" or its id under "entities";
an empty scope means the whole model. Edges count only when both endpoints
are in scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Container, Iterable, Mapping, Sequence

from .errors import InvalidConstraintParamsError, NoConstraintsDefinedError
from .jsonin import decode_json
from .model import (
    AbstractionLayer,
    Constraint,
    ConstraintKind,
    EntityKind,
    Metamodel,
    Relation,
    RelationKind,
)

# Coarse layer groups for dependency-direction, outermost first: code may
# depend on anything beneath it, business depends on nothing outside itself.
DEFAULT_DIRECTION_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Implementation", ("Implementation", "ImplementationBehavioral", "Behavioral", "Evolutionary")),
    ("System", ("System", "SystemPattern", "SystemStructural", "SystemRuntime", "Runtime")),
    ("Business", ("Business", "BusinessConceptual", "BusinessSystem")),
)

# The relation kinds acyclicity checks when its params name none.
DEFAULT_ACYCLIC_KINDS: tuple[str, ...] = ("dependency",)


@dataclass(frozen=True)
class ConstraintResult:
    constraint_id: str
    kind: ConstraintKind
    status: str  # "satisfied" | "violated"
    instances: tuple[str, ...] = ()

    @property
    def violated(self) -> bool:
        return self.status == "violated"


def _layer_names() -> set[str]:
    return {layer.name for layer in AbstractionLayer}


def _require_layer_list(cid: str, value: object, what: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise InvalidConstraintParamsError(cid, f"{what} must be a non-empty list of layer names")
    names = _layer_names()
    out = []
    for item in value:
        if not isinstance(item, str) or item not in names:
            raise InvalidConstraintParamsError(cid, f"{what} holds an unknown layer: {item!r}")
        out.append(item)
    return tuple(out)


def validate_constraint_params(constraint: Constraint) -> None:
    """Raise InvalidConstraintParamsError on any malformed scope or params."""
    cid = constraint.id
    for key in constraint.scope:
        if key not in ("layers", "entities"):
            raise InvalidConstraintParamsError(cid, f"unknown scope key: {key!r}")
    if "layers" in constraint.scope:
        _require_layer_list(cid, list(constraint.scope["layers"]), "scope.layers")
    for item in constraint.scope.get("entities", ()):
        if not isinstance(item, str):
            raise InvalidConstraintParamsError(cid, f"scope.entities holds a non-string id: {item!r}")

    params = dict(constraint.params)
    kind = constraint.kind
    if kind is ConstraintKind.dependency_direction:
        groups = params.pop("groups", None)
        if groups is not None:
            if not isinstance(groups, (list, tuple)) or len(groups) < 2:
                raise InvalidConstraintParamsError(cid, "groups must list at least two groups")
            seen_layers: set[str] = set()
            for group in groups:
                if not isinstance(group, Mapping) or "name" not in group or "layers" not in group:
                    raise InvalidConstraintParamsError(cid, "each group needs name and layers")
                layers = _require_layer_list(cid, group["layers"], f"group {group['name']!r}")
                overlap = seen_layers.intersection(layers)
                if overlap:
                    raise InvalidConstraintParamsError(cid, f"groups overlap on layer {sorted(overlap)[0]}")
                seen_layers.update(layers)
    elif kind is ConstraintKind.layer_boundary:
        if "allowed_targets" not in params:
            raise InvalidConstraintParamsError(cid, "allowed_targets is required")
        _require_layer_list(cid, params.pop("allowed_targets"), "allowed_targets")
    elif kind is ConstraintKind.acyclicity:
        kinds = params.pop("relation_kinds", None)
        if kinds is not None:
            if not isinstance(kinds, (list, tuple)) or not kinds:
                raise InvalidConstraintParamsError(cid, "relation_kinds must be a non-empty list")
            valid = {k.value for k in RelationKind}
            for item in kinds:
                if not isinstance(item, str) or item not in valid:
                    raise InvalidConstraintParamsError(cid, f"unknown relation kind: {item!r}")
    elif kind is ConstraintKind.context_isolation:
        pairs = params.pop("allowed_pairs", None)
        if pairs is not None:
            if not isinstance(pairs, (list, tuple)):
                raise InvalidConstraintParamsError(cid, "allowed_pairs must be a list of id pairs")
            for pair in pairs:
                if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                        or not all(isinstance(p, str) for p in pair)):
                    raise InvalidConstraintParamsError(cid, "allowed_pairs entries must be [src, tgt] ids")
    # cqrs-separation and interface-mediation take no params
    if params:
        extra = sorted(params)[0]
        raise InvalidConstraintParamsError(cid, f"unknown param: {extra!r}")


def _scoped_ids(model: Metamodel, scope: Mapping[str, Sequence[str]]) -> set[str] | None:
    if not scope:
        return None
    index = model.entity_index
    out = {i for i in scope.get("entities", ()) if i in index}
    for name in scope.get("layers", ()):
        out.update(model.entity_ids_by_layer[AbstractionLayer[name]])
    return out


def _scoped_relations(
    model: Metamodel,
    in_scope: set[str] | None,
    kinds: Iterable[RelationKind],
) -> list[Relation]:
    """Relations of the given kinds with both endpoints in scope, in model order.

    Scoped, only the in-scope sources' out-relations are visited.
    """
    relations = model.relations
    positions = []
    for kind in kinds:
        out = model.out_relations[kind]
        if in_scope is None:
            for found in out.values():
                positions.extend(found)
            continue
        for source in in_scope:
            for pos in out.get(source, ()):
                if relations[pos].target in in_scope:
                    positions.append(pos)
    positions.sort()
    return [relations[pos] for pos in positions]


_DEP = (RelationKind.dependency,)
_DEP_OR_DATA = (RelationKind.dependency, RelationKind.data_flow)


def _eval_dependency_direction(model: Metamodel, constraint: Constraint, in_scope: set[str] | None) -> list[str]:
    raw_groups = constraint.params.get("groups")
    if raw_groups:
        ordered = [(g["name"], tuple(g["layers"])) for g in raw_groups]
    else:
        ordered = list(DEFAULT_DIRECTION_GROUPS)
    position: dict[AbstractionLayer, int] = {}
    for idx, (_name, layers) in enumerate(ordered):
        for layer in layers:
            position[AbstractionLayer[layer]] = idx
    index = model.entity_index
    violations = []
    for rel in _scoped_relations(model, in_scope, _DEP):
        src = position.get(index[rel.source].layer)
        tgt = position.get(index[rel.target].layer)
        if src is None or tgt is None:
            continue
        # inward (toward the last group) is the allowed direction
        if tgt < src:
            violations.append(rel.id)
    return violations


def _eval_layer_boundary(model: Metamodel, constraint: Constraint, in_scope: set[str] | None) -> list[str]:
    allowed = {AbstractionLayer[name] for name in constraint.params["allowed_targets"]}
    index = model.entity_index
    violations = []
    for rel in model.relations_by_kind[RelationKind.dependency]:
        if in_scope is not None and rel.source not in in_scope:
            continue
        if index[rel.target].layer not in allowed:
            violations.append(rel.id)
    return violations


def _strongly_connected(nodes: set[str], out_edges: dict[str, list[str]]) -> list[list[str]]:
    """Iterative Tarjan; returns components in discovery order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(out_edges.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(out_edges.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _eval_acyclicity(model: Metamodel, constraint: Constraint, in_scope: set[str] | None) -> list[str]:
    kind_names = constraint.params.get("relation_kinds") or DEFAULT_ACYCLIC_KINDS
    kinds = {RelationKind(k) for k in kind_names}
    nodes: set[str] = set()
    out_edges: dict[str, list[str]] = {}
    self_loops: set[str] = set()
    for rel in _scoped_relations(model, in_scope, kinds):
        nodes.add(rel.source)
        nodes.add(rel.target)
        out_edges.setdefault(rel.source, []).append(rel.target)
        if rel.source == rel.target:
            self_loops.add(rel.source)
    for targets in out_edges.values():
        targets.sort()
    cyclic: set[str] = set(self_loops)
    for component in _strongly_connected(nodes, out_edges):
        if len(component) > 1:
            cyclic.update(component)
    return sorted(cyclic)


def _crossings_off_api(model: Metamodel, in_scope: set[str] | None, boundary: EntityKind,
                       allowed_pairs: Container[tuple[str, str]] = ()) -> list[str]:
    """Dependencies from inside one `boundary` ancestor into another that do
    not land on an ApiInterface, unless the (source, target) ancestor pair is
    allowed."""
    owner = model.ancestor_table(boundary)
    index = model.entity_index
    violations = []
    for rel in _scoped_relations(model, in_scope, _DEP):
        src_box = owner.get(rel.source)
        tgt_box = owner.get(rel.target)
        if src_box is None or tgt_box is None or src_box == tgt_box:
            continue
        if (src_box, tgt_box) in allowed_pairs:
            continue
        if index[rel.target].kind is not EntityKind.ApiInterface:
            violations.append(rel.id)
    return violations


def _eval_context_isolation(model: Metamodel, constraint: Constraint, in_scope: set[str] | None) -> list[str]:
    allowed_pairs = {
        (pair[0], pair[1]) for pair in constraint.params.get("allowed_pairs") or ()
    }
    return _crossings_off_api(model, in_scope, EntityKind.BoundedContext, allowed_pairs)


def shared_stores(model: Metamodel, in_scope: set[str] | None) -> list[str]:
    """DataStores written by a Command and read by a Query (dependency or
    data flow), sorted; None scope means the whole model."""
    written: set[str] = set()
    read: set[str] = set()
    for rel in _scoped_relations(model, in_scope, _DEP_OR_DATA):
        target = model.entity_index.get(rel.target)
        if target is None or target.kind is not EntityKind.DataStore:
            continue
        source_kind = model.entity(rel.source).kind
        if source_kind is EntityKind.Command:
            written.add(rel.target)
        elif source_kind is EntityKind.Query:
            read.add(rel.target)
    return sorted(written & read)


def _eval_cqrs_separation(model: Metamodel, constraint: Constraint, in_scope: set[str] | None) -> list[str]:
    return shared_stores(model, in_scope)


def _eval_interface_mediation(model: Metamodel, constraint: Constraint, in_scope: set[str] | None) -> list[str]:
    return _crossings_off_api(model, in_scope, EntityKind.Container)


_EVALUATORS = {
    ConstraintKind.dependency_direction: _eval_dependency_direction,
    ConstraintKind.layer_boundary: _eval_layer_boundary,
    ConstraintKind.acyclicity: _eval_acyclicity,
    ConstraintKind.context_isolation: _eval_context_isolation,
    ConstraintKind.cqrs_separation: _eval_cqrs_separation,
    ConstraintKind.interface_mediation: _eval_interface_mediation,
}


def evaluate_constraint(model: Metamodel, constraint: Constraint) -> ConstraintResult:
    validate_constraint_params(constraint)
    in_scope = _scoped_ids(model, constraint.scope)
    instances = _EVALUATORS[constraint.kind](model, constraint, in_scope)
    return ConstraintResult(
        constraint_id=constraint.id,
        kind=constraint.kind,
        status="violated" if instances else "satisfied",
        instances=tuple(instances),
    )


def evaluate_constraints(
    model: Metamodel,
    constraints: Iterable[Constraint] | None = None,
) -> tuple[ConstraintResult, ...]:
    """Evaluate the given constraints (default: the model's own), sorted by id."""
    chosen = tuple(constraints) if constraints is not None else model.constraints
    results = [evaluate_constraint(model, c) for c in chosen]
    results.sort(key=lambda r: r.constraint_id)
    return tuple(results)


def violation_counts(results: Iterable[ConstraintResult]) -> tuple[int, int]:
    """(violated, total) over a result set."""
    seq = list(results)
    return sum(1 for r in seq if r.violated), len(seq)


def consistency_score(results: Iterable[ConstraintResult]) -> float:
    """1 minus the violated fraction. Undefined (not 1.0) over zero constraints."""
    violated, total = violation_counts(results)
    if total == 0:
        raise NoConstraintsDefinedError("consistency over zero constraints is undefined")
    return 1.0 - violated / total


def _constraint_entry(obj: object, position: int) -> Constraint:
    """One catalog entry as a Constraint; malformed entries are named by id or #position."""
    if not isinstance(obj, dict):
        raise InvalidConstraintParamsError(f"#{position}", "entry must be an object")
    cid = obj.get("id")
    if not isinstance(cid, str):
        raise InvalidConstraintParamsError(f"#{position}", "id must be a string")
    try:
        kind = ConstraintKind(obj.get("kind"))
    except ValueError:
        raise InvalidConstraintParamsError(cid, f"unknown kind: {obj.get('kind')!r}") from None
    scope = obj.get("scope")
    if scope is None:
        scope = {}  # dumps_model writes an empty scope as null
    if not isinstance(scope, dict) or not all(isinstance(v, list) for v in scope.values()):
        raise InvalidConstraintParamsError(cid, "scope must be an object of lists")
    if scope.get("entities") == []:
        # the canonical writer drops an empty list, so the rule would then cover the whole model
        raise InvalidConstraintParamsError(cid, "scope.entities must be a non-empty list of entity ids")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InvalidConstraintParamsError(cid, "params must be an object")
    return Constraint(id=cid, kind=kind, scope={k: tuple(v) for k, v in scope.items()}, params=params)


def constraints_from_json(text: str) -> tuple[Constraint, ...]:
    """Parse a {"constraints": [...]} document and validate every entry.

    Raises InvalidConstraintParamsError for a malformed document or entry,
    and NoConstraintsDefinedError for an empty catalog.
    """
    try:
        raw = decode_json(text)
    except json.JSONDecodeError as exc:
        raise InvalidConstraintParamsError("(catalog)", f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("constraints"), list):
        raise InvalidConstraintParamsError("(catalog)", 'expected an object with a "constraints" list')
    out = [_constraint_entry(obj, position) for position, obj in enumerate(raw["constraints"])]
    if not out:
        raise NoConstraintsDefinedError("constraint catalog is empty")
    for constraint in out:
        validate_constraint_params(constraint)
    return tuple(out)


def load_preset_constraints() -> tuple[Constraint, ...]:
    """The packaged default catalog: per-layer acyclicity plus the four
    model-wide rules. Raises NoConstraintsDefinedError if the data file is
    empty (it is not, but the contract holds for any edit)."""
    text = resources.files("archmeta.data").joinpath("constraint_preset.json").read_text("utf-8")
    return constraints_from_json(text)
