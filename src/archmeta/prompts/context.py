"""Architectural context blocks: the structured payload behind workflow B.

A context block carries four disjoint, sentinel-delimited sections: the
operation instructions, the canonical JSON model, the serialized diagram
views grouped by abstraction layer, and the invariance declarations derived
from the model's constraints. Diagram types that cannot be derived from the
model are skipped with an explicit uncertainty note rather than silently
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constraints import DEFAULT_ACYCLIC_KINDS, DEFAULT_DIRECTION_GROUPS, validate_constraint_params
from ..diagrams.canonical import dumps_model
from ..diagrams.render import render_diagram_view, view_entity_kinds
from ..diagrams.types import PRIMARY_LAYER, DiagramType
from ..errors import UnknownPurposeError
from ..model import AbstractionLayer, Constraint, ConstraintKind, Metamodel

PURPOSE_DIAGRAMS: dict[str, tuple[DiagramType, ...]] = {
    "scope": (DiagramType.BusinessContext,),
    "business-alignment": (DiagramType.DomainModel, DiagramType.BusinessCapabilityMap),
    "service-structure": (DiagramType.SystemContainer, DiagramType.ComponentView),
    "api-workflow": (DiagramType.IntegrationApi, DiagramType.SequenceInteraction),
    "schema-migration": (DiagramType.DataModelSchema,),
    "deployment-config": (DiagramType.DeploymentInfrastructure, DiagramType.RuntimeTopology),
}

DEFAULT_INSTRUCTIONS = (
    "Operate strictly within the architectural context below. The canonical\n"
    "model and the diagrams are authoritative constraints: reuse their entity\n"
    "names verbatim, preserve dependency direction and containment, and keep\n"
    "every declared invariant satisfied. If a required fact is absent, state\n"
    "\"Not derivable\" instead of inventing it."
)

_SECTION_ORDER = ("INSTRUCTIONS", "CANONICAL CONTEXT", "DIAGRAMS", "INVARIANTS", "UNCERTAINTY")


def section_marker(name: str) -> str:
    return f"<<<SECTION: {name}>>>"


def section_end_marker(name: str) -> str:
    return f"<<<END: {name}>>>"


def _diagram_available(model: Metamodel, dtype: DiagramType) -> bool:
    if any(ref.type == dtype.value for ref in model.diagrams):
        return True
    kinds_present = {e.kind for e in model.entities}
    return bool(view_entity_kinds(dtype) & kinds_present)


def select_diagram_set(model: Metamodel, purpose: str) -> list[DiagramType]:
    """The guidance mapping for a task purpose, narrowed to what the model has."""
    key = purpose.strip().lower()
    if key not in PURPOSE_DIAGRAMS:
        known = ", ".join(sorted(PURPOSE_DIAGRAMS))
        raise UnknownPurposeError(f"unknown purpose {purpose!r} (known: {known})")
    return [t for t in PURPOSE_DIAGRAMS[key] if _diagram_available(model, t)]


def describe_constraint(constraint: Constraint) -> str:
    scope_bits = []
    layers = constraint.scope.get("layers", ())
    entities = constraint.scope.get("entities", ())
    if layers:
        scope_bits.append("within layers " + ", ".join(layers))
    if entities:
        scope_bits.append("for entities " + ", ".join(entities))
    scope_text = (" (" + "; ".join(scope_bits) + ")") if scope_bits else ""

    kind = constraint.kind
    if kind is ConstraintKind.dependency_direction:
        groups = constraint.params.get("groups")
        if groups:
            names = [str(g["name"]) for g in groups]  # type: ignore[index]
        else:
            names = [name for name, _layers in DEFAULT_DIRECTION_GROUPS]
        body = (
            f"dependencies must point inward along {' -> '.join(names)}; "
            "a dependency from an inner group back toward an outer one is a violation"
        )
    elif kind is ConstraintKind.layer_boundary:
        allowed = ", ".join(constraint.params.get("allowed_targets", ()))  # type: ignore[arg-type]
        body = f"scoped entities may only depend on targets in layers: {allowed}"
    elif kind is ConstraintKind.acyclicity:
        kinds = ", ".join(constraint.params.get("relation_kinds") or DEFAULT_ACYCLIC_KINDS)  # type: ignore[arg-type]
        body = f"the {kinds} relation graph must remain free of cycles"
    elif kind is ConstraintKind.context_isolation:
        body = (
            "dependencies crossing bounded-context boundaries must target an "
            "ApiInterface entity of the downstream context"
        )
    elif kind is ConstraintKind.cqrs_separation:
        body = "no data store may be both written by a command side and read by a query side"
    else:  # interface_mediation
        body = "dependencies crossing container boundaries must target an ApiInterface entity"
    return f"[{constraint.id}] {body}{scope_text}"


@dataclass(frozen=True)
class ContextBlock:
    canonical_section: str
    diagram_sections: tuple[tuple[AbstractionLayer, DiagramType, str], ...]
    invariance_declarations: tuple[str, ...]
    instructions_section: str = DEFAULT_INSTRUCTIONS
    uncertainty_notes: tuple[str, ...] = field(default=())

    def to_text(self) -> str:
        chunks: list[str] = []

        def add(name: str, body: str) -> None:
            chunks.append(f"{section_marker(name)}\n{body.rstrip()}\n{section_end_marker(name)}")

        add("INSTRUCTIONS", self.instructions_section)
        add("CANONICAL CONTEXT", self.canonical_section)
        diagram_bodies = []
        for layer, dtype, text in self.diagram_sections:
            header = f"-- layer {layer.value} ({layer.name}) / {dtype.value} --"
            diagram_bodies.append(f"{header}\n{text.rstrip()}")
        add("DIAGRAMS", "\n\n".join(diagram_bodies) if diagram_bodies else "(none)")
        add(
            "INVARIANTS",
            "\n".join(f"- {s}" for s in self.invariance_declarations) or "(none declared)",
        )
        add(
            "UNCERTAINTY",
            "\n".join(f"- {s}" for s in self.uncertainty_notes) or "(none)",
        )
        return "\n\n".join(chunks) + "\n"


def render_context_block(
    model: Metamodel,
    types: list[DiagramType] | tuple[DiagramType, ...],
    instructions: str = DEFAULT_INSTRUCTIONS,
) -> ContextBlock:
    """The context block of a model. A model constraint with malformed params
    raises InvalidConstraintParamsError, as it does in evaluation."""
    for constraint in model.constraints:
        validate_constraint_params(constraint)
    sections: list[tuple[AbstractionLayer, DiagramType, str]] = []
    notes: list[str] = []
    for dtype in types:
        if _diagram_available(model, dtype):
            text = render_diagram_view(model, dtype)
            sections.append((PRIMARY_LAYER[dtype], dtype, text))
        else:
            notes.append(f"Not derivable: {dtype.value} (no source diagram or matching entities)")
    sections.sort(key=lambda item: (item[0].value, types.index(item[1])))
    return ContextBlock(
        canonical_section=dumps_model(model),
        diagram_sections=tuple(sections),
        invariance_declarations=tuple(describe_constraint(c) for c in model.constraints),
        instructions_section=instructions,
        uncertainty_notes=tuple(notes),
    )
