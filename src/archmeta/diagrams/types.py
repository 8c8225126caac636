"""Diagram-side types: the 18 view types, parse results, artifact sets, and
the scaffolding the PlantUML and Mermaid parsers share."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Mapping

from ..model import AbstractionLayer


class DiagramFormat(enum.Enum):
    canonical = "canonical"
    plantuml = "plantuml"
    mermaid = "mermaid"


class DiagramType(enum.Enum):
    BusinessContext = "BusinessContext"
    BusinessCapabilityMap = "BusinessCapabilityMap"
    DomainModel = "DomainModel"
    BusinessProcess = "BusinessProcess"
    DddContextMap = "DddContextMap"
    CqrsView = "CqrsView"
    EventDrivenView = "EventDrivenView"
    CleanOnionView = "CleanOnionView"
    SystemContainer = "SystemContainer"
    ComponentView = "ComponentView"
    DeploymentInfrastructure = "DeploymentInfrastructure"
    IntegrationApi = "IntegrationApi"
    StranglerMigration = "StranglerMigration"
    ClassModuleStructure = "ClassModuleStructure"
    SequenceInteraction = "SequenceInteraction"
    DataModelSchema = "DataModelSchema"
    RuntimeTopology = "RuntimeTopology"
    StateMachine = "StateMachine"


# Home layer of each diagram type's content.
PRIMARY_LAYER: dict[DiagramType, AbstractionLayer] = {
    DiagramType.BusinessContext: AbstractionLayer.Business,
    DiagramType.BusinessCapabilityMap: AbstractionLayer.Business,
    DiagramType.BusinessProcess: AbstractionLayer.Business,
    DiagramType.DomainModel: AbstractionLayer.BusinessConceptual,
    DiagramType.DddContextMap: AbstractionLayer.BusinessSystem,
    DiagramType.SystemContainer: AbstractionLayer.System,
    DiagramType.ComponentView: AbstractionLayer.System,
    DiagramType.IntegrationApi: AbstractionLayer.System,
    DiagramType.CqrsView: AbstractionLayer.SystemPattern,
    DiagramType.EventDrivenView: AbstractionLayer.SystemPattern,
    DiagramType.CleanOnionView: AbstractionLayer.SystemStructural,
    DiagramType.DeploymentInfrastructure: AbstractionLayer.SystemRuntime,
    DiagramType.RuntimeTopology: AbstractionLayer.Runtime,
    DiagramType.ClassModuleStructure: AbstractionLayer.Implementation,
    DiagramType.DataModelSchema: AbstractionLayer.Implementation,
    DiagramType.SequenceInteraction: AbstractionLayer.ImplementationBehavioral,
    DiagramType.StateMachine: AbstractionLayer.Behavioral,
    DiagramType.StranglerMigration: AbstractionLayer.Evolutionary,
}


def primary_layer(dtype: DiagramType) -> AbstractionLayer:
    return PRIMARY_LAYER[dtype]


@dataclass(frozen=True)
class DiagramElement:
    """One node in a parsed diagram, before lifting."""

    local_id: str
    display_name: str
    element_class: str
    properties: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class DiagramEdge:
    source: str
    target: str
    edge_class: str
    label: str = ""
    properties: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Diagram:
    """Parse result. parse_status is "parsed" or "failed"; failures carry the
    structured reason (line/col/expected or the unsupported construct)."""

    format: DiagramFormat
    type: DiagramType | None = None
    elements: tuple[DiagramElement, ...] = ()
    edges: tuple[DiagramEdge, ...] = ()
    source_digest: str = ""
    parse_status: str = "parsed"
    failure_reason: str = ""

    @property
    def parsed(self) -> bool:
        return self.parse_status == "parsed"


def _significant_lines(text: str, comment: re.Pattern[str]) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a
    comment by the notation's `comment` pattern."""
    return [(i, line) for i, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not comment.match(raw)]


class _Sheet:
    """Elements and edges accumulated during one parse. Each notation
    subclasses it with its own `declare`, which records an element as a dict
    with "display", "cls" and a "members" list."""

    def __init__(self) -> None:
        self.order: list[str] = []
        self.elements: dict[str, dict] = {}
        self.edges: list[DiagramEdge] = []

    def edge(self, source: str, target: str, cls: str, label: str) -> None:
        self.edges.append(DiagramEdge(source, target, cls, label))

    def diagram_elements(self) -> list[DiagramElement]:
        """The elements in declaration order; members, if any, as a tuple."""
        out = []
        for local in self.order:
            raw = self.elements[local]
            props = {"members": tuple(raw["members"])} if raw["members"] else {}
            out.append(DiagramElement(local, raw["display"], raw["cls"], props))
        return out


@dataclass(frozen=True)
class ArtifactStatus:
    name: str
    format: DiagramFormat
    parse_status: str
    failure_reason: str = ""


@dataclass(frozen=True)
class ArtifactSet:
    """Parsability audit over a batch of diagram texts."""

    artifacts: tuple[ArtifactStatus, ...]

    @property
    def total_count(self) -> int:
        return len(self.artifacts)

    @property
    def parsable_count(self) -> int:
        return sum(1 for a in self.artifacts if a.parse_status == "parsed")


def source_digest(text: str) -> str:
    """sha256 over the exact utf-8 bytes of the artifact text."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
