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


# One row per view type: the home layer its content lands on, and the notation
# render.py writes it in ("plantuml-class" is PlantUML's class family).
_VIEWS: dict[DiagramType, tuple[AbstractionLayer, str]] = {
    DiagramType.BusinessContext: (AbstractionLayer.Business, "plantuml-component"),
    DiagramType.BusinessCapabilityMap: (AbstractionLayer.Business, "plantuml-component"),
    DiagramType.BusinessProcess: (AbstractionLayer.Business, "mermaid-graph"),
    DiagramType.DomainModel: (AbstractionLayer.BusinessConceptual, "plantuml-class"),
    DiagramType.DddContextMap: (AbstractionLayer.BusinessSystem, "plantuml-component"),
    DiagramType.SystemContainer: (AbstractionLayer.System, "plantuml-component"),
    DiagramType.ComponentView: (AbstractionLayer.System, "plantuml-component"),
    DiagramType.IntegrationApi: (AbstractionLayer.System, "plantuml-component"),
    DiagramType.CqrsView: (AbstractionLayer.SystemPattern, "plantuml-component"),
    DiagramType.EventDrivenView: (AbstractionLayer.SystemPattern, "mermaid-graph"),
    DiagramType.CleanOnionView: (AbstractionLayer.SystemStructural, "plantuml-component"),
    DiagramType.DeploymentInfrastructure: (AbstractionLayer.SystemRuntime, "plantuml-component"),
    DiagramType.RuntimeTopology: (AbstractionLayer.Runtime, "plantuml-component"),
    DiagramType.ClassModuleStructure: (AbstractionLayer.Implementation, "plantuml-class"),
    DiagramType.DataModelSchema: (AbstractionLayer.Implementation, "mermaid-er"),
    DiagramType.SequenceInteraction: (AbstractionLayer.ImplementationBehavioral, "plantuml-sequence"),
    DiagramType.StateMachine: (AbstractionLayer.Behavioral, "plantuml-state"),
    DiagramType.StranglerMigration: (AbstractionLayer.Evolutionary, "plantuml-component"),
}
PRIMARY_LAYER: dict[DiagramType, AbstractionLayer] = {t: layer for t, (layer, _) in _VIEWS.items()}


def primary_layer(dtype: DiagramType) -> AbstractionLayer:
    return _VIEWS[dtype][0]


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
