"""Front door for diagram parsing.

parse_diagram() is total: it never raises on bad input text, it returns a
Diagram with parse_status="failed" and a structured reason instead. Format
detection looks at the text itself; diagram type is inferred from the parsed
family where that is unambiguous (class, sequence, state, er) and left None
otherwise unless the caller supplies a hint.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import (
    DiagramParseError,
    DiagramSyntaxError,
    UnsupportedConstructError,
)
from .canonical import parse_canonical
from .mermaid import parse_mermaid
from .plantuml import parse_plantuml
from .types import (
    ArtifactSet,
    ArtifactStatus,
    Diagram,
    DiagramFormat,
    DiagramType,
    source_digest,
)
from .vocabulary import MERMAID, PLANTUML

_HEADS = frozenset(head for heads in MERMAID.heads.values() for head in heads)

# family -> diagram type, where the notation alone pins the view type down
# (a PlantUML component or Mermaid graph text leaves it open).
_FAMILY_TYPE = {
    "class": DiagramType.ClassModuleStructure,
    "sequence": DiagramType.SequenceInteraction,
    "state": DiagramType.StateMachine,
    "er": DiagramType.DataModelSchema,
}


def detect_format(text: str) -> DiagramFormat | None:
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("{"):
            return DiagramFormat.canonical
        if line == PLANTUML.frame[0]:
            return DiagramFormat.plantuml
        head = line.split()[0]
        if head in _HEADS or line.rstrip(MERMAID.statement_end) in _HEADS:
            return DiagramFormat.mermaid
        if line.startswith((PLANTUML.comment, MERMAID.comment)):
            continue
        return None
    return None


def _coerce_format(format: DiagramFormat | str | None, text: str) -> DiagramFormat | None:
    if isinstance(format, DiagramFormat):
        return format
    if isinstance(format, str):
        return DiagramFormat(format)
    return detect_format(text)


def _coerce_type(type_hint: DiagramType | str | None) -> DiagramType | None:
    if type_hint is None or isinstance(type_hint, DiagramType):
        return type_hint
    return DiagramType(type_hint)


def _failure_reason(err: DiagramParseError) -> str:
    if isinstance(err, DiagramSyntaxError):
        return f"syntax: line {err.line}, col {err.col}: expected {err.expected}"
    if isinstance(err, UnsupportedConstructError):
        return f"unsupported: {err.construct} (line {err.line})"
    return str(err)


def parse_diagram(
    text: str,
    format: DiagramFormat | str | None = None,
    type_hint: DiagramType | str | None = None,
) -> Diagram:
    """Parse one diagram text. Never raises on malformed input."""
    digest = source_digest(text)
    hinted = _coerce_type(type_hint)
    fmt = _coerce_format(format, text)
    if fmt is None:
        return Diagram(
            format=DiagramFormat.plantuml,
            type=hinted,
            source_digest=digest,
            parse_status="failed",
            failure_reason="unrecognized format: expected canonical JSON, "
                           f"{PLANTUML.frame[0]}, or a mermaid header",
        )
    try:
        if fmt is DiagramFormat.canonical:
            family, (elements, edges) = None, parse_canonical(text)
        elif fmt is DiagramFormat.plantuml:
            family, elements, edges = parse_plantuml(text)
        else:
            family, elements, edges = parse_mermaid(text)
    except DiagramParseError as err:
        return Diagram(
            format=fmt,
            type=hinted,
            source_digest=digest,
            parse_status="failed",
            failure_reason=_failure_reason(err),
        )
    return Diagram(
        format=fmt,
        type=hinted if hinted is not None else _FAMILY_TYPE.get(family),
        elements=tuple(elements),
        edges=tuple(edges),
        source_digest=digest,
    )


def check_parsability(
    artifacts: Iterable[tuple[str, str]],
    formats: Sequence[DiagramFormat | str | None] | None = None,
) -> ArtifactSet:
    """Audit a batch of (name, text) pairs; formats may pin each entry."""
    items = list(artifacts)
    fmts: list[DiagramFormat | str | None]
    if formats is None:
        fmts = [None] * len(items)
    else:
        fmts = list(formats)
        if len(fmts) != len(items):
            raise ValueError("formats must align one-to-one with artifacts")
    statuses = []
    for (name, text), fmt in zip(items, fmts):
        diagram = parse_diagram(text, format=fmt)
        statuses.append(
            ArtifactStatus(
                name=name,
                format=diagram.format,
                parse_status=diagram.parse_status,
                failure_reason=diagram.failure_reason,
            )
        )
    return ArtifactSet(artifacts=tuple(statuses))
