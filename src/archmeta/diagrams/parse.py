"""Front door for diagram parsing.

parse_diagram() is total: it never raises on bad input text, it returns a
Diagram with parse_status="failed" and a structured reason instead. Format
detection looks at the text itself; diagram type is inferred from the parsed
family where that is unambiguous (class, sequence, state, er) and left None
otherwise unless the caller supplies a hint.

Every parse records its outcome, parsed or the failure reason, under the
text's digest and format, so check_parsability parses only texts this
process has not parsed in that format before.
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


_UNRECOGNIZED = ("unrecognized format: expected canonical JSON, "
                 f"{PLANTUML.frame[0]}, or a mermaid header")

# (source digest, format) -> "" for a text that parsed, else its failure reason
# (never empty), least recently used first. Outcomes only: the elements and
# edges of every artifact would hold megabytes, and only check_parsability
# reads the record. At about 190 bytes an entry (digest string, key and dict
# slot), 1024 entries hold the outcomes of any realistic artifact directory
# in about 200 kB; an audit of more distinct texts than that evicts each
# outcome before its next use.
_OUTCOMES_HELD = 1024
_outcomes: dict[tuple[str, DiagramFormat], str] = {}


def _parse(text: str, digest: str, fmt: DiagramFormat, hinted: DiagramType | None) -> Diagram:
    """Parse `text` as `fmt` and record the outcome under (digest, fmt)."""
    try:
        if fmt is DiagramFormat.canonical:
            family, (elements, edges) = None, parse_canonical(text)
        elif fmt is DiagramFormat.plantuml:
            family, elements, edges = parse_plantuml(text)
        else:
            family, elements, edges = parse_mermaid(text)
    except DiagramParseError as err:
        diagram = Diagram(
            format=fmt,
            type=hinted,
            source_digest=digest,
            parse_status="failed",
            failure_reason=_failure_reason(err),
        )
    else:
        diagram = Diagram(
            format=fmt,
            type=hinted if hinted is not None else _FAMILY_TYPE.get(family),
            elements=tuple(elements),
            edges=tuple(edges),
            source_digest=digest,
        )
    _record((digest, fmt), diagram.failure_reason)
    return diagram


def _record(key: tuple[str, DiagramFormat], reason: str) -> None:
    """Hold `reason` under `key` as the most recently used outcome."""
    _outcomes.pop(key, None)
    _outcomes[key] = reason
    if len(_outcomes) > _OUTCOMES_HELD:
        del _outcomes[next(iter(_outcomes))]


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
            failure_reason=_UNRECOGNIZED,
        )
    return _parse(text, digest, fmt, hinted)


def check_parsability(
    artifacts: Iterable[tuple[str, str]],
    formats: Sequence[DiagramFormat | str | None] | None = None,
) -> ArtifactSet:
    """Audit a batch of (name, text) pairs; formats may pin each entry.

    A text already parsed in this process in the same format is not parsed
    again: its recorded outcome gives the same status."""
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
        digest = source_digest(text)
        resolved = _coerce_format(fmt, text)
        if resolved is None:
            reason = _UNRECOGNIZED
        else:
            reason = _outcomes.get((digest, resolved))
            if reason is None:
                reason = _parse(text, digest, resolved, None).failure_reason
            else:
                _record((digest, resolved), reason)
        statuses.append(
            ArtifactStatus(
                name=name,
                format=resolved or DiagramFormat.plantuml,
                parse_status="failed" if reason else "parsed",
                failure_reason=reason,
            )
        )
    return ArtifactSet(artifacts=tuple(statuses))
