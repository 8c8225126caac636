"""Strict parser for a bounded Mermaid subset.

Supported headers: graph/flowchart (TD|TB|LR|RL|BT), erDiagram,
sequenceDiagram, stateDiagram-v2. The first significant line must be the
header. Statements may be separated by newlines or semicolons (graph family).
Unknown constructs fail the parse.
"""

from __future__ import annotations

import re

from ..errors import DiagramSyntaxError, UnsupportedConstructError
from .types import DiagramEdge, DiagramElement, _Sheet, _significant_lines

_IDENT = r"[A-Za-z_][A-Za-z0-9_-]*"
_COMMENT = re.compile(r"^\s*%%")

_RE_GRAPH_HEADER = re.compile(r"^(graph|flowchart)\s+(TD|TB|LR|RL|BT)$")
# node shapes: id, id[text], id[(text)], id(text), id((text))
_RE_NODE = re.compile(
    rf"^({_IDENT})(?:"
    rf"\[\(([^\]\)]+)\)\]|"   # [(text)] cylinder
    rf"\(\(([^\)]+)\)\)|"      # ((text)) circle
    rf"\[([^\]]+)\]|"          # [text] rectangle
    rf"\(([^\)]+)\)"           # (text) round
    rf")?$"
)
_RE_GRAPH_EDGE = re.compile(
    rf"^({_IDENT})(?:\[[^\]]*\]|\([^\)]*\))?\s*-->"
    rf"(?:\|([^|]+)\|)?\s*({_IDENT})(?:\[[^\]]*\]|\([^\)]*\))?$"
)
_RE_ER_REL = re.compile(
    rf"^({_IDENT})\s+([|}}o{{]{{2}})--([|}}o{{]{{2}})\s+({_IDENT})\s*:\s*(\S.*)$"
)
_RE_ER_ENTITY_OPEN = re.compile(rf"^({_IDENT})\s*\{{$")
_RE_ER_ATTR = re.compile(r"^([A-Za-z_][A-Za-z0-9_()]*)\s+([A-Za-z_][A-Za-z0-9_]*)$")
_RE_SEQ_PART = re.compile(
    rf"^(participant|actor)\s+({_IDENT})(?:\s+as\s+(\S.*))?$"
)
_RE_SEQ_MSG = re.compile(
    rf"^({_IDENT})\s*(-->>|->>|-->|->)\s*({_IDENT})\s*:\s*(\S.*)$"
)
_STATE_EP = rf"(?:\[\*\]|{_IDENT})"
_RE_STATE_TRANS = re.compile(
    rf"^({_STATE_EP})\s*-->\s*({_STATE_EP})(?:\s*:\s*(\S.*))?$"
)
_RE_STATE_DECL = re.compile(rf"^state\s+({_IDENT})$")

_UNSUPPORTED_WORDS = (
    "subgraph", "classdef", "class", "click", "style", "linkstyle", "note",
    "loop", "alt", "opt", "par", "rect", "activate", "deactivate",
    "autonumber", "direction", "accTitle", "accDescr",
)


def _unsupported_check(line: str, lineno: int) -> None:
    word = line.split(None, 1)[0] if line else ""
    if word.lower() in _UNSUPPORTED_WORDS:
        raise UnsupportedConstructError(word, lineno)


class _MermaidSheet(_Sheet):
    def declare(self, local_id: str, display: str, cls: str) -> None:
        existing = self.elements.get(local_id)
        if existing is not None:
            # later, more specific appearances refine the node in place
            if display != local_id:
                existing["display"] = display
            if cls != "node":
                existing["cls"] = cls
            return
        self.elements[local_id] = {"display": display, "cls": cls, "members": []}
        self.order.append(local_id)


def _node_from_match(sheet: _MermaidSheet, m: re.Match) -> str:
    ident, cyl, circle, rect, round_ = m.groups()
    cls = "database" if cyl else "circle" if circle else "node"
    sheet.declare(ident, cyl or circle or rect or round_ or ident, cls)
    return ident


def _parse_graph(body: list[tuple[int, str]]) -> _MermaidSheet:
    sheet = _MermaidSheet()
    for lineno, line in body:
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            m = _RE_GRAPH_EDGE.match(stmt)
            if m:
                src, label, tgt = m.group(1), m.group(2), m.group(3)
                # endpoints may carry inline shapes; re-parse each side
                head, tail = stmt.split("-->", 1)
                if tail.lstrip().startswith("|"):
                    tail = tail.split("|", 2)[2]
                for side in (head, tail):
                    nm = _RE_NODE.match(side.strip())
                    if nm:
                        _node_from_match(sheet, nm)
                sheet.declare(src, src, "node")
                sheet.declare(tgt, tgt, "node")
                sheet.edge(src, tgt, "flow", (label or "").strip())
                continue
            m = _RE_NODE.match(stmt)
            if m:
                _node_from_match(sheet, m)
                continue
            _unsupported_check(stmt, lineno)
            raise DiagramSyntaxError(lineno, 1, "node or --> edge")
    return sheet


def _parse_er(body: list[tuple[int, str]]) -> _MermaidSheet:
    sheet = _MermaidSheet()
    open_entity: str | None = None
    for lineno, line in body:
        if open_entity is not None:
            if line == "}":
                open_entity = None
                continue
            m = _RE_ER_ATTR.match(line)
            if not m:
                raise DiagramSyntaxError(lineno, 1, "attribute '<type> <name>' or '}'")
            sheet.elements[open_entity]["members"].append(f"{m.group(2)} ({m.group(1)})")
            continue
        m = _RE_ER_REL.match(line)
        if m:
            left, _lcard, _rcard, right, label = m.groups()
            sheet.declare(left, left, "er_entity")
            sheet.declare(right, right, "er_entity")
            sheet.edge(left, right, "relationship", label)
            continue
        m = _RE_ER_ENTITY_OPEN.match(line)
        if m:
            sheet.declare(m.group(1), m.group(1), "er_entity")
            open_entity = m.group(1)
            continue
        if re.fullmatch(_IDENT, line):
            sheet.declare(line, line, "er_entity")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "entity or relationship")
    if open_entity is not None:
        raise DiagramSyntaxError(body[-1][0] + 1, 1, "'}' closing entity block")
    return sheet


def _parse_sequence(body: list[tuple[int, str]]) -> _MermaidSheet:
    sheet = _MermaidSheet()
    for lineno, line in body:
        m = _RE_SEQ_PART.match(line)
        if m:
            keyword, ident, display = m.groups()
            cls = "actor" if keyword == "actor" else "participant"
            sheet.declare(ident, display or ident, cls)
            continue
        m = _RE_SEQ_MSG.match(line)
        if m:
            src, arrow, tgt, label = m.groups()
            sheet.declare(src, src, "participant")
            sheet.declare(tgt, tgt, "participant")
            cls = "reply" if arrow.startswith("--") else "message"
            sheet.edge(src, tgt, cls, label)
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "participant declaration or message")
    return sheet


def _parse_state(body: list[tuple[int, str]]) -> _MermaidSheet:
    sheet = _MermaidSheet()
    for lineno, line in body:
        m = _RE_STATE_TRANS.match(line)
        if m:
            src, tgt, label = m.groups()
            s = "initial" if src == "[*]" else src
            t = "final" if tgt == "[*]" else tgt
            sheet.declare(s, s, "initial" if src == "[*]" else "state")
            sheet.declare(t, t, "final" if tgt == "[*]" else "state")
            sheet.edge(s, t, "transition", label or "")
            continue
        m = _RE_STATE_DECL.match(line)
        if m:
            sheet.declare(m.group(1), m.group(1), "state")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "state declaration or transition")
    return sheet


def parse_mermaid(text: str) -> tuple[str, list[DiagramElement], list[DiagramEdge]]:
    """Parse one Mermaid artifact into (family, elements, edges).

    family is one of graph/er/sequence/state. Raises DiagramSyntaxError or
    UnsupportedConstructError on any deviation from the subset.
    """
    lines = _significant_lines(text, _COMMENT)
    if not lines:
        raise DiagramSyntaxError(1, 1, "mermaid header")
    header_line, header = lines[0]
    body = lines[1:]
    if _RE_GRAPH_HEADER.match(header):
        family, sheet = "graph", _parse_graph(body)
    elif header == "erDiagram":
        family, sheet = "er", _parse_er(body)
    elif header == "sequenceDiagram":
        family, sheet = "sequence", _parse_sequence(body)
    elif header == "stateDiagram-v2":
        family, sheet = "state", _parse_state(body)
    else:
        raise DiagramSyntaxError(
            header_line, 1,
            "graph/flowchart, erDiagram, sequenceDiagram, or stateDiagram-v2 header",
        )
    return family, sheet.diagram_elements(), sheet.edges
