"""Strict parser for a bounded Mermaid subset: the graph, er, sequence and
state families of vocabulary.MERMAID, each named by its header on the first
significant line. Graph statements may be separated by newlines or
semicolons. Unknown constructs fail the parse.
"""

from __future__ import annotations

import functools
import re

from ..errors import DiagramSyntaxError, UnsupportedConstructError
from .types import DiagramEdge, DiagramElement, _Sheet, _significant_lines
from .vocabulary import MERMAID, PSEUDO_STATE, alternation, arrow_classes, identifier

_IDENT = identifier(MERMAID.ident)
_COMMENT = re.compile(r"^\s*" + re.escape(MERMAID.comment))
_ARROWS = {family: arrow_classes(spec) for family, spec in MERMAID.families.items()}
_DEFAULT = {family: spec.elements[0] for family, spec in MERMAID.families.items()}

# one named group per family; a graph head takes a direction
_RE_HEADER = re.compile("|".join(
    f"(?P<{family}>{alternation(heads)}"
    + (rf"\s+{alternation(MERMAID.directions)}" if family == "graph" else "") + ")"
    for family, heads in MERMAID.heads.items()
))
_HEADS = ["/".join(heads) for heads in MERMAID.heads.values()]
_EXPECTED_HEADER = f"{', '.join(_HEADS[:-1])}, or {_HEADS[-1]} header"


def _shape(opener: str, closer: str, text: str) -> str:
    """Opener, text (a pattern where {} is a character not in the closer), closer, as a regex."""
    banned = re.escape("".join(dict.fromkeys(closer)))
    return re.escape(opener) + text.format(f"[^{banned}]") + re.escape(closer)


# node shapes, longest opener first: id, id[text], id[(text)], id(text), id((text)).
# m.lastindex names the class: 1 for a bare id, else the shape's group.
_SHAPES = sorted(((o, c, cls) for cls, shapes in MERMAID.shapes.items() for o, c in shapes),
                 key=lambda shape: -len(shape[0]))
_RE_NODE = re.compile(
    rf"^({_IDENT})(?:{'|'.join(_shape(o, c, '({}+)') for o, c, _ in _SHAPES)})?$")
_NODE_CLASS = (None, _DEFAULT["graph"], *(cls for _, _, cls in _SHAPES))
_INLINE = "|".join(_shape(o, c, "{}*") for o, c in MERMAID.shapes[_DEFAULT["graph"]])
_RE_GRAPH_EDGE = re.compile(
    rf"^({_IDENT})(?:{_INLINE})?\s*{alternation(_ARROWS['graph'])}"
    rf"(?:{_shape(MERMAID.flow_label, MERMAID.flow_label, '({}+)')})?\s*({_IDENT})(?:{_INLINE})?$"
)
_RE_ER_REL = re.compile(rf"^({_IDENT})\s+{MERMAID.er_arrows}\s+({_IDENT})\s*:\s*(\S.*)$")
_RE_ER_ENTITY_OPEN = re.compile(rf"^({_IDENT})\s*\{{$")
_RE_ER_ATTR = re.compile(rf"^({MERMAID.er_type})\s+({MERMAID.er_name})$")
_RE_IDENT = re.compile(_IDENT)
_STATE_EP = rf"(?:{re.escape(PSEUDO_STATE)}|{_IDENT})"
# sequence and state: a declaration, its display name (if any) the last group, and an edge
_RE_DECL = {
    "sequence": re.compile(rf"^{alternation(MERMAID.families['sequence'].elements)}"
                           rf"\s+({_IDENT})(?:\s+as\s+(\S.*))?$"),
    "state": re.compile(rf"^{alternation(MERMAID.families['state'].elements)}\s+({_IDENT})$"),
}
_RE_EDGE = {
    "sequence": re.compile(
        rf"^({_IDENT})\s*{alternation(_ARROWS['sequence'])}\s*({_IDENT})\s*:\s*(\S.*)$"),
    "state": re.compile(
        rf"^({_STATE_EP})\s*{alternation(_ARROWS['state'])}\s*({_STATE_EP})(?:\s*:\s*(\S.*))?$"),
}


_UNSUPPORTED = frozenset(word.casefold() for word in MERMAID.unsupported)


def _unsupported_check(line: str, lineno: int) -> None:
    """Raise if the line's first word, less a trailing colon (accTitle: x),
    names a construct outside the subset, in any case."""
    word = line.split(None, 1)[0].removesuffix(":") if line else ""
    if word.casefold() in _UNSUPPORTED:
        raise UnsupportedConstructError(word, lineno)


class _MermaidSheet(_Sheet):
    def declare(self, local_id: str, display: str, cls: str) -> None:
        existing = self.elements.get(local_id)
        if existing is not None:
            # later, more specific appearances refine the node in place
            if display != local_id:
                existing["display"] = display
            if cls != _DEFAULT["graph"]:
                existing["cls"] = cls
            return
        self.elements[local_id] = {"display": display, "cls": cls, "members": []}
        self.order.append(local_id)


def _node_from_match(sheet: _MermaidSheet, m: re.Match) -> None:
    shape = m.lastindex
    sheet.declare(m.group(1), m.group(shape), _NODE_CLASS[shape])


def _parse_graph(body: list[tuple[int, str]]) -> _MermaidSheet:
    sheet = _MermaidSheet()
    node, (flow,) = _DEFAULT["graph"], _ARROWS["graph"]
    for lineno, line in body:
        for stmt in filter(None, (s.strip() for s in line.split(MERMAID.statement_end))):
            m = _RE_GRAPH_EDGE.match(stmt)
            if m:
                src, arrow, label, tgt = m.groups()
                # endpoints may carry inline shapes; re-parse each side
                head, tail = stmt.split(arrow, 1)
                if tail.lstrip().startswith(MERMAID.flow_label):
                    tail = tail.split(MERMAID.flow_label, 2)[2]
                for side in (head, tail):
                    nm = _RE_NODE.match(side.strip())
                    if nm:
                        _node_from_match(sheet, nm)
                sheet.declare(src, src, node)
                sheet.declare(tgt, tgt, node)
                sheet.edge(src, tgt, _ARROWS["graph"][arrow], (label or "").strip())
                continue
            m = _RE_NODE.match(stmt)
            if m:
                _node_from_match(sheet, m)
                continue
            _unsupported_check(stmt, lineno)
            raise DiagramSyntaxError(lineno, 1, f"node or {flow} edge")
    return sheet


def _parse_er(body: list[tuple[int, str]]) -> _MermaidSheet:
    sheet = _MermaidSheet()
    entity = _DEFAULT["er"]
    open_entity: str | None = None
    for lineno, line in body:
        if open_entity is not None:
            if line == "}":
                open_entity = None
                continue
            m = _RE_ER_ATTR.match(line)
            if not m:
                raise DiagramSyntaxError(lineno, 1, "attribute '<type> <name>' or '}'")
            member = MERMAID.er_member.format(name=m.group(2), type=m.group(1))
            sheet.elements[open_entity]["members"].append(member)
            continue
        m = _RE_ER_REL.match(line)
        if m:
            left, right, label = m.groups()
            sheet.declare(left, left, entity)
            sheet.declare(right, right, entity)
            sheet.edge(left, right, "relationship", label)
            continue
        m = _RE_ER_ENTITY_OPEN.match(line)
        if m:
            sheet.declare(m.group(1), m.group(1), entity)
            open_entity = m.group(1)
            continue
        if _RE_IDENT.fullmatch(line):
            sheet.declare(line, line, entity)
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "entity or relationship")
    if open_entity is not None:
        raise DiagramSyntaxError(body[-1][0] + 1, 1, "'}' closing entity block")
    return sheet


def _parse_flat(family: str, expected: str, body: list[tuple[int, str]]) -> _MermaidSheet:
    """Sequence and state: declarations and edges. [*] is a state diagram's
    initial state as a source and its final one as a target."""
    sheet = _MermaidSheet()
    default, arrows = _DEFAULT[family], _ARROWS[family]
    declaration, edge = _RE_DECL[family], _RE_EDGE[family]
    for lineno, line in body:
        m = declaration.match(line)
        if m:
            sheet.declare(m.group(2), m.group(m.lastindex), m.group(1))
            continue
        m = edge.match(line)
        if m:
            src, arrow, tgt, label = m.groups()
            s = "initial" if src == PSEUDO_STATE else src
            t = "final" if tgt == PSEUDO_STATE else tgt
            sheet.declare(s, s, "initial" if src == PSEUDO_STATE else default)
            sheet.declare(t, t, "final" if tgt == PSEUDO_STATE else default)
            sheet.edge(s, t, arrows[arrow], label or "")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, expected)
    return sheet


_FAMILY_PARSERS = {
    "graph": _parse_graph,
    "er": _parse_er,
    "sequence": functools.partial(_parse_flat, "sequence", "participant declaration or message"),
    "state": functools.partial(_parse_flat, "state", "state declaration or transition"),
}


def parse_mermaid(text: str) -> tuple[str, list[DiagramElement], list[DiagramEdge]]:
    """Parse one Mermaid artifact into (family, elements, edges).

    family is one of graph/er/sequence/state. Raises DiagramSyntaxError or
    UnsupportedConstructError on any deviation from the subset.
    """
    lines = _significant_lines(text, _COMMENT)
    if not lines:
        raise DiagramSyntaxError(1, 1, "mermaid header")
    header_line, header = lines[0]
    m = _RE_HEADER.fullmatch(header)
    if not m:
        raise DiagramSyntaxError(header_line, 1, _EXPECTED_HEADER)
    sheet = _FAMILY_PARSERS[m.lastgroup](lines[1:])
    return m.lastgroup, sheet.diagram_elements(), sheet.edges
