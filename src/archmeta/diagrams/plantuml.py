"""Strict parser and renderer for a bounded PlantUML subset.

Supported families: component (component/database/actor/interface/queue,
[X] literals, package blocks, --> and ..> edges), class (class/interface,
member blocks, --|> / --> / ..> edges), sequence (participant/actor, -> and
--> messages with text), state (state declarations, --> transitions, [*]).

Anything outside the subset fails the parse: recognized-but-unsupported
keywords raise UnsupportedConstructError, everything else DiagramSyntaxError.
Referencing an undeclared element in an edge declares it with the family's
default class; explicit duplicate declarations are rejected.
"""

from __future__ import annotations

import re

from ..errors import DiagramSyntaxError, UnsupportedConstructError
from .types import DiagramEdge, DiagramElement, _Sheet, _significant_lines

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_COMMENT = re.compile(r"^\s*'")

# Constructs that are real PlantUML but outside the bounded grammar.
_KNOWN_UNSUPPORTED = (
    "note", "title", "skinparam", "legend", "autonumber", "hide", "show",
    "scale", "newpage", "alt", "opt", "loop", "group", "box", "activate",
    "deactivate", "abstract", "enum", "object", "usecase", "cloud", "node",
    "folder", "frame", "rectangle", "!include", "!define", "left", "right",
)

_RE_ELEMENT = re.compile(
    rf"^(component|database|actor|interface|queue)\s+"
    rf"(?:\"([^\"]+)\"\s+as\s+({_IDENT})|({_IDENT}))$"
)
_RE_BRACKET = re.compile(rf"^\[([^\]\[]+)\](?:\s+as\s+({_IDENT}))?$")
_RE_PACKAGE = re.compile(rf"^package\s+(?:\"([^\"]+)\"|({_IDENT}))\s*\{{$")
_EP = rf"(?:\[[^\]\[]+\]|{_IDENT})"
_RE_COMP_EDGE = re.compile(
    rf"^({_EP})\s*(-->|->|\.\.>)\s*({_EP})(?:\s*:\s*(\S.*))?$"
)
_RE_CLASS_DECL = re.compile(rf"^(class|interface)\s+({_IDENT})\s*(\{{)?$")
_RE_CLASS_EDGE = re.compile(
    rf"^({_IDENT})\s*(--\|>|-->|->|\.\.>)\s*({_IDENT})(?:\s*:\s*(\S.*))?$"
)
_RE_PARTICIPANT = re.compile(
    rf"^(participant|actor)\s+(?:\"([^\"]+)\"\s+as\s+({_IDENT})|({_IDENT}))$"
)
_RE_MESSAGE = re.compile(
    rf"^({_IDENT})\s*(-->>|->>|-->|->)\s*({_IDENT})\s*:\s*(\S.*)$"
)
_RE_STATE_DECL = re.compile(
    rf"^state\s+(?:\"([^\"]+)\"\s+as\s+({_IDENT})|({_IDENT}))$"
)
_STATE_EP = rf"(?:\[\*\]|{_IDENT})"
_RE_TRANSITION = re.compile(
    rf"^({_STATE_EP})\s*(-->|->)\s*({_STATE_EP})(?:\s*:\s*(\S.*))?$"
)


class _PlantUmlSheet(_Sheet):
    """An id is declared explicitly once; an edge may name it first, implicitly."""

    def declare(self, local_id: str, display: str, cls: str, line: int,
                implicit: bool = False, members: list[str] | None = None) -> None:
        existing = self.elements.get(local_id)
        if existing is not None:
            if not implicit and not existing["implicit"]:
                raise DiagramSyntaxError(line, 1, f"unique element id ({local_id!r} already declared)")
            if existing["implicit"] and not implicit:
                existing.update(display=display, cls=cls, implicit=False)
                if members is not None:
                    existing["members"] = members
            return
        self.elements[local_id] = {
            "display": display, "cls": cls, "implicit": implicit,
            "members": members if members is not None else [],
        }
        self.order.append(local_id)


def _frame(text: str) -> list[tuple[int, str]]:
    lines = _significant_lines(text, _COMMENT)
    if not lines or lines[0][1] != "@startuml":
        bad_line = lines[0][0] if lines else 1
        raise DiagramSyntaxError(bad_line, 1, "@startuml")
    body = lines[1:]
    if not body or body[-1][1] != "@enduml":
        last = lines[-1][0] + 1
        raise DiagramSyntaxError(last, 1, "@enduml")
    return body[:-1]


# Sequence messages are discriminated by arrows that no other family uses
# (->, ->>, -->>); a plain --> edge stays ambiguous and defaults to component.
_RE_SEQ_DISCRIMINANT = re.compile(
    rf"^({_IDENT})\s*(-->>|->>|->)\s*({_IDENT})\s*:"
)


def detect_family(text: str) -> str:
    """Pick the grammar family from discriminating tokens; component wins ties."""
    try:
        body = _frame(text)
    except DiagramSyntaxError:
        body = _significant_lines(text, _COMMENT)
    for _, line in body:
        word = line.split(None, 1)[0] if line else ""
        if word == "class":
            return "class"
        if word == "participant" or _RE_SEQ_DISCRIMINANT.match(line):
            return "sequence"
        if word == "state" or line.startswith("[*]") or " [*]" in line:
            return "state"
        if word in ("component", "database", "queue", "package") or line.startswith("["):
            return "component"
    return "component"


def _unsupported_check(line: str, lineno: int) -> None:
    word = line.split(None, 1)[0].lower() if line else ""
    if word in _KNOWN_UNSUPPORTED or line.startswith("!"):
        raise UnsupportedConstructError(word or line, lineno)


def _strip_endpoint(sheet: _PlantUmlSheet, token: str, default_cls: str, lineno: int) -> str:
    if token.startswith("["):
        name = token[1:-1]
        sheet.declare(name, name, "component", lineno, implicit=True)
        return name
    sheet.declare(token, token, default_cls, lineno, implicit=True)
    return token


def _parse_component(body: list[tuple[int, str]]) -> _PlantUmlSheet:
    sheet = _PlantUmlSheet()
    package_stack: list[str] = []
    for lineno, line in body:
        m = _RE_PACKAGE.match(line)
        if m:
            name = m.group(1) or m.group(2)
            sheet.declare(name, name, "package", lineno)
            if package_stack:
                sheet.edge(package_stack[-1], name, "containment", "")
            package_stack.append(name)
            continue
        if line == "}":
            if not package_stack:
                raise DiagramSyntaxError(lineno, 1, "open package block before '}'")
            package_stack.pop()
            continue
        m = _RE_ELEMENT.match(line)
        if m:
            keyword, display, alias, bare = m.groups()
            local = alias or bare
            sheet.declare(local, display or bare, keyword, lineno)
            if package_stack:
                sheet.edge(package_stack[-1], local, "containment", "")
            continue
        m = _RE_BRACKET.match(line)
        if m:
            display, alias = m.groups()
            local = alias or display
            sheet.declare(local, display, "component", lineno)
            if package_stack:
                sheet.edge(package_stack[-1], local, "containment", "")
            continue
        m = _RE_COMP_EDGE.match(line)
        if m:
            src, _arrow, tgt, label = m.groups()
            s = _strip_endpoint(sheet, src, "component", lineno)
            t = _strip_endpoint(sheet, tgt, "component", lineno)
            sheet.edge(s, t, "dependency", label or "")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "component declaration, package block, or edge")
    if package_stack:
        raise DiagramSyntaxError(body[-1][0] + 1, 1, "'}' closing package block")
    return sheet


def _parse_class(body: list[tuple[int, str]]) -> _PlantUmlSheet:
    sheet = _PlantUmlSheet()
    open_class: str | None = None
    for lineno, line in body:
        if open_class is not None:
            if line == "}":
                open_class = None
            else:
                sheet.elements[open_class]["members"].append(line)
            continue
        m = _RE_CLASS_DECL.match(line)
        if m:
            keyword, name, brace = m.groups()
            sheet.declare(name, name, keyword, lineno, members=[])
            if brace:
                open_class = name
            continue
        m = _RE_CLASS_EDGE.match(line)
        if m:
            src, arrow, tgt, label = m.groups()
            sheet.declare(src, src, "class", lineno, implicit=True)
            sheet.declare(tgt, tgt, "class", lineno, implicit=True)
            cls = {"--|>": "inheritance", "..>": "dependency"}.get(arrow, "association")
            sheet.edge(src, tgt, cls, label or "")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "class declaration or relationship")
    if open_class is not None:
        raise DiagramSyntaxError(body[-1][0] + 1, 1, "'}' closing class body")
    return sheet


def _parse_sequence(body: list[tuple[int, str]]) -> _PlantUmlSheet:
    sheet = _PlantUmlSheet()
    for lineno, line in body:
        m = _RE_PARTICIPANT.match(line)
        if m:
            keyword, display, alias, bare = m.groups()
            local = alias or bare
            cls = "actor" if keyword == "actor" else "participant"
            sheet.declare(local, display or bare, cls, lineno)
            continue
        m = _RE_MESSAGE.match(line)
        if m:
            src, arrow, tgt, label = m.groups()
            sheet.declare(src, src, "participant", lineno, implicit=True)
            sheet.declare(tgt, tgt, "participant", lineno, implicit=True)
            cls = "reply" if arrow.startswith("--") else "message"
            sheet.edge(src, tgt, cls, label)
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "participant declaration or message")
    return sheet


def _parse_state(body: list[tuple[int, str]]) -> _PlantUmlSheet:
    sheet = _PlantUmlSheet()

    def endpoint(token: str, position: str, lineno: int) -> str:
        if token == "[*]":
            local = "initial" if position == "source" else "final"
            sheet.declare(local, local, local, lineno, implicit=True)
            return local
        sheet.declare(token, token, "state", lineno, implicit=True)
        return token

    for lineno, line in body:
        m = _RE_STATE_DECL.match(line)
        if m:
            display, alias, bare = m.groups()
            local = alias or bare
            sheet.declare(local, display or bare, "state", lineno)
            continue
        m = _RE_TRANSITION.match(line)
        if m:
            src, _arrow, tgt, label = m.groups()
            s = endpoint(src, "source", lineno)
            t = endpoint(tgt, "target", lineno)
            sheet.edge(s, t, "transition", label or "")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "state declaration or transition")
    return sheet


_FAMILY_PARSERS = {
    "component": _parse_component,
    "class": _parse_class,
    "sequence": _parse_sequence,
    "state": _parse_state,
}


def parse_plantuml(text: str) -> tuple[str, list[DiagramElement], list[DiagramEdge]]:
    """Parse one PlantUML artifact into (family, elements, edges).

    A class's member lines land in its element's properties["members"].
    Raises DiagramSyntaxError or UnsupportedConstructError on any deviation.
    """
    body = _frame(text)
    family = detect_family(text)
    sheet = _FAMILY_PARSERS[family](body)
    return family, sheet.diagram_elements(), sheet.edges
