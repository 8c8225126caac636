"""Strict parser for a bounded PlantUML subset: the component, class,
sequence and state families of vocabulary.PLANTUML, whose keywords and arrows
the regexes below are built from.

Anything outside the subset fails the parse: recognized-but-unsupported
keywords raise UnsupportedConstructError, everything else DiagramSyntaxError.
Referencing an undeclared element in an edge declares it with the family's
default class; explicit duplicate declarations are rejected.
"""

from __future__ import annotations

import functools
import re

from ..errors import DiagramSyntaxError, UnsupportedConstructError
from .types import DiagramEdge, DiagramElement, _Sheet, _significant_lines
from .vocabulary import PLANTUML, PSEUDO_STATE, alternation, arrow_classes, identifier

_FAMILIES = PLANTUML.families
_IDENT = identifier(PLANTUML.ident)
_COMMENT = re.compile(r"^\s*" + re.escape(PLANTUML.comment))
_ARROWS = {family: arrow_classes(spec) for family, spec in _FAMILIES.items()}
_DEFAULT = {family: spec.elements[0] for family, spec in _FAMILIES.items()}

_NAMED = rf"(?:\"([^\"]+)\"\s+as\s+({_IDENT})|({_IDENT}))"  # "Display" as id, or id
_RE_DECL = {  # a package is declared by its own block form
    family: re.compile(rf"^{alternation(set(spec.elements) - {PLANTUML.package})}\s+{_NAMED}$")
    for family, spec in _FAMILIES.items() if family != "class"
}
_RE_BRACKET = re.compile(rf"^{PLANTUML.literal}(?:\s+as\s+({_IDENT}))?$")
_RE_PACKAGE = re.compile(rf"^{PLANTUML.package}\s+(?:\"([^\"]+)\"|({_IDENT}))\s*\{{$")
_RE_CLASS_DECL = re.compile(rf"^{alternation(_FAMILIES['class'].elements)}\s+({_IDENT})\s*(\{{)?$")

# Each family's edge line: source, arrow, target, then a label after a colon,
# which a labelled family's edges carry and every other edge may.
_ENDPOINT = {  # an identifier, unless the family has its own endpoints too
    "component": rf"{PLANTUML.literal}|({_IDENT})",
    "state": rf"{re.escape(PSEUDO_STATE)}|{_IDENT}",
}


def _edge(family: str, arrows) -> str:
    endpoint = _ENDPOINT.get(family, _IDENT)
    return rf"({endpoint})\s*{alternation(arrows)}\s*({endpoint})"


_LABEL = {True: r"\s*:\s*(\S.*)$", False: r"(?:\s*:\s*(\S.*))?$"}
_RE_EDGE = {family: re.compile(f"^{_edge(family, _ARROWS[family])}{_LABEL[spec.labelled]}")
            for family, spec in _FAMILIES.items()}

# Detection, one line at a time: the first family, in table order, that the
# line alone selects. A line selects a family by a keyword no other family
# declares, by an edge drawn with one of the family's own arrows (up to the
# colon, if its edges are labelled), or by an endpoint only the family has.
_MARK = {"state": rf"(?:.* )?{re.escape(PSEUDO_STATE)}", "component": PLANTUML.literal}


def _selector(family: str) -> str:
    spec = _FAMILIES[family]
    own = [k for k in spec.elements if sum(k in f.elements for f in _FAMILIES.values()) == 1]
    forms = [rf"{alternation(own)}(?!\S)"]
    if spec.own:
        forms.append(_edge(family, spec.own) + (r"\s*:" if spec.labelled else ""))
    if family in _MARK:
        forms.append(_MARK[family])
    return f"(?P<{family}>{'|'.join(forms)})"


_RE_FAMILY = re.compile("|".join(map(_selector, _FAMILIES)))


class _PlantUmlSheet(_Sheet):
    """An id is declared explicitly once; an edge may name it first, implicitly."""

    def declare(self, local_id: str, display: str, cls: str, line: int,
                implicit: bool = False) -> None:
        existing = self.elements.get(local_id)
        if existing is not None:
            if not implicit and not existing["implicit"]:
                raise DiagramSyntaxError(line, 1, f"unique element id ({local_id!r} already declared)")
            if existing["implicit"] and not implicit:
                existing.update(display=display, cls=cls, implicit=False)
            return
        self.elements[local_id] = {
            "display": display, "cls": cls, "implicit": implicit,
            "members": [],
        }
        self.order.append(local_id)


def _frame(text: str) -> list[tuple[int, str]]:
    start, end = PLANTUML.frame
    lines = _significant_lines(text, _COMMENT)
    if not lines or lines[0][1] != start:
        bad_line = lines[0][0] if lines else 1
        raise DiagramSyntaxError(bad_line, 1, start)
    body = lines[1:]
    if not body or body[-1][1] != end:
        last = lines[-1][0] + 1
        raise DiagramSyntaxError(last, 1, end)
    return body[:-1]


def detect_family(text: str) -> str:
    """Pick the grammar family of a text, framed or not: see _family_of."""
    try:
        body = _frame(text)
    except DiagramSyntaxError:
        body = _significant_lines(text, _COMMENT)
    return _family_of(body)


def _family_of(body: list[tuple[int, str]]) -> str:
    """The family of the first line that selects one; component, the last in
    the order, is also the default."""
    for _, line in body:
        m = _RE_FAMILY.match(line)
        if m:
            return m.lastgroup
    return "component"


def _unsupported_check(line: str, lineno: int) -> None:
    word = line.split(None, 1)[0].lower() if line else ""
    if word in PLANTUML.unsupported or line.startswith("!"):
        raise UnsupportedConstructError(word or line, lineno)


def _parse_component(body: list[tuple[int, str]]) -> _PlantUmlSheet:
    sheet = _PlantUmlSheet()
    package_stack: list[str] = []
    default, arrows = _DEFAULT["component"], _ARROWS["component"]
    declaration, edge = _RE_DECL["component"], _RE_EDGE["component"]
    for lineno, line in body:
        m = _RE_PACKAGE.match(line)
        if m:
            name = m.group(1) or m.group(2)
            sheet.declare(name, name, PLANTUML.package, lineno)
            if package_stack:
                sheet.edge(package_stack[-1], name, "containment", "")
            package_stack.append(name)
            continue
        if line == "}":
            if not package_stack:
                raise DiagramSyntaxError(lineno, 1, "open package block before '}'")
            package_stack.pop()
            continue
        if m := declaration.match(line):
            keyword, display, alias, bare = m.groups()
            local = alias or bare
            sheet.declare(local, display or bare, keyword, lineno)
        elif m := _RE_BRACKET.match(line):
            display, alias = m.groups()
            local = alias or display
            sheet.declare(local, display, default, lineno)
        elif m := edge.match(line):
            _, src_name, src, arrow, _, tgt_name, tgt, label = m.groups()
            s, t = src_name or src, tgt_name or tgt
            sheet.declare(s, s, default, lineno, implicit=True)
            sheet.declare(t, t, default, lineno, implicit=True)
            sheet.edge(s, t, arrows[arrow], label or "")
            continue
        else:
            _unsupported_check(line, lineno)
            raise DiagramSyntaxError(lineno, 1, "component declaration, package block, or edge")
        if package_stack:
            sheet.edge(package_stack[-1], local, "containment", "")
    if package_stack:
        raise DiagramSyntaxError(body[-1][0] + 1, 1, "'}' closing package block")
    return sheet


def _parse_class(body: list[tuple[int, str]]) -> _PlantUmlSheet:
    sheet = _PlantUmlSheet()
    open_class: str | None = None
    default, arrows, edge = _DEFAULT["class"], _ARROWS["class"], _RE_EDGE["class"]
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
            sheet.declare(name, name, keyword, lineno)
            if brace:
                open_class = name
            continue
        m = edge.match(line)
        if m:
            src, arrow, tgt, label = m.groups()
            sheet.declare(src, src, default, lineno, implicit=True)
            sheet.declare(tgt, tgt, default, lineno, implicit=True)
            sheet.edge(src, tgt, arrows[arrow], label or "")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, "class declaration or relationship")
    if open_class is not None:
        raise DiagramSyntaxError(body[-1][0] + 1, 1, "'}' closing class body")
    return sheet


def _parse_flat(family: str, expected: str, body: list[tuple[int, str]]) -> _PlantUmlSheet:
    """Sequence and state: declarations and edges, nothing nested. [*] is a
    state diagram's initial state as a source and its final one as a target."""
    sheet = _PlantUmlSheet()
    default, arrows = _DEFAULT[family], _ARROWS[family]
    declaration, edge = _RE_DECL[family], _RE_EDGE[family]

    def endpoint(token: str, pseudo: str, lineno: int) -> str:
        local, cls = (pseudo, pseudo) if token == PSEUDO_STATE else (token, default)
        sheet.declare(local, local, cls, lineno, implicit=True)
        return local

    for lineno, line in body:
        m = declaration.match(line)
        if m:
            keyword, display, alias, bare = m.groups()
            sheet.declare(alias or bare, display or bare, keyword, lineno)
            continue
        m = edge.match(line)
        if m:
            src, arrow, tgt, label = m.groups()
            s = endpoint(src, "initial", lineno)
            t = endpoint(tgt, "final", lineno)
            sheet.edge(s, t, arrows[arrow], label or "")
            continue
        _unsupported_check(line, lineno)
        raise DiagramSyntaxError(lineno, 1, expected)
    return sheet


_FAMILY_PARSERS = {
    "component": _parse_component,
    "class": _parse_class,
    "sequence": functools.partial(_parse_flat, "sequence", "participant declaration or message"),
    "state": functools.partial(_parse_flat, "state", "state declaration or transition"),
}


def parse_plantuml(text: str) -> tuple[str, list[DiagramElement], list[DiagramEdge]]:
    """Parse one PlantUML artifact into (family, elements, edges).

    A class's member lines land in its element's properties["members"].
    Raises DiagramSyntaxError or UnsupportedConstructError on any deviation.
    """
    body = _frame(text)
    family = _family_of(body)
    sheet = _FAMILY_PARSERS[family](body)
    return family, sheet.diagram_elements(), sheet.edges
