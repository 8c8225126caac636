"""PlantUML and Mermaid as archmeta writes and reads them: one table each.

Every keyword, arrow, node shape, header, frame line and comment prefix of
the two notations is spelled here once. render.py writes from these tables;
plantuml.py and mermaid.py build their regexes from them at import, and
plantuml.detect_family and parse.detect_format recognise a text by them.

A family lists its element classes in the order a renderer prefers them; the
first is also the class of an element an edge names before any declaration.
In PlantUML each element class is the keyword that declares it. Each edge
class lists the arrows that draw it: a renderer writes the first, a parser
reads them all.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Iterable, NamedTuple


class Family(NamedTuple):
    elements: tuple[str, ...]
    edges: dict[str, tuple[str, ...]]
    own: tuple[str, ...] = ()  # arrows whose edge line alone selects the family
    labelled: bool = False  # every edge carries a label, after a colon


def arrow_classes(family: Family) -> dict[str, str]:
    """arrow -> edge class, every arrow the family reads."""
    return {arrow: cls for cls, arrows in family.edges.items() for arrow in arrows}


def alternation(words: Iterable[str]) -> str:
    """A regex group matching any of words; longer words are tried first, so
    an arrow is never cut short at another arrow that is its prefix."""
    return "(" + "|".join(re.escape(w) for w in sorted(words, key=lambda w: (-len(w), w))) + ")"


def identifier(chars: str) -> str:
    """The regex of an identifier over chars, which starts with a letter or '_'."""
    return rf"[{IDENT_START}][{chars}]*"


IDENT_START = "A-Za-z_"
WORD = "A-Za-z0-9_"  # the characters of a PlantUML identifier or an ER column's name
PSEUDO_STATE = "[*]"  # in both notations, a state diagram's start (as a source) or end
_PACKAGE = "package"  # PlantUML's one block keyword: its body nests what it contains
_COLUMN_NAME = identifier(WORD)  # an ER column's name
_COLUMN_TYPE = identifier(WORD + "()")  # an ER column's type, such as varchar(20)

PLANTUML = SimpleNamespace(
    frame=("@startuml", "@enduml"),
    comment="'",
    ident=WORD,
    package=_PACKAGE,
    literal=r"\[([^\]\[]+)\]",  # [Name], a component declared by its name
    # in detection order: a text is of the first family one of its lines
    # selects; component comes last and is also the default
    families={
        "class": Family(("class", "interface"),
                        {"inheritance": ("--|>",), "association": ("-->", "->"),
                         "dependency": ("..>",)}, own=("--|>",)),
        "sequence": Family(("participant", "actor"),
                           {"message": ("->", "->>"), "reply": ("-->", "-->>")},
                           own=("->", "->>", "-->>"), labelled=True),
        "state": Family(("state",), {"transition": ("-->", "->")}),
        "component": Family(("component", "database", "actor", "interface", "queue", _PACKAGE),
                            {"dependency": ("-->", "..>", "->"), "containment": ()}),
    },
    # keywords of real PlantUML outside the bounded grammar
    unsupported=(
        "note", "title", "skinparam", "legend", "autonumber", "hide", "show",
        "scale", "newpage", "alt", "opt", "loop", "group", "box", "activate",
        "deactivate", "abstract", "enum", "object", "usecase", "cloud", "node",
        "folder", "frame", "rectangle", "!include", "!define", "left", "right",
    ),
)

MERMAID = SimpleNamespace(
    comment="%%",
    ident=WORD + "-",
    heads={
        "graph": ("graph", "flowchart"),
        "er": ("erDiagram",),
        "sequence": ("sequenceDiagram",),
        "state": ("stateDiagram-v2",),
    },
    directions=("TD", "TB", "LR", "RL", "BT"),  # a graph head's second word
    families={
        "graph": Family(("node", "database", "circle"), {"flow": ("-->",)}),
        "er": Family(("er_entity",), {"relationship": ("||--o{",)}, labelled=True),
        "sequence": Family(("participant", "actor"),
                           {"message": ("->", "->>"), "reply": ("-->", "-->>")}, labelled=True),
        "state": Family(("state",), {"transition": ("-->",)}),
    },
    # graph node shapes by element class: (opener, closer), the written one first
    shapes={
        "node": (("[", "]"), ("(", ")")),
        "database": (("[(", ")]"),),
        "circle": (("((", "))"),),
    },
    flow_label="|",  # encloses a flow's label: a -->|label| b
    statement_end=";",  # graph statements may share a line
    er_arrows=r"[|}o{]{2}--[|}o{]{2}",  # every relationship arrow read, cardinalities and all
    er_name=_COLUMN_NAME,
    er_type=_COLUMN_TYPE,
    er_member="{name} ({type})",  # a column, as a parsed entity keeps it in its members
    er_member_column=rf"({_COLUMN_NAME})\s*\(({_COLUMN_TYPE})\)",  # a member it can write
    unsupported=(
        "subgraph", "classdef", "class", "click", "style", "linkstyle", "note",
        "loop", "alt", "opt", "par", "rect", "activate", "deactivate",
        "autonumber", "direction", "accTitle", "accDescr",
    ),
)
