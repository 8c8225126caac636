"""The notation tables in diagrams/vocabulary.py: every arrow a table lists
parses back to its edge class, PlantUML family detection follows the tables,
and commands that neither parse nor render never load them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import archmeta
from archmeta.diagrams.mermaid import parse_mermaid
from archmeta.diagrams.plantuml import detect_family, parse_plantuml
from archmeta.diagrams.vocabulary import MERMAID, PLANTUML
from archmeta.metrics.scores import score_report


@pytest.mark.parametrize("family", list(PLANTUML.families))
def test_every_plantuml_arrow_parses_back_to_its_edge_class(family):
    spec = PLANTUML.families[family]
    for cls, arrows in spec.edges.items():
        for arrow in arrows:
            start, end = PLANTUML.frame
            keyword = spec.elements[0]
            text = f"{start}\n{keyword} a\n{keyword} b\na {arrow} b : text\n{end}\n"
            parsed_family, _, edges = parse_plantuml(text)
            assert (parsed_family, [e.edge_class for e in edges]) == (family, [cls]), arrow


@pytest.mark.parametrize("family", list(MERMAID.families))
def test_every_mermaid_arrow_parses_back_to_its_edge_class(family):
    spec = MERMAID.families[family]
    head = MERMAID.heads[family][0] + (f" {MERMAID.directions[0]}" if family == "graph" else "")
    for cls, arrows in spec.edges.items():
        for arrow in arrows:
            text = f"{head}\na {arrow} b" + (" : text" if spec.labelled else "")
            parsed_family, _, edges = parse_mermaid(text)
            assert (parsed_family, [e.edge_class for e in edges]) == (family, [cls]), arrow


@pytest.mark.parametrize("line, family", [
    ("a --|> b", "class"),
    ("class a", "class"),
    ("a ->> b : m", "sequence"),
    ("a -> b : m", "sequence"),
    ("participant a", "sequence"),
    ("[*] --> s", "state"),
    ("s --> [*]", "state"),
    ("[A] --> [B]", "component"),
    ("queue q", "component"),
    # shared by several families: the line leaves the family open
    ("actor a", "component"),
    ("interface i", "component"),
    ("a --> b", "component"),
    ("a -> b", "component"),
])
def test_a_line_selects_the_family_whose_own_keyword_or_arrow_it_holds(line, family):
    start, end = PLANTUML.frame
    assert detect_family(f"{start}\n{line}\n{end}\n") == family


def test_only_commands_that_parse_or_render_load_the_vocabulary(desk_dir, tmp_path):
    raw = dict.fromkeys(("C", "SF", "K", "TC", "MR", "LCE", "CPC"), 0.5)
    fragment = tmp_path / "a.json"
    fragment.write_text(score_report(raw).to_canonical_fragment())
    view = tmp_path / "view.puml"
    view.write_text("@startuml\ncomponent a\n@enduml\n")
    model = str(desk_dir / "process_b.archmeta.json")
    root, rules = str(desk_dir / "codebase"), str(desk_dir / "rules.txt")
    code = (
        "import contextlib, io, sys\n"
        "from archmeta.cli import main\n"
        "loaded = lambda: 'archmeta.diagrams.vocabulary' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['validate', '--model', {model!r}])\n"
        f"    main(['extract', '--root', {root!r}, '--rules', {rules!r}])\n"
        f"    main(['report', '--a', {str(fragment)!r}, '--b', {str(fragment)!r}])\n"
        "    before = loaded()\n"
        f"    main(['parse', {str(view)!r}])\n"
        "print(before, loaded())\n"
    )
    src_root = Path(archmeta.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src_root)})
    assert proc.stdout.split() == ["False", "True"], proc.stderr
