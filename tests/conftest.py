"""Shared fixtures: the committed desk models, a CLI invocation helper, and a
record of the texts the diagram parsers get."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import pytest

from archmeta.cli import main
from archmeta.diagrams import loads_model, parse

DESK_DIR = Path(__file__).parent / "fixtures" / "desk"


@pytest.fixture(scope="session")
def desk_dir() -> Path:
    return DESK_DIR


@pytest.fixture(scope="session")
def original_model():
    return loads_model((DESK_DIR / "original.archmeta.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def process_b_model():
    return loads_model((DESK_DIR / "process_b.archmeta.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def process_a_model():
    return loads_model((DESK_DIR / "process_a.archmeta.json").read_text("utf-8"))


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def invoke(*argv: str) -> CliResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code=code, out=stdout.getvalue(), err=stderr.getvalue())


@pytest.fixture()
def cli():
    return invoke


@pytest.fixture()
def parses(monkeypatch) -> list[str]:
    """Every text the PlantUML and Mermaid parsers get from here on, with the
    record of parse outcomes emptied first."""
    monkeypatch.setattr(parse, "_outcomes", {})
    seen: list[str] = []
    for name in ("parse_plantuml", "parse_mermaid"):
        real = getattr(parse, name)

        def counting(text: str, real=real):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(parse, name, counting)
    return seen
