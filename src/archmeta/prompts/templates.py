"""Transformation prompt templates for the two regeneration workflows.

Workflow A moves between plain-text artifacts (code, technical docs,
business docs); workflow B carries machine-readable diagrams alongside the
text at every stage. The eight bodies live as data files so editing one is
a reviewable data change, not a code change. Placeholders look like
[INSERT TD + DIAGRAMS] and normalize to snake_case slot names
(td_and_diagrams); rendering substitutes slots verbatim and touches nothing
else.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from ..errors import MissingSlotError, UnknownStageError

PROCESSES = ("A", "B")
STAGES = ("code-to-td", "td-to-bd", "bd-to-td", "td-to-code")

_SLOT = re.compile(r"\[INSERT ([^\]]+)\]")


def slot_name(placeholder: str) -> str:
    """[INSERT CODE / MODULES / REPO] -> code; [INSERT TD + DIAGRAMS] -> td_and_diagrams."""
    first_alternative = placeholder.split("/")[0].strip()
    joined = first_alternative.replace(" + ", "_and_").replace("+", "_and_")
    return re.sub(r"\s+", "_", joined.strip()).lower()


@dataclass(frozen=True)
class PromptTemplate:
    process: str
    stage: str
    body: str
    slots: tuple[str, ...]
    mandatory_sections: tuple[str, ...]


def _canonical_stage(stage: str) -> str:
    token = stage.strip().lower().replace("→", "-to-").replace("->", "-to-")
    token = re.sub(r"-+", "-", token.replace(" ", "-"))
    return token


def load_template(process: str, stage: str) -> PromptTemplate:
    """Read templates/<process>_<stage>.txt (A, code-to-td: a_code_to_td.txt)."""
    proc = process.strip().upper()
    stage_token = _canonical_stage(stage)
    if proc not in PROCESSES or stage_token not in STAGES:
        raise UnknownStageError(f"no template for process {process!r}, stage {stage!r}")
    body = (
        resources.files("archmeta.prompts")
        .joinpath("templates", f"{proc.lower()}_{stage_token.replace('-', '_')}.txt")
        .read_text("utf-8")
    )
    slots = tuple(dict.fromkeys(slot_name(m) for m in _SLOT.findall(body)))
    return PromptTemplate(
        process=proc,
        stage=stage_token,
        body=body,
        slots=slots,
        mandatory_sections=_headings(body),
    )


def all_templates() -> tuple[PromptTemplate, ...]:
    return tuple(load_template(p, s) for p in PROCESSES for s in STAGES)


def assemble_prompt(process: str, stage: str, inputs: Mapping[str, str]) -> str:
    """Fill every placeholder; unknown extra inputs are ignored."""
    template = load_template(process, stage)
    for slot in template.slots:
        if slot not in inputs:
            raise MissingSlotError(slot)

    def _sub(match: re.Match[str]) -> str:
        return inputs[slot_name(match.group(1))]

    return _SLOT.sub(_sub, template.body)


def _normalize_heading(line: str) -> str:
    text = line.strip()
    if text.startswith("•"):
        text = text[1:].strip()
    text = re.sub(r"\s*\([^)]*\)\s*:?\s*$", "", text)
    return text.rstrip(":").strip()


def _headings(body: str) -> tuple[str, ...]:
    """A template's mandatory headings, in order: the lines that are not
    bullets, end in a colon, and normalize to capitals with no lowercase
    letter ("RUNTIME (if specified):" -> RUNTIME)."""
    lines = (line.strip() for line in body.splitlines())
    names = (_normalize_heading(t) for t in lines if t.endswith(":") and not t.startswith("•"))
    return tuple(h for h in names if h == h.upper() != h.lower())


def missing_sections(rendered: str, template: PromptTemplate) -> tuple[str, ...]:
    """Mandatory headings not appearing exactly once in the rendered text."""
    counts: dict[str, int] = {h: 0 for h in template.mandatory_sections}
    for line in rendered.splitlines():
        heading = _normalize_heading(line)
        if heading in counts:
            counts[heading] += 1
    return tuple(h for h, n in counts.items() if n != 1)


def prompt_filename(process: str, stage: str, rendered: str) -> str:
    """The default output name: process, stage and the first 12 hex digits of
    the rendered prompt's sha256, so identical runs write the same file."""
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:12]
    return f"{process.strip().upper()}_{_canonical_stage(stage)}_{digest}.prompt.txt"
