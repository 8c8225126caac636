"""Prompt templates, slot assembly, and architectural context blocks."""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from archmeta.diagrams import DiagramType
from archmeta.errors import MissingSlotError, UnknownPurposeError, UnknownStageError
from archmeta.model import (
    Constraint,
    ConstraintKind,
    DiagramRef,
    Entity,
    EntityKind,
    build_metamodel,
)
from archmeta.prompts.context import (
    PURPOSE_DIAGRAMS,
    describe_constraint,
    render_context_block,
    section_end_marker,
    section_marker,
    select_diagram_set,
)
from archmeta.prompts.templates import (
    PROCESSES,
    STAGES,
    all_templates,
    assemble_prompt,
    load_template,
    missing_sections,
    prompt_filename,
    slot_name,
)

GOLDEN_DIR = Path(__file__).parent / "goldens" / "prompts"


# ---------------------------------------------------------------- templates


def test_eight_templates_exist():
    templates = all_templates()
    assert len(templates) == 8
    assert {(t.process, t.stage) for t in templates} == {
        (p, s) for p in PROCESSES for s in STAGES
    }
    for t in templates:
        assert t.body.strip()
        assert t.slots, (t.process, t.stage)
        assert t.mandatory_sections


def test_template_files_follow_the_naming_rule():
    # load_template reads <process>_<stage>.txt; a file outside the rule would go unread
    folder = resources.files("archmeta.prompts").joinpath("templates")
    assert sorted(f.name for f in folder.iterdir() if f.name.endswith(".txt")) == sorted(
        f"{p.lower()}_{s.replace('-', '_')}.txt" for p in PROCESSES for s in STAGES
    )


@pytest.mark.parametrize("process", PROCESSES)
@pytest.mark.parametrize("stage", STAGES)
def test_mandatory_sections_are_distinct_template_headings(process, stage):
    sections = load_template(process, stage).mandatory_sections
    assert sections
    assert len(set(sections)) == len(sections)


def test_mandatory_sections_skip_bullets_and_drop_parentheticals():
    # "• Business Diagrams:" is a bullet; "PATTERN LAYER (ONLY if derivable):"
    # and "RUNTIME (if specified):" are headings without their parentheticals
    assert load_template("B", "bd-to-td").mandatory_sections == (
        "INPUT", "TASK", "MANDATORY DIAGRAMS", "SYSTEM STRUCTURE", "PATTERN LAYER",
        "IMPLEMENTATION LAYER", "BEHAVIORAL LAYER", "RUNTIME", "STRICT RULES", "OUTPUT",
    )


def test_slot_name_normalization():
    assert slot_name("CODE / MODULES / REPO") == "code"
    assert slot_name("TD + DIAGRAMS") == "td_and_diagrams"
    assert slot_name("BD + DIAGRAMS") == "bd_and_diagrams"
    assert slot_name("TD") == "td"
    assert slot_name("BUSINESS  DOCS") == "business_docs"


def test_stage_spelling_variants_resolve():
    canonical = load_template("B", "td-to-bd")
    for spelling in ("TD → BD", "td -> bd", " TD-TO-BD ", "td to bd"):
        assert load_template("b", spelling).body == canonical.body
    with pytest.raises(UnknownStageError):
        load_template("A", "bd-to-code")
    with pytest.raises(UnknownStageError):
        load_template("C", "td-to-bd")


@pytest.mark.parametrize("process", PROCESSES)
@pytest.mark.parametrize("stage", STAGES)
def test_rendered_templates_match_goldens_byte_for_byte(process, stage):
    template = load_template(process, stage)
    inputs = {slot: f"<<{slot}>>" for slot in template.slots}
    rendered = assemble_prompt(process, stage, inputs)
    golden = (GOLDEN_DIR / f"{process}_{stage}.golden.txt").read_text("utf-8")
    assert rendered == golden
    assert assemble_prompt(process, stage, inputs) == rendered


@pytest.mark.parametrize("process", PROCESSES)
@pytest.mark.parametrize("stage", STAGES)
def test_every_mandatory_heading_appears_exactly_once(process, stage):
    template = load_template(process, stage)
    rendered = assemble_prompt(
        process, stage, {slot: "(payload)" for slot in template.slots}
    )
    assert missing_sections(rendered, template) == ()


def test_missing_sections_flags_absence_and_duplication():
    template = load_template("A", "code-to-td")
    rendered = assemble_prompt("A", "code-to-td", {"code": "x"})
    gone = rendered.replace("TASK:", "WORK:", 1)
    assert "TASK" in missing_sections(gone, template)
    doubled = rendered + "\nTASK:\n"
    assert "TASK" in missing_sections(doubled, template)


def test_assemble_substitutes_verbatim_and_ignores_extras():
    payload = "line one\n  [not a slot]\nline two"
    rendered = assemble_prompt("A", "td-to-bd", {"td": payload, "unused": "x"})
    assert payload in rendered
    assert "[INSERT" not in rendered


def test_assemble_requires_every_slot():
    with pytest.raises(MissingSlotError) as err:
        assemble_prompt("B", "td-to-bd", {"td": "text"})
    assert "td_and_diagrams" in str(err.value)


def test_prompt_filename_is_derived_from_the_prompt():
    digest = hashlib.sha256("rendered prompt\n".encode("utf-8")).hexdigest()[:12]
    name = prompt_filename("b", "TD → BD", "rendered prompt\n")
    assert name == f"B_td-to-bd_{digest}.prompt.txt"
    assert prompt_filename("B", "td-to-bd", "rendered prompt\n") == name
    assert prompt_filename("b", "TD → BD", "another prompt\n") != name


# ---------------------------------------------------------------- context


def test_purpose_catalog_and_selection(original_model):
    assert set(PURPOSE_DIAGRAMS) == {
        "scope",
        "business-alignment",
        "service-structure",
        "api-workflow",
        "schema-migration",
        "deployment-config",
    }
    assert select_diagram_set(original_model, "service-structure") == [
        DiagramType.SystemContainer,
        DiagramType.ComponentView,
    ]
    # no deployment nodes exist, so only the runtime half survives
    assert select_diagram_set(original_model, "deployment-config") == [
        DiagramType.RuntimeTopology
    ]
    with pytest.raises(UnknownPurposeError):
        select_diagram_set(original_model, "marketing")


def test_attached_diagram_refs_make_a_type_available():
    model = build_metamodel(
        system="s",
        entities=[Entity(id="st", kind=EntityKind.Stakeholder, name="Ops")],
        diagrams=[
            DiagramRef(
                name="d.puml",
                type="DeploymentInfrastructure",
                format="plantuml",
                source_digest="0" * 64,
            )
        ],
    )
    assert select_diagram_set(model, "deployment-config") == [
        DiagramType.DeploymentInfrastructure
    ]


def test_describe_constraint_every_kind():
    texts = {
        kind: describe_constraint(Constraint(id=f"c-{kind.value}", kind=kind))
        for kind in ConstraintKind
    }
    assert texts[ConstraintKind.dependency_direction].startswith("[c-dependency-direction]")
    assert "Implementation -> System -> Business" in texts[ConstraintKind.dependency_direction]
    assert "free of cycles" in texts[ConstraintKind.acyclicity]
    assert "dependency" in texts[ConstraintKind.acyclicity]
    assert "bounded-context" in texts[ConstraintKind.context_isolation]
    assert "command side" in texts[ConstraintKind.cqrs_separation]
    assert "container boundaries" in texts[ConstraintKind.interface_mediation]

    scoped = describe_constraint(
        Constraint(
            id="walls",
            kind=ConstraintKind.layer_boundary,
            scope={"layers": ("Implementation",), "entities": ("cls-a",)},
            params={"allowed_targets": ["System"]},
        )
    )
    assert "targets in layers: System" in scoped
    assert "within layers Implementation" in scoped
    assert "for entities cls-a" in scoped

    grouped = describe_constraint(
        Constraint(
            id="dir",
            kind=ConstraintKind.dependency_direction,
            params={"groups": [
                {"name": "outer", "layers": ["Implementation"]},
                {"name": "inner", "layers": ["Business"]},
            ]},
        )
    )
    assert "outer -> inner" in grouped


def test_context_block_sections_in_order(original_model):
    block = render_context_block(
        original_model,
        [DiagramType.ComponentView, DiagramType.SystemContainer, DiagramType.DeploymentInfrastructure],
    )
    text = block.to_text()
    order = [
        text.index(section_marker(name))
        for name in ("INSTRUCTIONS", "CANONICAL CONTEXT", "DIAGRAMS", "INVARIANTS", "UNCERTAINTY")
    ]
    assert order == sorted(order)
    for name in ("INSTRUCTIONS", "CANONICAL CONTEXT", "DIAGRAMS", "INVARIANTS", "UNCERTAINTY"):
        assert text.count(section_marker(name)) == 1
        assert text.count(section_end_marker(name)) == 1
    assert text.endswith("\n")
    # canonical payload is embedded whole
    assert '"schema_version": "1.0"' in text
    # the underivable view lands in uncertainty, not diagrams
    assert any("DeploymentInfrastructure" in note for note in block.uncertainty_notes)
    assert all(dtype is not DiagramType.DeploymentInfrastructure for _, dtype, _ in block.diagram_sections)
    # both remaining views share a layer; the requested order breaks the tie
    assert [dtype for _, dtype, _ in block.diagram_sections] == [
        DiagramType.ComponentView,
        DiagramType.SystemContainer,
    ]


def test_context_block_carries_constraint_declarations(original_model):
    block = render_context_block(original_model, [DiagramType.SystemContainer])
    assert len(block.invariance_declarations) == len(original_model.constraints)
    assert any(decl.startswith("[containers-via-api]") for decl in block.invariance_declarations)


def test_context_block_is_byte_stable(original_model):
    once = render_context_block(original_model, [DiagramType.SystemContainer]).to_text()
    twice = render_context_block(original_model, [DiagramType.SystemContainer]).to_text()
    assert once == twice


def test_context_block_empty_sections_render_placeholders():
    model = build_metamodel(
        system="bare",
        entities=[Entity(id="st", kind=EntityKind.Stakeholder, name="Ops")],
    )
    text = render_context_block(model, []).to_text()
    assert "(none)" in text
    assert "(none declared)" in text
