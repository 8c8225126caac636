"""Traceability slots, coverage math, and matrix export."""

from __future__ import annotations

import hashlib
import random

import pytest

from archmeta.errors import NoTraceableEntitiesError
from archmeta.model import (
    Entity,
    EntityKind,
    MappingClass,
    Metamodel,
    TraceLink,
    build_metamodel,
)
from archmeta.traces import (
    UNMAPPED,
    matrix_to_tsv,
    trace_matrix,
    traceability_coverage,
)
from tests import oracles
from tests.support.strategies import random_model


def _model(entities, traces=()):
    return build_metamodel(
        system="t",
        entities=[Entity(id=i, kind=k, name=n) for i, k, n in entities],
        traces=traces,
    )


_BASE = [
    ("cap-1", EntityKind.BusinessCapability, "Selling"),
    ("cap-2", EntityKind.BusinessCapability, "Billing"),
    ("dom-1", EntityKind.DomainEntity, "Order"),
    ("comp-1", EntityKind.Component, "Cart"),
    ("proc-1", EntityKind.BusinessProcess, "Checkout"),
    ("cont-1", EntityKind.Container, "Shop App"),
    ("tbl-1", EntityKind.Table, "orders"),
    ("mod-1", EntityKind.Module, "cart"),
    ("int-1", EntityKind.Interaction, "Place Order"),
]


def test_every_mapping_class_counts_its_own_slots():
    report = traceability_coverage(_model(_BASE))
    totals = {c.mapping_class: c.total for c in report.per_class}
    assert totals == {
        MappingClass.capability_container: 2,
        MappingClass.domain_entity_data_schema: 1,
        MappingClass.component_code_module: 1,
        MappingClass.process_interaction: 1,
    }
    assert report.slots_total == 5
    assert report.slots_filled == 0
    assert report.coverage == 0.0


def test_links_fill_slots_in_either_orientation():
    traces = [
        TraceLink(source="cap-1", target="cont-1", mapping_class=MappingClass.capability_container),
        TraceLink(source="tbl-1", target="dom-1", mapping_class=MappingClass.domain_entity_data_schema),
        TraceLink(source="comp-1", target="mod-1", mapping_class=MappingClass.component_code_module),
    ]
    report = traceability_coverage(_model(_BASE, traces))
    assert report.slots_filled == 3
    assert report.coverage == oracles.oracle_coverage(3, 5)
    unfilled = {c.mapping_class: c.unfilled_ids for c in report.per_class}
    assert unfilled[MappingClass.capability_container] == ("cap-2",)
    assert unfilled[MappingClass.process_interaction] == ("proc-1",)


def test_duplicate_links_fill_a_slot_once():
    traces = [
        TraceLink(source="cap-1", target="cont-1", mapping_class=MappingClass.capability_container),
        TraceLink(source="cont-1", target="cap-1", mapping_class=MappingClass.capability_container),
    ]
    report = traceability_coverage(_model(_BASE, traces))
    assert report.slots_filled == 1


def test_invalid_links_are_carried_but_never_fill():
    traces = [
        # a process linked as if it were a capability mapping
        TraceLink(source="proc-1", target="cont-1", mapping_class=MappingClass.capability_container),
    ]
    model = _model(_BASE, traces)
    assert model.traces[0].validity.startswith("invalid:")
    report = traceability_coverage(model)
    assert report.slots_filled == 0
    assert len(report.invalid_links) == 1
    assert report.invalid_links[0].source == "proc-1"


def test_no_traceable_entities_is_an_error():
    plain = _model([("x", EntityKind.Stakeholder, "Ops")])
    with pytest.raises(NoTraceableEntitiesError):
        traceability_coverage(plain)


def test_matrix_rows_ordered_by_class_then_id():
    traces = [
        TraceLink(source="cap-2", target="cont-1", mapping_class=MappingClass.capability_container),
        TraceLink(source="int-1", target="proc-1", mapping_class=MappingClass.process_interaction),
    ]
    rows = trace_matrix(_model(_BASE, traces))
    assert [(r.mapping_class.value, r.source_id) for r in rows] == [
        ("capability-container", "cap-1"),
        ("capability-container", "cap-2"),
        ("domain-entity-data-schema", "dom-1"),
        ("component-code-module", "comp-1"),
        ("process-interaction", "proc-1"),
    ]
    by_id = {r.source_id: r for r in rows}
    assert by_id["cap-2"].targets == ("cont-1",)
    assert by_id["proc-1"].targets == ("int-1",)
    assert by_id["cap-1"].targets == ()


def test_matrix_tsv_shape():
    traces = [
        TraceLink(source="cap-1", target="cont-1", mapping_class=MappingClass.capability_container),
    ]
    text = matrix_to_tsv(trace_matrix(_model(_BASE, traces)))
    lines = text.splitlines()
    assert lines[0] == "mapping_class\tsource_id\tsource_name\ttargets"
    assert lines[1] == "capability-container\tcap-1\tSelling\tcont-1"
    assert f"\t{UNMAPPED}" in lines[2]
    assert text.endswith("\n")


def test_desk_models_reproduce_known_coverage(process_b_model, process_a_model):
    b = traceability_coverage(process_b_model)
    assert (b.slots_filled, b.slots_total) == (43, 50)
    a = traceability_coverage(process_a_model)
    assert (a.slots_filled, a.slots_total) == (29, 45)
    assert len(b.invalid_links) == len(a.invalid_links) == 1


def _described_coverage(model) -> str:
    """Per class: filled, total and unfilled ids, then the invalid-link count;
    a model without slots contributes its error instead."""
    try:
        report = traceability_coverage(model)
    except NoTraceableEntitiesError as exc:
        return f"raised: {exc}"
    lines = [repr((c.mapping_class.value, c.filled, c.total, c.unfilled_ids))
             for c in report.per_class]
    lines.append(f"invalid {len(report.invalid_links)}")
    return "\n".join(lines)


def _pinned_models(original_model, process_a_model, process_b_model):
    yield "original", original_model
    yield "process_a", process_a_model
    yield "process_b", process_b_model
    assembled = [
        # reversed orientation: the source-side capability is the target
        TraceLink(source="cont-1", target="cap-1", mapping_class=MappingClass.capability_container),
        TraceLink(source="cap-1", target="cont-2", mapping_class=MappingClass.capability_container),
        TraceLink(source="cap-1", target="tbl-1", mapping_class=MappingClass.capability_container),
        TraceLink(source="proc-1", target="cont-1", mapping_class=MappingClass.capability_container),
        TraceLink(source="int-1", target="proc-1", mapping_class=MappingClass.process_interaction),
    ]
    extra = [("cont-2", EntityKind.Container, "Billing App")]
    yield "assembled", _model(_BASE + extra, assembled)
    for seed in range(300):
        yield f"random_model/{seed}", random_model(random.Random(seed))


# sha256 over the described coverage and the TSV matrix of the three desk
# models, the assembled model above and 300 random_model seeds
TRACES_DIGEST = "9edee8259634d9a4652b1413358cad8334497a699c75b599d98e199cf07b4b2c"


def test_coverage_and_matrix_are_pinned(original_model, process_a_model, process_b_model):
    digest = hashlib.sha256()
    for name, model in _pinned_models(original_model, process_a_model, process_b_model):
        digest.update(f"{name}\0{_described_coverage(model)}\0".encode())
        digest.update(f"{matrix_to_tsv(trace_matrix(model))}\0".encode())
    assert digest.hexdigest() == TRACES_DIGEST
