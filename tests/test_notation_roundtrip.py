"""Rendered views parse back: every lenient view of a seeded corpus parses, and
parse_diagram's full result over the corpus and the desk models is pinned, as
is the model each parsed view lifts to."""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from archmeta.diagrams import DiagramType, dumps_model, lift_to_metamodel, parse_diagram
from archmeta.diagrams.render import render_diagram_view, view_format
from archmeta.errors import ArchmetaError, UnrepresentableConstructError
from tests.support.strategies import random_containment_dag, random_model, random_nested_model


@functools.cache
def corpus() -> tuple:
    """(name, model) for 60 seeds of each random generator."""
    return tuple(
        (f"{gen.__name__}/{seed}", gen(random.Random(seed)))
        for gen in (random_model, random_nested_model, random_containment_dag)
        for seed in range(60)
    )


def test_every_lenient_view_parses():
    failed = []
    for name, model in corpus():
        for dtype in DiagramType:
            diagram = parse_diagram(render_diagram_view(model, dtype), view_format(dtype), dtype)
            if not diagram.parsed:
                failed.append(f"{name} {dtype.value}: {diagram.failure_reason}")
    assert failed == []


@pytest.mark.parametrize("strict", [False, True])
def test_an_er_column_type_with_parentheses_survives_the_cycle(strict):
    text = "erDiagram\n  ORDER {\n    varchar(10) name\n  }\n"
    dtype = DiagramType.DataModelSchema
    model = lift_to_metamodel([("er", parse_diagram(text, "mermaid", dtype))])
    again = parse_diagram(render_diagram_view(model, dtype, strict), "mermaid", dtype)
    assert [e.properties.get("members") for e in again.elements] == [("name (varchar(10))",)]


def describe(diagram) -> str:
    """Everything parse_diagram returns but the source digest, one line per record."""
    lines = [repr((diagram.format.value, diagram.type and diagram.type.value,
                   diagram.parse_status, diagram.failure_reason))]
    lines += [repr((e.local_id, e.element_class, e.display_name, e.properties.get("members", ())))
              for e in diagram.elements]
    lines += [repr((e.source, e.target, e.edge_class, e.label)) for e in diagram.edges]
    return "\n".join(lines)


def views(models):
    """(key, parsed view) for every strict and lenient view of each model;
    a strict render that raises contributes its error instead."""
    for name, model in models:
        for dtype in DiagramType:
            for strict in (False, True):
                key = f"{name}|{dtype.value}|{strict}"
                try:
                    text = render_diagram_view(model, dtype, strict)
                except UnrepresentableConstructError as exc:
                    yield key, f"raised: {exc}"
                    continue
                yield key, parse_diagram(text, view_format(dtype), dtype)


def parse_entries(models):
    """(key, described parse) for every view of views(models)."""
    for key, view in views(models):
        yield key, view if isinstance(view, str) else describe(view)


def lift_entries(models):
    """(key, canonical JSON of the lifted model) for every parsed view of
    views(models); a lift that raises contributes its error instead."""
    for key, view in views(models):
        if isinstance(view, str) or not view.parsed:
            continue
        try:
            yield key, dumps_model(lift_to_metamodel([(key, view)]))
        except ArchmetaError as exc:
            yield key, f"raised {type(exc).__name__}: {exc}"


def digest_of(entries) -> str:
    digest = hashlib.sha256()
    for key, entry in entries:
        digest.update(f"{key}\0{entry}\0".encode())
    return digest.hexdigest()


def desk(original_model, process_a_model, process_b_model) -> list:
    return [("original", original_model), ("process_a", process_a_model),
            ("process_b", process_b_model)]


# sha256 over parse_entries of the three desk models and the corpus above
PARSED_DIGEST = "989fcff89ddb08d0c0e0f24901d0d9386767e8546e4548e0ac4f3a0ba85a266b"
# sha256 over lift_entries of the same models
LIFTED_DIGEST = "f74dc69c1a1d53409d5cead71e3e6d77d68750b5c1d922908ac9907ae1980dab"


def test_parsed_views_are_pinned(original_model, process_a_model, process_b_model):
    models = desk(original_model, process_a_model, process_b_model) + list(corpus())
    assert digest_of(parse_entries(models)) == PARSED_DIGEST


def test_lifted_views_are_pinned(original_model, process_a_model, process_b_model):
    models = desk(original_model, process_a_model, process_b_model) + list(corpus())
    assert digest_of(lift_entries(models)) == LIFTED_DIGEST
