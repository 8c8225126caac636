"""Rendered views parse back: every lenient view of a seeded corpus parses, and
parse_diagram's full result over the corpus and the desk models is pinned."""

from __future__ import annotations

import functools
import hashlib
import random

from archmeta.diagrams import DiagramType, parse_diagram
from archmeta.diagrams.render import render_diagram_view, view_format
from archmeta.errors import UnrepresentableConstructError
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


def describe(diagram) -> str:
    """Everything parse_diagram returns but the source digest, one line per record."""
    lines = [repr((diagram.format.value, diagram.type and diagram.type.value,
                   diagram.parse_status, diagram.failure_reason))]
    lines += [repr((e.local_id, e.element_class, e.display_name, e.properties.get("members", ())))
              for e in diagram.elements]
    lines += [repr((e.source, e.target, e.edge_class, e.label)) for e in diagram.edges]
    return "\n".join(lines)


def parse_entries(models):
    """(key, described parse) for every strict and lenient view of each model;
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
                yield key, describe(parse_diagram(text, view_format(dtype), dtype))


# sha256 over parse_entries of the three desk models and the corpus above
PARSED_DIGEST = "989fcff89ddb08d0c0e0f24901d0d9386767e8546e4548e0ac4f3a0ba85a266b"


def test_parsed_views_are_pinned(original_model, process_a_model, process_b_model):
    desk = [("original", original_model), ("process_a", process_a_model),
            ("process_b", process_b_model)]
    digest = hashlib.sha256()
    for key, entry in parse_entries(desk + list(corpus())):
        digest.update(f"{key}\0{entry}\0".encode())
    assert digest.hexdigest() == PARSED_DIGEST
