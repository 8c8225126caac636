"""The seven quality metrics against independent reference computations."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.diagrams import check_parsability
from archmeta.errors import (
    EmptyArtifactSetError,
    EmptyExpectedPatternsError,
    EmptyExpectedSetError,
    NoComparableGroupsError,
    OutOfRangeRawError,
)
from archmeta.metrics.delta import (
    NamedGraph,
    graph_delta,
    model_delta,
    named_dependency_graph,
)
from archmeta.metrics.embedding import (
    cosine,
    dense_vector,
    lexical_embed,
    tokenize,
)
from archmeta.metrics.scores import (
    METRIC_KEYS,
    METRIC_LABELS,
    completeness,
    completeness_ratio,
    constraint_effectiveness,
    document_groups,
    group_cosines,
    machine_readability,
    mean_cosine,
    ordinal_score,
    pattern_coverage,
    score_report,
    semantic_fidelity,
    semantic_fidelity_between,
)
from archmeta.model import Entity, EntityKind, Relation, RelationKind, build_metamodel
from tests import oracles
from tests.support.strategies import random_named_graph

_WORDS = (
    "order", "payment", "ledger", "cart", "invoice", "routes", "audit",
    "shipping", "refund", "catalog", "queue", "3d", "sync",
)


def _text(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


# ---------------------------------------------------------------- embedding


def test_tokenize_matches_reference_walk():
    sample = "Routes ORDERS, payments; 3d-sync\nledger"
    assert tokenize(sample) == oracles.oracle_tokens(sample)
    assert tokenize("") == []
    assert tokenize("...!!!") == []


def test_lexical_embed_counts_unigrams_and_bigrams():
    vec = lexical_embed("pay the pay gate")
    assert dict(vec.terms) == oracles.oracle_term_freq("pay the pay gate")
    assert vec.terms["pay"] == 2
    assert vec.terms["pay the"] == 1
    assert vec.terms["the pay"] == 1


def test_cosine_identity_is_exactly_one():
    for text in ("order", "routes orders payments billing shipping", _text(random.Random(7), 40)):
        assert cosine(lexical_embed(text), lexical_embed(text)) == 1.0


def test_cosine_zero_vector_and_disjoint_texts():
    zero = lexical_embed("")
    assert zero.is_zero
    assert cosine(zero, lexical_embed("order")) == 0.0
    assert cosine(lexical_embed("order cart"), lexical_embed("audit queue")) == 0.0


def test_cosine_agrees_with_reference_everywhere():
    rng = random.Random(1001)
    for _ in range(300):
        a = _text(rng, rng.randint(0, 12))
        b = _text(rng, rng.randint(0, 12))
        got = cosine(lexical_embed(a), lexical_embed(b))
        want = oracles.oracle_text_cosine(a, b)
        assert abs(got - want) <= 1e-12
        assert 0.0 <= got <= 1.0
        assert got == cosine(lexical_embed(b), lexical_embed(a))


def test_dense_vector_wraps_external_embeddings():
    a = dense_vector([1.0, 0.0, 2.0])
    assert set(a.terms) == {"0", "2"}
    assert cosine(a, dense_vector([1.0, 0.0, 2.0])) == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, dense_vector([0.0, 3.0, 0.0])) == 0.0


# ---------------------------------------------------------------- completeness


def test_completeness_ratio_and_clamp():
    assert completeness(50, 46) == oracles.oracle_completeness(50, 46)
    assert completeness(["a", "b"], 1) == 0.5
    assert completeness_ratio(4, 6) == 1.5
    assert completeness(4, 6) == 1.0


def test_completeness_guards():
    with pytest.raises(EmptyExpectedSetError):
        completeness(0, 0)
    with pytest.raises(EmptyExpectedSetError):
        completeness([], 0)
    with pytest.raises(ValueError):
        completeness(3, -1)


@given(st.integers(1, 200), st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_completeness_matches_oracle(expected, matched):
    assert completeness(expected, matched) == oracles.oracle_completeness(expected, matched)


# ---------------------------------------------------------------- fidelity


def _doc_model(*entities):
    return build_metamodel(
        system="m",
        entities=[
            Entity(id=f"e{n}", kind=k, name=name, description=desc)
            for n, (k, name, desc) in enumerate(entities)
        ],
    )


def test_document_groups_bucketing():
    model = _doc_model(
        (EntityKind.DomainEntity, "Order", "a placed order"),
        (EntityKind.DomainEntity, "Refund", ""),
        (EntityKind.Component, "Cart", "holds pending items"),
        (EntityKind.Container, "Shop", "serves the storefront"),
        (EntityKind.Component, "Mail", ""),  # no description, contributes nothing
        (EntityKind.ApiInterface, "Gateway Api", "routes calls"),
        (EntityKind.Stakeholder, "Ops", "ignored entirely"),
    )
    groups = document_groups(model)
    assert groups["domain-entities"] == "Order a placed order Refund"
    assert groups["component-responsibilities"] == "holds pending items serves the storefront"
    assert groups["api-contracts"] == "Gateway Api routes calls"


def test_semantic_fidelity_means_present_groups():
    original = {
        "domain-entities": "order refund",
        "component-responsibilities": "cart mail",
        "api-contracts": "",
    }
    regenerated = {
        "domain-entities": "order refund",
        "component-responsibilities": "cart ledger",
        "api-contracts": "gateway",  # empty on the original side: skipped
    }
    got = semantic_fidelity(original, regenerated)
    want = oracles.oracle_mean(
        [
            oracles.oracle_text_cosine("order refund", "order refund"),
            oracles.oracle_text_cosine("cart mail", "cart ledger"),
        ]
    )
    assert abs(got - want) <= 1e-12


def test_semantic_fidelity_accepts_custom_groups_and_embedders():
    original = {"notes": "alpha beta"}
    regenerated = {"notes": "alpha beta"}
    assert semantic_fidelity(original, regenerated) == 1.0
    flat = semantic_fidelity(original, {"notes": "gamma"}, embedder=lexical_embed)
    assert flat == 0.0


def test_semantic_fidelity_requires_a_shared_group():
    with pytest.raises(NoComparableGroupsError):
        semantic_fidelity({"domain-entities": "order"}, {"domain-entities": "  "})


def test_group_cosines_order_and_one_embedding_per_text():
    original = {
        "zeta": "alpha beta",
        "api-contracts": "gateway routes",
        "domain-entities": "order refund",
        "alpha": "cart mail",
        "component-responsibilities": "",
    }
    regenerated = {
        "domain-entities": "order",
        "api-contracts": "gateway routes",
        "alpha": "cart ledger",
        "zeta": "beta alpha",
        "component-responsibilities": "skipped: empty on the original side",
    }
    embedded: list[str] = []

    def counting(text):
        embedded.append(text)
        return lexical_embed(text)

    cosines = group_cosines(original, regenerated, counting)
    assert list(cosines) == ["domain-entities", "api-contracts", "alpha", "zeta"]
    assert len(embedded) == 2 * len(cosines)
    for name, value in cosines.items():
        assert value == cosine(lexical_embed(original[name]), lexical_embed(regenerated[name]))
    total = 0.0
    for value in cosines.values():
        total += value
    assert mean_cosine(cosines) == total / len(cosines)
    assert semantic_fidelity(original, regenerated) == total / len(cosines)


def test_group_cosines_requires_a_shared_group():
    with pytest.raises(NoComparableGroupsError):
        group_cosines({"domain-entities": "order"}, {"api-contracts": "order"})


def test_semantic_fidelity_between_desk_models(original_model, process_b_model):
    got = semantic_fidelity_between(original_model, process_b_model)
    want = oracles.oracle_mean([1.0, 23 / 25, 7 / 13])
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------- readability


def test_machine_readability_ratio():
    artifacts = check_parsability(
        [
            ("a.mmd", "graph TD\n x --> y\n"),
            ("b.mmd", "graph TD\n broken ===\n"),
            ("c.puml", "@startuml\n[A]\n@enduml\n"),
            ("d.puml", "@startuml\n[A]\n"),
        ]
    )
    assert machine_readability(artifacts) == oracles.oracle_readability(2, 4)


def test_machine_readability_requires_artifacts():
    with pytest.raises(EmptyArtifactSetError):
        machine_readability(check_parsability([]))


# ---------------------------------------------------------------- effectiveness


def test_constraint_effectiveness_known_points():
    assert constraint_effectiveness(2, 20) == oracles.oracle_effectiveness(2, 20)
    assert constraint_effectiveness(0, 5) == 1.0
    assert constraint_effectiveness(5, 5) == 0.0
    assert constraint_effectiveness(9, 5) == 0.0  # worse than baseline clamps
    assert constraint_effectiveness(0, 0) == 1.0
    assert constraint_effectiveness(3, 0) == 0.0
    with pytest.raises(ValueError):
        constraint_effectiveness(-1, 4)
    with pytest.raises(ValueError):
        constraint_effectiveness(1, -4)


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=120, deadline=None)
def test_constraint_effectiveness_matches_oracle(drift, baseline):
    got = constraint_effectiveness(drift, baseline)
    assert abs(got - oracles.oracle_effectiveness(drift, baseline)) <= 1e-12
    assert 0.0 <= got <= 1.0


# ---------------------------------------------------------------- patterns


def test_pattern_coverage_casefolds_and_ratios():
    got = pattern_coverage(["Layered", "CQRS", "repository"], ["layered", "cqrs"])
    assert got == oracles.oracle_pattern_coverage(
        ["Layered", "CQRS", "repository"], ["layered", "cqrs"]
    )
    assert pattern_coverage(["layered"], []) == 0.0
    assert pattern_coverage(["layered"], ["LAYERED", "extra"]) == 1.0
    with pytest.raises(EmptyExpectedPatternsError):
        pattern_coverage([], ["layered"])


# ---------------------------------------------------------------- ordinal


@pytest.mark.parametrize(
    "raw, expected",
    [
        (0.0, 0.0),
        (1.0, 5.0),
        (0.92, 4.6),
        (0.82, 4.1),
        (0.88, 4.4),
        (0.86, 4.3),
        (0.98, 4.9),
        (0.90, 4.5),
        (0.80, 4.0),
        (0.87, 4.4),  # 4.35 rounds half-up
        (0.89, 4.5),  # 4.45 rounds half-up
        (0.8194871794871794, 4.1),
        (0.97, 4.9),  # 4.85 rounds half-up, not banker's
    ],
)
def test_ordinal_table(raw, expected):
    assert ordinal_score(raw) == expected
    assert ordinal_score(raw) == oracles.oracle_ordinal(raw)


def test_ordinal_rejects_out_of_range():
    with pytest.raises(OutOfRangeRawError):
        ordinal_score(-0.01)
    with pytest.raises(OutOfRangeRawError):
        ordinal_score(1.01, metric="C")


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_ordinal_matches_oracle(raw):
    assert ordinal_score(raw) == oracles.oracle_ordinal(raw)


# ---------------------------------------------------------------- drift


def test_named_graph_normalizes_and_filters():
    model = build_metamodel(
        system="m",
        entities=[
            Entity(id="a", kind=EntityKind.Component, name="Order Service"),
            Entity(id="b", kind=EntityKind.Component, name="order-service"),  # merges
            Entity(id="c", kind=EntityKind.DataStore, name="Ledger"),
        ],
        relations=[
            Relation(id="r1", source="a", target="c", kind=RelationKind.dependency),
            Relation(id="r2", source="b", target="c", kind=RelationKind.message_flow),
        ],
    )
    graph = named_dependency_graph(model)
    assert graph.nodes == frozenset({"orderservice", "ledger"})
    assert graph.edges == frozenset({("orderservice", "ledger")})


def test_graph_delta_counts_symmetric_difference():
    before = NamedGraph(
        nodes=frozenset({"a", "b", "c"}),
        edges=frozenset({("a", "b"), ("b", "c")}),
    )
    after = NamedGraph(
        nodes=frozenset({"a", "b", "d"}),
        edges=frozenset({("a", "b"), ("a", "d")}),
    )
    delta = graph_delta(before, after)
    assert (delta.nodes_added, delta.nodes_removed) == (1, 1)
    assert (delta.edges_added, delta.edges_removed) == (1, 1)
    assert delta.distance == 4
    assert delta.added_nodes == frozenset({"d"})
    assert delta.removed_edges == frozenset({("b", "c")})
    # swapping sides swaps the added/removed roles
    swapped = graph_delta(after, before)
    assert swapped.distance == delta.distance
    assert swapped.added_nodes == delta.removed_nodes
    assert swapped.added_edges == delta.removed_edges


def test_model_delta_identity(original_model):
    delta = model_delta(original_model, original_model)
    assert delta.is_identical
    assert delta.distance == 0


def test_graph_delta_equals_exhaustive_edit_distance():
    rng = random.Random(2024)
    for _ in range(60):
        nodes_a, edges_a = random_named_graph(rng)
        nodes_b, edges_b = random_named_graph(rng)
        got = graph_delta(
            NamedGraph(nodes=nodes_a, edges=edges_a),
            NamedGraph(nodes=nodes_b, edges=edges_b),
        ).distance
        want = oracles.oracle_edit_distance(nodes_a, edges_a, nodes_b, edges_b)
        assert got == want


# ---------------------------------------------------------------- the report


_RAW = {
    "C": 0.92,
    "SF": 0.82,
    "K": 0.88,
    "TC": 0.86,
    "MR": 0.98,
    "LCE": 0.90,
    "CPC": 0.80,
}


def test_score_report_orders_keys_and_renders_ordinals():
    report = score_report(_RAW, inputs={"expected": 50})
    assert list(report.raw) == list(METRIC_KEYS)
    assert list(report.ordinal) == list(METRIC_KEYS)
    assert report.ordinal == {
        "C": 4.6,
        "SF": 4.1,
        "K": 4.4,
        "TC": 4.3,
        "MR": 4.9,
        "LCE": 4.5,
        "CPC": 4.0,
    }


def test_score_report_requires_all_seven():
    partial = {k: v for k, v in _RAW.items() if k != "TC"}
    with pytest.raises(ValueError, match="TC"):
        score_report(partial)
    bad = dict(_RAW, MR=1.2)
    with pytest.raises(OutOfRangeRawError):
        score_report(bad)


def test_canonical_fragment_shape_and_stability():
    report = score_report(_RAW, inputs={"patterns": frozenset({"b", "a"})})
    text = report.to_canonical_fragment()
    assert text == score_report(_RAW, inputs={"patterns": frozenset({"a", "b"})}).to_canonical_fragment()
    payload = json.loads(text)
    assert payload["schema_version"] == "1.0"
    assert payload["metrics"]["C"] == {"label": "Completeness", "raw": 0.92, "ordinal": 4.6}
    assert payload["inputs"]["patterns"] == ["a", "b"]
    assert text.endswith("\n")


def test_markdown_table_lists_all_metrics():
    lines = score_report(_RAW).to_markdown().splitlines()
    assert lines[0] == "| Metric | Raw | Ordinal |"
    assert len(lines) == 2 + len(METRIC_KEYS)
    for key in METRIC_KEYS:
        assert any(f"({key})" in line and METRIC_LABELS[key] in line for line in lines)
    assert "| Completeness (C) | 0.9200 | 4.6 |" in lines


# ---------------------------------------------------------------- pipeline


def test_score_architecture_is_the_score_command(cli, desk_dir, original_model,
                                                 process_a_model, process_b_model):
    from archmeta import score_architecture
    from archmeta.constraints import load_preset_constraints
    from archmeta.extract import load_aliases, scan_expected

    artifacts = sorted((desk_dir / "artifacts").iterdir())
    report = score_architecture(
        process_b_model, original_model, process_a_model,
        scan_expected(desk_dir / "codebase", (desk_dir / "rules.txt").read_text("utf-8")),
        load_aliases((desk_dir / "aliases.txt").read_text("utf-8")),
        [(p.name, p.read_text("utf-8")) for p in artifacts],
        process_b_model.constraints or load_preset_constraints(),
    )
    argv = ["score", "--model", str(desk_dir / "process_b.archmeta.json"),
            "--reference", str(desk_dir / "original.archmeta.json"),
            "--baseline", str(desk_dir / "process_a.archmeta.json"),
            "--codebase", str(desk_dir / "codebase"), "--rules", str(desk_dir / "rules.txt"),
            "--artifacts", str(desk_dir / "artifacts"), "--aliases", str(desk_dir / "aliases.txt")]
    assert report.to_markdown() == cli(*argv).out
    fragment = json.loads(cli(*argv, "--json").out)
    del fragment["inputs"]["config"]  # the command's flags, which the library never sees
    assert json.loads(report.to_canonical_fragment()) == fragment
