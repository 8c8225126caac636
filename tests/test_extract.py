"""Codebase scanning, name matching, and pattern detection."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.errors import InvalidRulesError, UnreadableRootError
from archmeta.extract.matching import (
    load_aliases,
    match_expected,
    match_names,
    normalize_name,
)
from archmeta.extract.patterns import (
    PATTERN_NAMES,
    detect_patterns,
    detected_names,
)
from archmeta.extract.scan import load_rules, scan_expected
from archmeta.model import (
    Entity,
    EntityKind,
    Relation,
    RelationKind,
    build_metamodel,
)

# ---------------------------------------------------------------- scan rules


def test_load_rules_grammar():
    rules = load_rules(
        "# discovery rules\n"
        "version 1\n"
        "\n"
        "services/*/ -> Component\n"
        "domain/*.py -> DomainEntity name-from: filename\n"
        "capabilities.json#capabilities -> BusinessCapability\n"
    )
    assert [r.pattern for r in rules] == [
        "services/*/",
        "domain/*.py",
        "capabilities.json#capabilities",
    ]
    assert rules[0].name_from == "dirname"  # trailing slash defaults to dirname
    assert rules[1].name_from == "filename"
    assert rules[2].is_manifest and rules[2].manifest_key == "capabilities"
    assert rules[2].name_from == "key"
    assert rules[0].kind is EntityKind.Component


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty rules file"),
        ("services/*/ -> Component\n", "version 1"),
        ("version 2\n", "version 1"),
        ("version 1\nservices\n", "expected"),
        ("version 1\n -> Component\n", "empty pattern"),
        ("version 1\nx/*/ -> Blob\n", "unknown entity kind"),
        ("version 1\nx/*/ -> Component name-from: basename\n", "name-from"),
        ("version 1\nx.json -> Component name-from: key\n", "manifest pattern"),
        ("version 1\nx.json#k -> Component name-from: dirname\n", "name-from: key"),
    ],
)
def test_load_rules_rejections(text, fragment):
    with pytest.raises(InvalidRulesError) as err:
        load_rules(text)
    assert fragment in str(err.value)


def test_load_rules_accepts_paths_that_stay_under_the_root():
    rules = load_rules(
        "version 1\n"
        "**/*.py -> DomainEntity\n"
        "src/**/api/ -> Component\n"
        "./domain/*.py -> DomainEntity\n"
        "a..b/*.json#k -> BusinessCapability\n"
    )
    assert [r.pattern for r in rules] == [
        "**/*.py", "src/**/api/", "./domain/*.py", "a..b/*.json#k",
    ]


def test_scan_walks_globs_and_manifests(tmp_path):
    (tmp_path / "services" / "order-service").mkdir(parents=True)
    (tmp_path / "services" / "order-service" / "app.py").write_text("")
    (tmp_path / "services" / "mail-service").mkdir()
    (tmp_path / "services" / "readme.txt").write_text("")  # file, not a dir
    (tmp_path / "domain").mkdir()
    (tmp_path / "domain" / "ledger_entry.py").write_text("")
    (tmp_path / "caps.json").write_text(json.dumps({"capabilities": {"Selling": {}, "Billing": {}}}))
    (tmp_path / "procs.json").write_text(json.dumps({"processes": ["Checkout", "Refund"]}))

    expected = scan_expected(
        tmp_path,
        "version 1\n"
        "services/*/ -> Component\n"
        "domain/*.py -> DomainEntity\n"
        "caps.json#capabilities -> BusinessCapability\n"
        "procs.json#processes -> BusinessProcess\n"
        "missing.json#nothing -> Container\n",  # absent manifests yield nothing
    )
    as_pairs = [(e.kind.value, e.name) for e in expected]
    assert as_pairs == [
        ("BusinessCapability", "Billing"),
        ("BusinessCapability", "Selling"),
        ("BusinessProcess", "Checkout"),
        ("BusinessProcess", "Refund"),
        ("Component", "mail-service"),
        ("Component", "order-service"),
        ("DomainEntity", "ledger_entry"),
    ]
    origins = {e.name: e.origin for e in expected}
    assert origins["order-service"] == "services/order-service/"
    assert origins["ledger_entry"] == "domain/ledger_entry.py"
    assert origins["Selling"] == "caps.json#capabilities"


def test_scan_deduplicates_normalized_name_kind(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "OrderService.py").write_text("")
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "order_service.py").write_text("")
    expected = scan_expected(
        tmp_path,
        "version 1\na/*.py -> Component\nb/*.py -> Component\nb/*.py -> Module\n",
    )
    names = [(e.kind.value, e.name) for e in expected]
    # same normalized name: first rule wins within a kind, other kinds unaffected
    assert names == [("Component", "OrderService"), ("Module", "order_service")]


def test_double_star_glob_never_lists_the_root(desk_dir):
    codebase = desk_dir / "codebase"
    every_dir = scan_expected(codebase, "version 1\n**/ -> Component\n")
    origins = sorted(e.origin for e in every_dir)
    assert "./" not in origins and codebase.name not in {e.name for e in every_dir}
    below = sorted(p.relative_to(codebase).as_posix() + "/"
                   for p in codebase.rglob("*") if p.is_dir())
    assert origins == below
    # "**" still matches zero directories below the root, as in any glob
    services = scan_expected(codebase, "version 1\nservices/**/ -> Component\n")
    assert "services/" in {e.origin for e in services}


def test_scan_rejects_unreadable_root(tmp_path):
    with pytest.raises(UnreadableRootError):
        scan_expected(tmp_path / "ghost", "version 1\nx/*/ -> Component\n")


def test_scan_rejects_broken_manifests(tmp_path):
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(InvalidRulesError):
        scan_expected(tmp_path, "version 1\nbad.json#k -> Component\n")
    (tmp_path / "shape.json").write_text('{"k": 5}')
    with pytest.raises(InvalidRulesError):
        scan_expected(tmp_path, "version 1\nshape.json#k -> Component\n")
    (tmp_path / "items.json").write_text('{"k": ["ok", 3]}')
    with pytest.raises(InvalidRulesError):
        scan_expected(tmp_path, "version 1\nitems.json#k -> Component\n")


# ---------------------------------------------------------------- matching


def test_normalize_name_strips_case_and_separators():
    assert normalize_name("Ledger-Entry") == "ledgerentry"
    assert normalize_name("ledger_entry.py") == "ledgerentrypy"
    assert normalize_name("Order Service") == "orderservice"
    assert normalize_name("  ") == ""


def _normalize_by_filter(name: str) -> str:
    """normalize_name as a per-character filter over the lowered name: the
    reference the string replacements must agree with."""
    return "".join(c for c in name.lower() if c not in {"-", "_", ".", " "})


def test_normalize_name_agrees_with_the_per_character_filter_on_every_code_point():
    points = [chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF]
    for start in range(0, len(points), 1024):
        name = "".join(f"-{c}_{c}.{c} " for c in points[start:start + 1024])
        assert normalize_name(name) == _normalize_by_filter(name), hex(ord(points[start]))


def test_load_aliases_table():
    aliases = load_aliases(
        "# comment\n"
        "\n"
        "Catalog Search\tSearch\n"
        "no-tab-line\n"
        "Spaced Alias \t Canonical Name\n"
    )
    assert aliases == {
        "catalogsearch": "search",
        "spacedalias": "canonicalname",
    }


def _entities(*pairs):
    return build_metamodel(
        system="m",
        entities=[Entity(id=f"e{n}", kind=k, name=name) for n, (name, k) in enumerate(pairs)],
    )


def test_match_names_normalization_and_kind():
    model = _entities(
        ("Order Service", EntityKind.Component),
        ("Order Service", EntityKind.Container),
    )
    report = match_names([("order-service", EntityKind.Component)], model)
    assert report.matched_count == 1
    assert report.matches[0].entity_id == "e0"
    missing = match_names([("order-service", EntityKind.DataStore)], model)
    assert missing.unmatched == (("order-service", EntityKind.DataStore),)


def test_match_names_plural_folding_works_both_ways():
    model = _entities(("Review", EntityKind.DomainEntity), ("Orders", EntityKind.DomainEntity))
    report = match_names(
        [("reviews", EntityKind.DomainEntity), ("order", EntityKind.DomainEntity)],
        model,
    )
    assert report.matched_count == 2
    # -ss endings and short names never fold
    glass = _entities(("Glas", EntityKind.DomainEntity))
    assert match_names([("glass", EntityKind.DomainEntity)], glass).matched_count == 0


def test_match_names_alias_redirect():
    model = _entities(("Search", EntityKind.BusinessCapability))
    aliases = load_aliases("Catalog Search\tSearch\n")
    report = match_names([("Catalog Search", EntityKind.BusinessCapability)], model, aliases)
    assert report.matched_count == 1
    assert match_names([("Catalog Search", EntityKind.BusinessCapability)], model).matched_count == 0


def test_match_names_is_injective_and_deterministic():
    model = _entities(
        ("Gateway", EntityKind.Component),
        ("Gateway", EntityKind.Component),
    )
    report = match_names(
        [("gateway", EntityKind.Component), ("GATEWAY", EntityKind.Component)],
        model,
    )
    assert report.matched_count == 2
    assert {m.entity_id for m in report.matches} == {"e0", "e1"}
    # ties claim the smallest entity id first, in sorted expected order
    first = match_names([("gateway", EntityKind.Component)], model)
    assert first.matches[0].entity_id == "e0"

    third = match_names(
        [("gateway", EntityKind.Component)] * 1  # singleton: remaining name unmatched
        + [("Gateway", EntityKind.Component), ("gate-way", EntityKind.Component)],
        model,
    )
    assert third.matched_count == 2
    assert len(third.unmatched) == 1


def test_match_expected_reads_scan_results(tmp_path):
    (tmp_path / "svc").mkdir()
    (tmp_path / "svc" / "cart.py").write_text("")
    expected = scan_expected(tmp_path, "version 1\nsvc/*.py -> Component\n")
    model = _entities(("Cart", EntityKind.Component))
    report = match_expected(expected, model)
    assert report.matched_count == 1
    assert report.expected_count == 1


@settings(max_examples=80, deadline=None)
@given(
    names=st.lists(
        st.sampled_from(["cart", "Cart", "carts", "billing", "mail", "Mail Room", "ledger"]),
        max_size=8,
    ),
    entity_names=st.lists(
        st.sampled_from(["cart", "billing", "mailroom", "Ledger", "other"]),
        max_size=6,
    ),
)
def test_match_names_injectivity_property(names, entity_names):
    model = build_metamodel(
        system="m",
        entities=[
            Entity(id=f"e{n}", kind=EntityKind.Component, name=name)
            for n, name in enumerate(entity_names)
        ],
    )
    expected = [(name, EntityKind.Component) for name in names]
    report = match_names(expected, model)
    claimed = [m.entity_id for m in report.matches]
    assert len(claimed) == len(set(claimed))
    assert report.matched_count + len(report.unmatched) == len(expected)
    assert report.matched_count <= min(len(expected), len(entity_names))
    # rerunning is stable
    again = match_names(expected, model)
    assert again == report


# ---------------------------------------------------------------- patterns


def _model(entities, relations=()):
    return build_metamodel(
        system="p",
        entities=[
            Entity(id=i, kind=k, name=i, attributes=attrs or {})
            for i, k, attrs in entities
        ],
        relations=[
            Relation(id=f"r{n}", source=s, target=t, kind=k)
            for n, (s, t, k) in enumerate(relations)
        ],
    )


def test_layered_requires_strictly_downward_dependencies():
    base = [
        ("cls", EntityKind.Class, None),
        ("box", EntityKind.Container, None),
    ]
    fires = _model(base, [("cls", "box", RelationKind.dependency)])
    assert "layered" in detected_names(fires)
    broken = _model(
        base,
        [
            ("cls", "box", RelationKind.dependency),
            ("box", "cls", RelationKind.dependency),
        ],
    )
    assert "layered" not in detected_names(broken)
    flat = _model(
        [("a", EntityKind.Component, None), ("b", EntityKind.Component, None)],
        [("a", "b", RelationKind.dependency)],
    )
    assert "layered" not in detected_names(flat)


def test_clean_onion_sees_groups_not_layers():
    # Container -> Queue climbs within the system group: fine for the onion,
    # fatal for strict layering
    entities = [
        ("box", EntityKind.Container, None),
        ("q", EntityKind.Queue, None),
        ("cap", EntityKind.BusinessCapability, None),
    ]
    relations = [
        ("box", "q", RelationKind.dependency),
        ("box", "cap", RelationKind.dependency),
    ]
    names = detected_names(_model(entities, relations))
    assert "clean-onion" in names
    assert "layered" not in names
    outward = _model(entities, relations + [("cap", "box", RelationKind.dependency)])
    assert "clean-onion" not in detected_names(outward)


def test_cqrs_needs_disjoint_stores():
    entities = [
        ("cmd", EntityKind.Command, None),
        ("qry", EntityKind.Query, None),
        ("w", EntityKind.DataStore, None),
        ("r", EntityKind.DataStore, None),
    ]
    split = _model(
        entities,
        [
            ("cmd", "w", RelationKind.dependency),
            ("qry", "r", RelationKind.data_flow),
        ],
    )
    hits = {h.name: h for h in detect_patterns(split)}
    assert hits["cqrs"].evidence == ("cmd", "qry")
    shared = _model(
        entities,
        [
            ("cmd", "w", RelationKind.dependency),
            ("qry", "w", RelationKind.data_flow),
        ],
    )
    assert "cqrs" not in detected_names(shared)
    no_queries = _model([("cmd", EntityKind.Command, None), ("w", EntityKind.DataStore, None)])
    assert "cqrs" not in detected_names(no_queries)


def test_event_driven_needs_flow_through_an_event():
    entities = [
        ("ev", EntityKind.Event, None),
        ("a", EntityKind.Component, None),
        ("b", EntityKind.Component, None),
    ]
    through = _model(
        entities,
        [
            ("a", "ev", RelationKind.message_flow),
            ("ev", "b", RelationKind.message_flow),
        ],
    )
    hits = {h.name: h for h in detect_patterns(through)}
    assert "ev" in hits["event-driven"].evidence
    one_sided = _model(entities, [("a", "ev", RelationKind.message_flow)])
    assert "event-driven" not in detected_names(one_sided)


def test_microservices_needs_cross_container_dependencies():
    entities = [
        ("box1", EntityKind.Container, None),
        ("box2", EntityKind.Container, None),
        ("c1", EntityKind.Component, None),
        ("c2", EntityKind.Component, None),
        ("c3", EntityKind.Component, None),
    ]
    containment = [
        ("box1", "c1", RelationKind.containment),
        ("box1", "c3", RelationKind.containment),
        ("box2", "c2", RelationKind.containment),
    ]
    cross = _model(entities, containment + [("c1", "c2", RelationKind.dependency)])
    assert "microservices" in detected_names(cross)
    internal = _model(entities, containment + [("c1", "c3", RelationKind.dependency)])
    assert "microservices" not in detected_names(internal)
    lonely = _model(entities[:1] + entities[2:], [("box1", "c1", RelationKind.containment)])
    assert "microservices" not in detected_names(lonely)


def test_hexagonal_keeps_the_core_sealed():
    entities = [
        ("core1", EntityKind.Component, {"role": "Core"}),
        ("ad1", EntityKind.Component, {"role": "adapter"}),
    ]
    sealed = _model(entities, [("ad1", "core1", RelationKind.dependency)])
    assert "hexagonal" in detected_names(sealed)
    leaky = _model(entities, [("core1", "ad1", RelationKind.dependency)])
    assert "hexagonal" not in detected_names(leaky)


def test_mvc_needs_all_three_roles():
    full = _model(
        [
            ("m", EntityKind.Component, {"role": "model"}),
            ("v", EntityKind.Component, {"role": "View"}),
            ("c", EntityKind.Component, {"role": "controller"}),
        ]
    )
    assert "mvc" in detected_names(full)
    partial = _model(
        [
            ("m", EntityKind.Component, {"role": "model"}),
            ("v", EntityKind.Component, {"role": "view"}),
        ]
    )
    assert "mvc" not in detected_names(partial)


def test_repository_needs_a_backing_store():
    entities = [
        ("repo", EntityKind.Component, {"role": "repository"}),
        ("tbl", EntityKind.Table, None),
    ]
    backed = _model(entities, [("repo", "tbl", RelationKind.data_flow)])
    hits = {h.name: h for h in detect_patterns(backed)}
    assert hits["repository"].evidence == ("repo", "tbl")
    unbacked = _model(entities)
    assert "repository" not in detected_names(unbacked)


def test_facade_thresholds():
    entities = [(f"c{n}", EntityKind.Component, None) for n in range(1, 4)]
    entities += [
        ("hub", EntityKind.Component, None),
        ("d1", EntityKind.Component, None),
        ("d2", EntityKind.Component, None),
    ]
    fan = [(f"c{n}", "hub", RelationKind.dependency) for n in range(1, 4)]
    out = [("hub", "d1", RelationKind.dependency), ("hub", "d2", RelationKind.dependency)]
    fires = _model(entities, fan + out)
    hits = {h.name: h for h in detect_patterns(fires)}
    assert hits["facade"].evidence == ("hub",)
    # a delegate that is also a client stops counting as a delegate
    tangled = _model(
        entities,
        fan + [("hub", "c1", RelationKind.dependency), ("hub", "d1", RelationKind.dependency)],
    )
    assert "facade" not in detected_names(tangled)


def test_strangler_needs_all_three_kinds():
    full = _model(
        [
            ("legacy", EntityKind.LegacySystem, None),
            ("fresh", EntityKind.System, None),
            ("route", EntityKind.RoutingRule, None),
        ]
    )
    assert "strangler" in detected_names(full)
    unrouted = _model(
        [
            ("legacy", EntityKind.LegacySystem, None),
            ("fresh", EntityKind.System, None),
        ]
    )
    assert "strangler" not in detected_names(unrouted)


def test_detection_is_sorted_and_named_consistently():
    assert list(PATTERN_NAMES) == sorted(PATTERN_NAMES)
    model = _model(
        [
            ("legacy", EntityKind.LegacySystem, None),
            ("fresh", EntityKind.System, None),
            ("route", EntityKind.RoutingRule, None),
            ("m", EntityKind.Component, {"role": "model"}),
            ("v", EntityKind.Component, {"role": "view"}),
            ("c", EntityKind.Component, {"role": "controller"}),
        ]
    )
    hits = detect_patterns(model)
    assert [h.name for h in hits] == ["mvc", "strangler"]
    for hit in hits:
        assert hit.name in PATTERN_NAMES
