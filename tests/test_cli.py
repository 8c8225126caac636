"""End-to-end command-line behavior over the committed fixture tree."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import archmeta
from archmeta.metrics.scores import score_report
from archmeta.remote import EMBED_ENDPOINT_VAR
from tests.support import desk


@pytest.fixture(autouse=True)
def _no_external_embedder(monkeypatch):
    monkeypatch.delenv(EMBED_ENDPOINT_VAR, raising=False)


def _score_argv(desk_dir: Path, side: str = "b") -> list[str]:
    if side == "b":
        model, baseline, artifacts = "process_b.archmeta.json", "process_a.archmeta.json", "artifacts"
    else:
        model, baseline, artifacts = "process_a.archmeta.json", "process_a.archmeta.json", "artifacts_a"
    return [
        "score",
        "--model", str(desk_dir / model),
        "--reference", str(desk_dir / "original.archmeta.json"),
        "--baseline", str(desk_dir / baseline),
        "--codebase", str(desk_dir / "codebase"),
        "--rules", str(desk_dir / "rules.txt"),
        "--artifacts", str(desk_dir / artifacts),
        "--aliases", str(desk_dir / "aliases.txt"),
    ]


# ---------------------------------------------------------------- dispatch


def test_bare_invocation_prints_usage(cli):
    result = cli()
    assert result.code == 2
    assert "usage" in result.err.lower()


def test_unknown_command_is_a_usage_error(cli):
    assert cli("polish").code == 2


# ---------------------------------------------------------------- parse


def test_parse_reports_per_file_status(cli, tmp_path):
    good = tmp_path / "ok.puml"
    good.write_text("@startuml\n[A] --> [B]\n@enduml\n")
    bad = tmp_path / "bad.puml"
    bad.write_text("@startuml\n[A] -->\n@enduml\n")
    result = cli("parse", str(good), str(bad))
    assert result.code == 1
    assert "ok.puml: parsed (plantuml)" in result.out
    assert "bad.puml: failed" in result.out
    assert "parsable 1/2" in result.out

    clean = cli("parse", str(good), "--json")
    assert clean.code == 0
    payload = json.loads(clean.out)
    assert payload["parsable_count"] == payload["total_count"] == 1
    assert payload["artifacts"][0]["parse_status"] == "parsed"


def test_parse_format_pin_applies_to_all_inputs(cli, tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("@startuml\n[A]\n@enduml\n")
    assert cli("parse", str(f), "--format", "mermaid").code == 1
    assert cli("parse", str(f), "--format", "plantuml").code == 0


def test_parse_missing_file_is_a_usage_error(cli, tmp_path):
    assert cli("parse", str(tmp_path / "ghost.puml")).code == 2


# ---------------------------------------------------------------- lift


def test_lift_writes_canonical_model(cli, tmp_path):
    src = tmp_path / "containers.puml"
    src.write_text(
        '@startuml\ncomponent "Shop" as shop\ndatabase "Orders" as db\nshop --> db\n@enduml\n'
    )
    out = tmp_path / "model.json"
    result = cli(
        "lift", str(src), "--type", "SystemContainer", "--system", "shop", "--output", str(out)
    )
    assert result.code == 0
    assert f"wrote {out}" in result.out
    doc = json.loads(out.read_text())
    assert doc["system"] == "shop"
    assert {e["id"] for e in doc["entities"]} == {"shop", "db"}
    assert doc["diagrams"][0]["name"] == "containers"

    to_stdout = cli("lift", str(src), "--type", "SystemContainer")
    assert to_stdout.code == 0
    assert json.loads(to_stdout.out)["schema_version"] == "1.0"


def test_lift_rejects_unparsable_input(cli, tmp_path):
    src = tmp_path / "broken.puml"
    src.write_text("@startuml\n???\n@enduml\n")
    result = cli("lift", str(src), "--type", "SystemContainer")
    assert result.code == 2
    assert "cannot lift" in result.err


# ---------------------------------------------------------------- validate


def test_validate_clean_model_exits_zero(cli, desk_dir):
    result = cli("validate", "--model", str(desk_dir / "original.archmeta.json"))
    assert result.code == 1  # the seeded cross-layer edge violates one rule
    assert "implementation-isolation: violated" in result.out


def test_validate_reports_violations(cli, desk_dir):
    result = cli("validate", "--model", str(desk_dir / "process_b.archmeta.json"), "--json")
    assert result.code == 1
    payload = json.loads(result.out)
    assert payload["total"] == 25
    assert payload["violated"] == 3
    violated = {r["id"] for r in payload["results"] if r["status"] == "violated"}
    assert violated == {"containers-via-api", "contexts-via-api", "implementation-isolation"}
    assert payload["consistency"] == 0.88


def test_validate_constraint_override(cli, desk_dir, tmp_path):
    catalog = tmp_path / "only.json"
    catalog.write_text(json.dumps({"constraints": [{"id": "acyclic", "kind": "acyclicity"}]}))
    result = cli(
        "validate",
        "--model", str(desk_dir / "process_b.archmeta.json"),
        "--constraints", str(catalog),
    )
    assert result.code == 0
    assert "acyclic: satisfied" in result.out
    assert "consistency 1.0000" in result.out


def test_validate_falls_back_to_preset_catalog(cli, tmp_path):
    bare = {
        "schema_version": "1.0",
        "system": "s",
        "entities": [{"id": "a", "kind": "Component", "name": "A"}],
        "relations": [],
        "traces": [],
        "constraints": [],
        "diagrams": [],
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(bare))
    result = cli("validate", "--model", str(path), "--json")
    assert result.code == 0
    assert json.loads(result.out)["total"] == 16


MALFORMED_CATALOGS = [
    {"nope": []},
    {"constraints": [{"id": "x", "kind": "bogus"}]},
    {"constraints": [{"kind": "acyclicity"}]},
    {"constraints": ["acyclicity"]},
]


@pytest.mark.parametrize("catalog", MALFORMED_CATALOGS)
def test_validate_malformed_catalog_is_an_input_error(catalog, desk_dir, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    src_root = Path(archmeta.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "archmeta.cli", "validate",
         "--model", str(desk_dir / "process_b.archmeta.json"), "--constraints", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_root)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: constraint ")


# ---------------------------------------------------------------- trace


def test_trace_coverage_and_matrix(cli, desk_dir, tmp_path):
    matrix = tmp_path / "matrix.tsv"
    result = cli(
        "trace",
        "--model", str(desk_dir / "process_b.archmeta.json"),
        "--matrix", str(matrix),
        "--json",
    )
    assert result.code == 0
    payload = json.loads(result.out)
    assert payload["slots_filled"] == 43
    assert payload["slots_total"] == 50
    assert payload["coverage"] == 0.86
    assert payload["invalid_links"] == 1
    lines = matrix.read_text().splitlines()
    assert lines[0].startswith("mapping_class\t")
    assert len(lines) == 51  # header + one row per slot


def test_trace_threshold_gates_exit_code(cli, desk_dir):
    model = str(desk_dir / "process_b.archmeta.json")
    assert cli("trace", "--model", model, "--threshold", "0.86").code == 0
    below = cli("trace", "--model", model, "--threshold", "0.9")
    assert below.code == 1
    assert "coverage 0.8600" in below.out


# ---------------------------------------------------------------- score


def test_score_desk_workflow_matches_engineering(cli, desk_dir):
    result = cli(*_score_argv(desk_dir, "b"), "--json")
    assert result.code == 0
    payload = json.loads(result.out)
    ordinals = {k: payload["metrics"][k]["ordinal"] for k in payload["metrics"]}
    assert ordinals == desk.EXPECT["ordinal_b"]
    raws = {k: payload["metrics"][k]["raw"] for k in payload["metrics"]}
    for key, value in desk.EXPECT["raw_b"].items():
        assert round(raws[key], 2) == value
    audit = payload["inputs"]
    assert audit["C"]["expected_count"] == 50
    assert audit["C"]["matched_count"] == 46
    assert audit["MR"]["failed"] == ["c4-07.puml"]
    assert audit["LCE"]["drift_distance"] == 2
    assert audit["LCE"]["baseline_distance"] == 20


def test_score_markdown_and_fragment_outputs(cli, desk_dir, tmp_path):
    fragment = tmp_path / "b.report.json"
    markdown = tmp_path / "b.md"
    result = cli(
        *_score_argv(desk_dir, "b"),
        "--output", str(fragment),
        "--markdown", str(markdown),
    )
    assert result.code == 0
    assert "| Completeness (C) | 0.9200 | 4.6 |" in markdown.read_text()
    assert result.out == markdown.read_text()
    stored = json.loads(fragment.read_text())
    assert stored["metrics"]["MR"]["ordinal"] == 4.9
    assert not list(tmp_path.glob(".*tmp"))  # atomic writes leave no debris


def test_score_runs_are_byte_identical(cli, desk_dir, tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    cli(*_score_argv(desk_dir, "b"), "--output", str(one))
    cli(*_score_argv(desk_dir, "b"), "--output", str(two))
    assert one.read_bytes() == two.read_bytes()


def test_score_config_defaults_and_flag_precedence(cli, desk_dir, tmp_path):
    argv = _score_argv(desk_dir, "b")
    flags = dict(zip(argv[1::2], argv[2::2]))
    config = {key.lstrip("-"): value for key, value in flags.items()}
    cfg = tmp_path / "score.json"
    cfg.write_text(json.dumps(config))

    from_config = cli("score", "--config", str(cfg), "--json")
    assert from_config.code == 0
    assert json.loads(from_config.out)["metrics"]["MR"]["ordinal"] == 4.9

    overridden = cli(
        "score", "--config", str(cfg),
        "--artifacts", str(desk_dir / "artifacts_a"),
        "--json",
    )
    payload = json.loads(overridden.out)
    assert payload["metrics"]["MR"]["raw"] == 0.88  # 44/50 from the override


def test_score_expected_patterns_pin(cli, desk_dir):
    result = cli(*_score_argv(desk_dir, "b"), "--expected-patterns", "repository,strangler", "--json")
    payload = json.loads(result.out)
    assert payload["metrics"]["CPC"]["raw"] == 1.0
    assert payload["inputs"]["CPC"]["expected"] == ["repository", "strangler"]


def test_score_missing_inputs_is_a_usage_error(cli, desk_dir):
    result = cli("score", "--model", str(desk_dir / "process_b.archmeta.json"))
    assert result.code == 2
    assert "missing required inputs" in result.err


# ---------------------------------------------------------------- diff


def test_diff_reports_named_graph_delta(cli, desk_dir):
    result = cli(
        "diff",
        "--before", str(desk_dir / "original.archmeta.json"),
        "--after", str(desk_dir / "process_b.archmeta.json"),
        "--json",
    )
    assert result.code == 0
    payload = json.loads(result.out)
    assert payload["distance"] == 2
    assert payload["removed_nodes"] == ["orderplaced"]
    assert payload["added_edges"] == [["shippingservice", "invoiceservice"]]

    human = cli(
        "diff",
        "--before", str(desk_dir / "original.archmeta.json"),
        "--after", str(desk_dir / "original.archmeta.json"),
    )
    assert "distance: 0" in human.out


# ---------------------------------------------------------------- extract


def test_extract_lists_expected_entities(cli, desk_dir):
    result = cli(
        "extract",
        "--root", str(desk_dir / "codebase"),
        "--rules", str(desk_dir / "rules.txt"),
        "--json",
    )
    assert result.code == 0
    payload = json.loads(result.out)
    assert payload["count"] == 50
    kinds = {e["kind"] for e in payload["expected"]}
    assert kinds == {"Component", "DomainEntity", "BusinessCapability", "BusinessProcess"}


def test_extract_matches_model_and_detects_patterns(cli, desk_dir):
    result = cli(
        "extract",
        "--root", str(desk_dir / "codebase"),
        "--rules", str(desk_dir / "rules.txt"),
        "--aliases", str(desk_dir / "aliases.txt"),
        "--model", str(desk_dir / "process_b.archmeta.json"),
        "--json",
    )
    assert result.code == 0
    payload = json.loads(result.out)
    assert payload["matched_count"] == 46
    unmatched = {(m["kind"], m["name"]) for m in payload["unmatched"]}
    assert ("DomainEntity", "coupon") in unmatched
    assert [p["name"] for p in payload["patterns"]] == [
        "clean-onion",
        "layered",
        "microservices",
        "repository",
        "strangler",
    ]


# ---------------------------------------------------------------- assemble


def test_assemble_fills_slots_from_files(cli, tmp_path):
    td = tmp_path / "td.txt"
    td.write_text("the technical documentation body")
    out = tmp_path / "prompt.txt"
    result = cli(
        "assemble", "--process", "A", "--stage", "td-to-bd",
        "--slot", f"td={td}", "--output", str(out),
    )
    assert result.code == 0
    rendered = out.read_text()
    assert "the technical documentation body" in rendered
    assert "[INSERT" not in rendered


def test_assemble_context_slot(cli, desk_dir, tmp_path):
    out = tmp_path / "prompt.txt"
    result = cli(
        "assemble", "--process", "B", "--stage", "td-to-bd",
        "--slot", "td_and_diagrams=@context",
        "--context-model", str(desk_dir / "original.archmeta.json"),
        "--purpose", "business-alignment",
        "--output", str(out), "--json",
    )
    assert result.code == 0
    payload = json.loads(result.out)
    assert payload["process"] == "B"
    rendered = out.read_text()
    assert "<<<SECTION: CANONICAL CONTEXT>>>" in rendered
    assert "<<<SECTION: INVARIANTS>>>" in rendered


def test_assemble_usage_errors(cli, desk_dir, tmp_path):
    bad_spec = cli("assemble", "--process", "A", "--stage", "td-to-bd", "--slot", "td")
    assert bad_spec.code == 2
    missing_ctx = cli(
        "assemble", "--process", "B", "--stage", "td-to-bd",
        "--slot", "td_and_diagrams=@context",
    )
    assert missing_ctx.code == 2
    assert "--context-model" in missing_ctx.err
    td = tmp_path / "td.txt"
    td.write_text("x")
    missing_slot = cli(
        "assemble", "--process", "B", "--stage", "td-to-bd",
        "--slot", f"wrong_name={td}", "--output", str(tmp_path / "p.txt"),
    )
    assert missing_slot.code == 2


# ---------------------------------------------------------------- report


def _fragment(path: Path, raw: dict) -> str:
    path.write_text(score_report(raw).to_canonical_fragment())
    return str(path)


def test_report_compares_two_sides(cli, tmp_path):
    a = _fragment(
        tmp_path / "a.json",
        {"C": 0.7, "SF": 0.6, "K": 0.5, "TC": 0.6, "MR": 0.8, "LCE": 0.0, "CPC": 0.5},
    )
    b = _fragment(
        tmp_path / "b.json",
        {"C": 0.9, "SF": 0.8, "K": 0.9, "TC": 0.8, "MR": 1.0, "LCE": 0.8, "CPC": 1.0},
    )
    result = cli("report", "--a", a, "--b", b, "--json")
    assert result.code == 0
    payload = json.loads(result.out)
    assert payload["improvement"]["C"] == pytest.approx(1.0)
    assert payload["mean_ordinal_improvement"] > 0

    table = cli("report", "--a", a, "--b", b)
    assert "| Metric | A raw | A ordinal | B raw | B ordinal | B - A (ordinal) |" in table.out
    assert "mean ordinal improvement (B - A): +" in table.out


def test_report_averages_multiple_runs_per_side(cli, tmp_path):
    low = {"C": 0.4, "SF": 0.4, "K": 0.4, "TC": 0.4, "MR": 0.4, "LCE": 0.4, "CPC": 0.4}
    high = {"C": 0.8, "SF": 0.8, "K": 0.8, "TC": 0.8, "MR": 0.8, "LCE": 0.8, "CPC": 0.8}
    a1 = _fragment(tmp_path / "a1.json", low)
    a2 = _fragment(tmp_path / "a2.json", high)
    b = _fragment(tmp_path / "b.json", high)
    result = cli("report", "--a", a1, a2, "--b", b, "--json")
    payload = json.loads(result.out)
    assert payload["a"]["raw"]["C"] == pytest.approx(0.6)
    assert payload["a"]["reports"] == 2


def test_report_rejects_non_fragments(cli, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text('{"hello": 1}')
    result = cli("report", "--a", str(junk), "--b", str(junk))
    assert result.code == 2
    assert "not a metric report fragment" in result.err
