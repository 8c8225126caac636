"""End-to-end command-line behavior over the committed fixture tree."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import archmeta
from archmeta.metrics.scores import METRIC_KEYS, score_report
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


def _run_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's package on the path."""
    src_root = Path(archmeta.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_root)},
    )


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
    {"constraints": [{"id": "x", "kind": "acyclicity", "scope": {"entities": [["a"]]}}]},
]


@pytest.mark.parametrize("catalog", MALFORMED_CATALOGS)
def test_validate_malformed_catalog_is_an_input_error(catalog, desk_dir, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    proc = _run_python("-m", "archmeta.cli", "validate",
                       "--model", str(desk_dir / "process_b.archmeta.json"),
                       "--constraints", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: constraint ")


@pytest.mark.parametrize("name", ["original", "process_a", "process_b"])
def test_a_models_own_constraints_are_a_valid_catalog(name, cli, desk_dir, tmp_path):
    model = desk_dir / f"{name}.archmeta.json"
    catalog = tmp_path / "catalog.json"
    constraints = json.loads(model.read_text("utf-8"))["constraints"]
    assert any(c["scope"] is None for c in constraints)  # dumps_model's empty scope
    catalog.write_text(json.dumps({"constraints": constraints}))
    plain = cli("validate", "--model", str(model))
    given = cli("validate", "--model", str(model), "--constraints", str(catalog))
    assert (given.code, given.out, given.err) == (plain.code, plain.out, plain.err)


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


@pytest.mark.parametrize("threshold", ["nan", "NaN", "inf", "1e400"])
def test_trace_threshold_must_be_finite(cli, desk_dir, threshold):
    # no coverage compares below nan, so such a gate could never fire
    model = str(desk_dir / "process_b.archmeta.json")
    result = cli("trace", "--model", model, "--threshold", threshold)
    assert result.code == 2
    assert f"--threshold: not a finite number: {threshold!r}" in result.err


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


# rules lines pathlib cannot glob, or that reach outside --root
_BAD_RULE_PATHS = [
    ("services/**x/ -> Component", "'**' must be a whole path component: 'services/**x/'"),
    ("/abs/*.py -> Component", "pattern must be relative to the root: '/abs/*.py'"),
    ("/ -> Component", "pattern must be relative to the root: '/'"),
    ("../* -> Component", "pattern must stay under the root (no '..'): '../*'"),
    (". -> Component", "pattern names no path: '.'"),
    ("../up.json#k -> Component", "pattern must stay under the root (no '..'): '../up.json'"),
    ("/abs.json#k -> Component", "pattern must be relative to the root: '/abs.json'"),
]


@pytest.mark.parametrize("command", ["extract", "score"])
@pytest.mark.parametrize("line, message", _BAD_RULE_PATHS)
def test_unglobbable_or_escaping_rules_path_is_a_usage_error(command, line, message, desk_dir,
                                                               tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text(f"version 1\nservices/*/ -> Component\n{line}\n")
    if command == "extract":
        argv = ["extract", "--root", str(desk_dir / "codebase"), "--rules", str(rules)]
    else:
        argv = _score_argv(desk_dir)
        argv[argv.index("--rules") + 1] = str(rules)
    proc = _run_python("-m", "archmeta.cli", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: rules line 3: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "manifest m.json must hold a JSON object"),
    (b'"text"', "manifest m.json must hold a JSON object"),
    (b"\xff\xfe{}", "manifest m.json not parseable: 'utf-8' codec can't decode"),
])
def test_extract_manifest_that_is_not_a_json_object_is_a_usage_error(content, message, tmp_path):
    (tmp_path / "m.json").write_bytes(content)
    rules = tmp_path / "rules.txt"
    rules.write_text("version 1\nm.json#k -> Component\n")
    proc = _run_python("-m", "archmeta.cli", "extract", "--root", str(tmp_path),
                       "--rules", str(rules))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: rules line 2: {message}")


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


def test_assemble_notes_a_purpose_view_the_model_cannot_derive(cli, desk_dir, tmp_path):
    out = tmp_path / "prompt.txt"
    result = cli(
        "assemble", "--process", "B", "--stage", "td-to-bd",
        "--slot", "td_and_diagrams=@context",
        "--context-model", str(desk_dir / "original.archmeta.json"),
        "--purpose", " Deployment-Config", "--output", str(out),
    )
    assert result.code == 0
    rendered = out.read_text()
    assert "-- layer 8 (Runtime) / RuntimeTopology --" in rendered
    assert "/ DeploymentInfrastructure --" not in rendered
    assert ("<<<SECTION: UNCERTAINTY>>>\n- Not derivable: DeploymentInfrastructure "
            "(no source diagram or matching entities)\n<<<END: UNCERTAINTY>>>") in rendered
    unknown = cli(
        "assemble", "--process", "B", "--stage", "td-to-bd",
        "--slot", "td_and_diagrams=@context",
        "--context-model", str(desk_dir / "original.archmeta.json"),
        "--purpose", "marketing", "--output", str(tmp_path / "p.txt"),
    )
    assert (unknown.code, unknown.err) == (2, (
        "error: unknown purpose 'marketing' (known: api-workflow, business-alignment, "
        "deployment-config, schema-migration, scope, service-structure)\n"))


def test_assemble_context_model_with_malformed_params_is_an_input_error(cli, desk_dir, tmp_path):
    doc = json.loads((desk_dir / "original.archmeta.json").read_text("utf-8"))
    doc["constraints"] = [{"id": "walls", "kind": "layer-boundary", "scope": None,
                           "params": {"allowed_targets": None}}]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    result = cli("assemble", "--process", "B", "--stage", "td-to-bd",
                 "--slot", "td_and_diagrams=@context", "--context-model", str(model),
                 "--purpose", "scope", "--output", str(tmp_path / "p.txt"))
    assert (result.code, result.err) == (
        2, "error: constraint 'walls': allowed_targets must be a non-empty list of layer names\n")


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
    good = _fragment(tmp_path / "good.json", dict.fromkeys(METRIC_KEYS, 0.5))
    doc = json.loads(Path(good).read_text())
    doc["metrics"]["K"]["raw"] = 10**400  # past what a float holds
    junk.write_text(json.dumps(doc))
    assert "no numeric raw and ordinal for K" in cli("report", "--a", str(junk), "--b", good).err
    doc["metrics"]["K"]["raw"] = 10**308  # a float holds it, but not twice over
    junk.write_text(json.dumps(doc))
    assert cli("report", "--a", str(junk), str(junk), good, "--b", good).code == 0


def _strict_json(text: str) -> object:
    def _reject(token: str) -> None:
        raise ValueError(f"not RFC 8259 JSON: {token}")
    return json.loads(text, parse_constant=_reject)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_rejects_non_finite_values(cli, tmp_path, bad):
    good = _fragment(tmp_path / "good.json", dict.fromkeys(METRIC_KEYS, 0.5))
    doc = json.loads(Path(good).read_text())
    doc["metrics"]["C"]["raw"] = bad
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps(doc))  # json writes NaN, Infinity, -Infinity
    result = cli("report", "--a", str(junk), "--b", good, "--json")
    assert result.code == 2
    assert "not a metric report fragment (no numeric raw and ordinal for C)" in result.err


def test_report_means_and_differences_stay_finite(cli, tmp_path):
    good = _fragment(tmp_path / "good.json", dict.fromkeys(METRIC_KEYS, 0.5))
    doc = json.loads(Path(good).read_text())
    doc["metrics"]["K"]["ordinal"] = 1.7e308
    high = tmp_path / "high.json"
    high.write_text(json.dumps(doc))
    # the plain sum of two such ordinals overflows, but their mean is 1.7e308
    result = cli("report", "--a", str(high), str(high), "--b", good, "--json")
    assert result.code == 0
    payload = _strict_json(result.out)
    assert payload["a"]["ordinal"]["K"] == 1.7e308
    assert math.isfinite(payload["mean_ordinal_improvement"])
    doc["metrics"]["K"]["ordinal"] = -1.7e308
    low = tmp_path / "low.json"
    low.write_text(json.dumps(doc))
    # B - A overflows: no report rather than one holding Infinity
    result = cli("report", "--a", str(low), "--b", str(high), "--json")
    assert result.code == 2
    assert "B - A ordinal of K is past what a float holds" in result.err


# ---------------------------------------------------------------- input boundaries


def _malformed_input(case: str, desk_dir: Path, tmp_path: Path) -> tuple[list[str], str]:
    bad = tmp_path / "bad"
    good = _fragment(tmp_path / "good.json",
                     {k: 0.5 for k in ("C", "SF", "K", "TC", "MR", "LCE", "CPC")})
    if case == "model-not-utf8":
        bad.write_bytes(b"\xff\xfe{}")
        return ["validate", "--model", str(bad)], "--model: not UTF-8 text"
    if case == "rules-not-utf8":
        bad.write_bytes(b"\xff\xfe*.py\n")
        return (["extract", "--root", str(desk_dir / "codebase"), "--rules", str(bad)],
                "--rules: not UTF-8 text")
    if case == "config-not-json":
        bad.write_text("{not json")
        return ["score", "--config", str(bad)], "--config: not valid JSON"
    if case == "report-not-json":
        bad.write_text("{not json")
        return ["report", "--a", str(bad), "--b", good], "report input: not valid JSON"
    if case == "report-not-object":
        bad.write_text("[1]")
        return ["report", "--a", good, "--b", str(bad)], "not a metric report fragment"
    doc = json.loads(Path(good).read_text())
    if case == "report-missing-metric":
        del doc["metrics"]["C"]
    else:  # report-non-numeric-metric
        doc["metrics"]["K"]["ordinal"] = "high"
    bad.write_text(json.dumps(doc))
    return ["report", "--a", good, "--b", str(bad)], "not a metric report fragment (no numeric"


@pytest.mark.parametrize("case", [
    "model-not-utf8", "rules-not-utf8", "config-not-json", "report-not-json",
    "report-not-object", "report-missing-metric", "report-non-numeric-metric",
])
def test_malformed_input_file_is_a_usage_error(case, desk_dir, tmp_path):
    argv, message = _malformed_input(case, desk_dir, tmp_path)
    proc = _run_python("-m", "archmeta.cli", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr


# Values json.loads cannot hand back whole, each spliced in place of the
# string "@edge" in an otherwise valid input: nesting past the recursion
# limit, an integer past the int-to-string digit limit, and a \\u escape of
# a lone surrogate, which no UTF-8 writer can encode.
EDGE_VALUES = {
    "deep": "[" * 100_000,
    "long-int": "9" * 5000,
    "surrogate": '"\\ud800"',
}
EDGE_INPUTS = ["model", "lift", "catalog", "config", "report", "manifest", "assemble"]


def _edge_argv(where: str, value: str, desk_dir: Path, tmp_path: Path) -> list[str]:
    """A command whose JSON input named by `where` holds `value`."""
    model = json.loads((desk_dir / "process_b.archmeta.json").read_text("utf-8"))
    model["entities"][0]["name"] = "@edge"
    good = _fragment(tmp_path / "good.json", dict.fromkeys(METRIC_KEYS, 0.5))
    bad = str(tmp_path / ("m.json" if where == "manifest" else "bad.json"))
    rules = tmp_path / "rules.txt"
    rules.write_text("version 1\nm.json#k -> Component\n")
    doc, argv = {
        "model": (model, ["validate", "--model", bad]),
        "lift": (model, ["lift", "--format", "canonical", bad]),
        "catalog": ({"constraints": [{"id": "@edge", "kind": "acyclicity"}]},
                    ["validate", "--model", str(desk_dir / "process_b.archmeta.json"),
                     "--constraints", bad]),
        "config": ({"model": "@edge"}, ["score", "--config", bad]),
        "report": ({**json.loads(Path(good).read_text("utf-8")), "note": "@edge"},
                   ["report", "--a", bad, "--b", good]),
        "manifest": ({"k": ["@edge"]},
                     ["extract", "--root", str(tmp_path), "--rules", str(rules)]),
        "assemble": (model, ["assemble", "--process", "B", "--stage", "td-to-bd",
                             "--slot", "td_and_diagrams=@context", "--context-model", bad,
                             "--purpose", "business-alignment",
                             "--output", str(tmp_path / "prompt.txt")]),
    }[where]
    Path(bad).write_text(json.dumps(doc).replace('"@edge"', value), encoding="utf-8")
    return argv


def _assert_edge_rejected(case: str, where: str, desk_dir: Path, tmp_path: Path) -> None:
    proc = _run_python("-m", "archmeta.cli", *_edge_argv(where, EDGE_VALUES[case], desk_dir, tmp_path))
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("where", EDGE_INPUTS)
def test_json_nested_past_the_recursion_limit_is_an_input_error(where, desk_dir, tmp_path):
    _assert_edge_rejected("deep", where, desk_dir, tmp_path)


@pytest.mark.parametrize("where", EDGE_INPUTS)
def test_json_integer_past_the_digit_limit_is_an_input_error(where, desk_dir, tmp_path):
    _assert_edge_rejected("long-int", where, desk_dir, tmp_path)


@pytest.mark.parametrize("where", EDGE_INPUTS)
def test_json_lone_surrogate_escape_is_an_input_error(where, desk_dir, tmp_path):
    _assert_edge_rejected("surrogate", where, desk_dir, tmp_path)


@pytest.mark.parametrize("case, cause", [
    ("deep", "nesting too deep to decode"),
    ("long-int", "integer too long to decode"),
])
def test_undecodable_model_error_names_the_cause(case, cause, desk_dir, tmp_path):
    argv = _edge_argv("model", EDGE_VALUES[case], desk_dir, tmp_path)
    proc = _run_python("-m", "archmeta.cli", *argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: line 1, col 1: expected valid JSON ({cause})\n"


@pytest.mark.parametrize("key, value, wanted", [
    *((key, 5, "a path string") for key in ("model", "reference", "baseline", "codebase",
                                              "rules", "artifacts", "constraints")),
    ("aliases", ["x"], "a path string"),
    ("expected_patterns", 7, "a string or a list of strings"),
    ("expected_patterns", ["cqrs", 1], "a string or a list of strings"),
])
def test_score_config_value_of_wrong_type_is_a_usage_error(key, value, wanted, desk_dir, tmp_path):
    argv = _score_argv(desk_dir, "b")
    config = {flag.lstrip("-"): path for flag, path in zip(argv[1::2], argv[2::2])}
    config[key] = value  # every other input is valid, so only the bad value can fail
    cfg = tmp_path / "score.json"
    cfg.write_text(json.dumps(config))
    proc = _run_python("-m", "archmeta.cli", "score", "--config", str(cfg))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: --config: {key!r} must be {wanted}\n"


def test_cli_import_leaves_http_client_unloaded():
    proc = _run_python("-c", "import sys, archmeta.cli; print('urllib.request' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _loaded_after(code: str) -> list[str]:
    """The archmeta modules a fresh interpreter holds after running code."""
    proc = _run_python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
                       "m for m in sys.modules if m.startswith('archmeta'))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_command_module():
    assert _loaded_after("import archmeta.cli") == ["archmeta", "archmeta.cli", "archmeta.errors"]


def test_validate_imports_only_what_it_runs(desk_dir):
    model = str(desk_dir / "process_b.archmeta.json")
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from archmeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['validate', '--model', {model!r}]) == 1\n"
    )
    assert "archmeta.constraints" in loaded
    for unused in ("archmeta.diagrams.lifting", "archmeta.diagrams.render", "archmeta.prompts",
                   "archmeta.extract", "archmeta.metrics", "archmeta.remote"):
        assert not [m for m in loaded if m == unused or m.startswith(unused + ".")], unused


def test_trace_imports_only_what_it_runs(desk_dir):
    model = str(desk_dir / "process_b.archmeta.json")
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from archmeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['trace', '--model', {model!r}]) == 0\n"
    )
    assert "archmeta.traces" in loaded
    for unused in ("archmeta.diagrams.lifting", "archmeta.diagrams.render", "archmeta.constraints",
                   "archmeta.prompts", "archmeta.extract", "archmeta.metrics", "archmeta.remote"):
        assert not [m for m in loaded if m == unused or m.startswith(unused + ".")], unused


def test_report_imports_no_scoring_stage(tmp_path):
    raw = dict.fromkeys(("C", "SF", "K", "TC", "MR", "LCE", "CPC"), 0.5)
    a, b = _fragment(tmp_path / "a.json", raw), _fragment(tmp_path / "b.json", raw)
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from archmeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['report', '--a', {a!r}, '--b', {b!r}]) == 0\n"
    )
    assert "archmeta.metrics.scores" in loaded
    for unused in ("archmeta.model", "archmeta.diagrams.types", "archmeta.constraints",
                   "archmeta.traces", "archmeta.extract", "archmeta.diagrams.parse",
                   "archmeta.metrics.pipeline", "archmeta.remote"):
        assert not [m for m in loaded if m == unused or m.startswith(unused + ".")], unused


def test_extract_without_a_model_imports_no_diagram_module(desk_dir):
    root, rules = str(desk_dir / "codebase"), str(desk_dir / "rules.txt")
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from archmeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['extract', '--root', {root!r}, '--rules', {rules!r}]) == 0\n"
    )
    assert "archmeta.extract.scan" in loaded
    for unused in ("archmeta.diagrams", "archmeta.constraints", "archmeta.traces",
                   "archmeta.extract.patterns", "archmeta.metrics", "archmeta.prompts",
                   "archmeta.remote"):
        assert not [m for m in loaded if m == unused or m.startswith(unused + ".")], unused


def test_parser_choices_are_the_diagram_enums_in_order():
    from archmeta import cli
    from archmeta.diagrams.types import DiagramFormat, DiagramType

    assert cli._FORMAT_CHOICES == [f.value for f in DiagramFormat]
    assert cli._TYPE_CHOICES == [t.value for t in DiagramType]


def test_a_reused_parser_leaks_nothing_between_calls(cli, desk_dir, tmp_path):
    """In-process calls, interleaved so each could inherit state from the one
    before, match a fresh process running each alone: stdout, stderr, exit code
    and the files written."""
    slot = tmp_path / "td.txt"
    slot.write_text("the technical documentation body")
    config = tmp_path / "score.json"
    argv = _score_argv(desk_dir)
    config.write_text(json.dumps({k.lstrip("-"): v for k, v in zip(argv[1::2], argv[2::2])}))
    model = str(desk_dir / "process_b.archmeta.json")
    out = tmp_path / "out"
    calls = [
        ["assemble", "--process", "A", "--stage", "td-to-bd", "--slot", f"td={slot}",
         "--output", str(out / "with-slot.txt")],
        ["assemble", "--process", "A", "--stage", "td-to-bd",
         "--output", str(out / "no-slot.txt")],
        ["validate", "--model", model, "--json"],
        ["validate", "--model", model],
        ["score", "--config", str(config), "--json", "--output", str(out / "score.json")],
        ["score", "--model", model],  # nothing from the config before may fill the rest
        ["score", "--config", str(config), "--model", str(desk_dir / "process_a.archmeta.json")],
        [*argv, "--markdown", str(out / "score.md")],
        ["score", "--config", str(config)],
        ["assemble", "--process", "A", "--stage", "td-to-bd", "--json",
         "--output", str(out / "no-slot-again.txt")],
        ["trace", "--model", model, "--json", "--threshold", "0.99"],
        ["trace", "--model", model],
    ]

    def written() -> dict[str, str]:
        files = {p.name: p.read_text("utf-8") for p in sorted(out.glob("*"))}
        shutil.rmtree(out, ignore_errors=True)
        return files

    in_process = [cli(*call) for call in calls]
    in_process_files = written()
    for call, got in zip(calls, in_process):
        fresh = _run_python("-m", "archmeta.cli", *call)
        want = (fresh.returncode, fresh.stdout, fresh.stderr)
        assert (got.code, got.out, got.err) == want, call
    assert in_process_files == written()
    assert in_process[1].code == 2 and in_process[0].code == 0  # the slot did not carry over
    assert in_process[5].code == 2 and "missing required inputs" in in_process[5].err


def test_score_uses_the_configured_embedding_endpoint(cli, desk_dir, monkeypatch):
    monkeypatch.setenv(EMBED_ENDPOINT_VAR, "http://127.0.0.1:9/embed")  # nothing listens there
    result = cli(*_score_argv(desk_dir))
    assert result.code == 2
    assert "request failed" in result.err
