"""Command-line entry point wiring every module into file-based workflows.

Exit codes partition outcomes: 0 success, 1 analysis findings (constraint
violations, failed artifacts, coverage below a requested threshold), 2 for
usage or input errors. Every file output is written atomically (temp file
plus rename in the target directory) so failures never leave partial
reports behind. Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping

from .constraints import (
    constraints_from_json,
    consistency_score,
    evaluate_constraints,
    load_preset_constraints,
    violation_counts,
)
from .diagrams.canonical import dumps_model, loads_model
from .diagrams.parse import check_parsability, parse_diagram
from .diagrams.lifting import lift_to_metamodel
from .diagrams.types import DiagramFormat, DiagramType
from .errors import ArchmetaError
from .extract.matching import load_aliases, match_expected
from .extract.patterns import detect_patterns, detected_names
from .extract.scan import scan_expected
from .metrics.delta import model_delta
from .metrics.embedding import cosine, lexical_embed
from .metrics.scores import (
    METRIC_KEYS,
    METRIC_LABELS,
    completeness,
    completeness_ratio,
    constraint_effectiveness,
    document_groups,
    machine_readability,
    pattern_coverage,
    score_report,
    semantic_fidelity,
)
from .model import Metamodel
from .prompts.context import render_context_block, select_diagram_set
from .prompts.templates import assemble_prompt, prompt_filename
from .remote import EmbeddingClient, embed_endpoint_from_env
from .traces import matrix_to_tsv, trace_matrix, traceability_coverage


class UsageError(ArchmetaError):
    """Bad flag combination or unreadable input path."""


def _write_atomic(path: str | Path, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _require_file(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: not a readable file: {path}")
    return p


def _require_dir(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{flag}: not a directory: {path}")
    return p


def _load_model(path: str, flag: str) -> Metamodel:
    return loads_model(_require_file(path, flag).read_text("utf-8"))


def _dump_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _emit(args: argparse.Namespace, human: str, payload: Mapping[str, Any]) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(human if human.endswith("\n") else human + "\n")


# ---------------------------------------------------------------- parse


def cmd_parse(args: argparse.Namespace) -> int:
    paths = [_require_file(p, "input") for p in args.inputs]
    pairs = [(p.name, p.read_text("utf-8", errors="replace")) for p in paths]
    formats = [args.format] * len(pairs) if args.format else None
    audit = check_parsability(pairs, formats)
    lines = []
    for status in audit.artifacts:
        if status.parse_status == "parsed":
            lines.append(f"{status.name}: parsed ({status.format.value})")
        else:
            lines.append(f"{status.name}: failed ({status.failure_reason})")
    lines.append(f"parsable {audit.parsable_count}/{audit.total_count}")
    payload = {
        "schema_version": "1.0",
        "artifacts": [
            {
                "name": s.name,
                "format": s.format.value,
                "parse_status": s.parse_status,
                "failure_reason": s.failure_reason,
            }
            for s in audit.artifacts
        ],
        "parsable_count": audit.parsable_count,
        "total_count": audit.total_count,
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if audit.parsable_count == audit.total_count else 1


# ---------------------------------------------------------------- lift


def cmd_lift(args: argparse.Namespace) -> int:
    paths = [_require_file(p, "input") for p in args.inputs]
    named = []
    for p in paths:
        diagram = parse_diagram(
            p.read_text("utf-8", errors="replace"),
            format=args.format,
            type_hint=args.type,
        )
        if diagram.parse_status != "parsed":
            raise UsageError(f"{p.name}: cannot lift unparsed diagram ({diagram.failure_reason})")
        named.append((p.stem, diagram))
    model = lift_to_metamodel(named, system=args.system or "")
    text = dumps_model(model)
    if args.output:
        _write_atomic(args.output, text)
        if not args.json:
            print(f"wrote {args.output}")
        else:
            sys.stdout.write(_dump_json({"output": args.output, "entities": len(model.entities)}))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- validate


def _constraints_for(args: argparse.Namespace, model: Metamodel):
    if getattr(args, "constraints", None):
        return constraints_from_json(_require_file(args.constraints, "--constraints").read_text("utf-8"))
    if model.constraints:
        return model.constraints
    return load_preset_constraints()


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.model, "--model")
    constraints = _constraints_for(args, model)
    results = evaluate_constraints(model, constraints)
    violated, total = violation_counts(results)
    k = consistency_score(results)
    lines = []
    for r in results:
        if r.violated:
            lines.append(f"{r.constraint_id}: violated ({'; '.join(r.instances)})")
        else:
            lines.append(f"{r.constraint_id}: satisfied")
    lines.append(f"consistency {k:.4f} ({violated} of {total} violated)")
    payload = {
        "schema_version": "1.0",
        "results": [
            {
                "id": r.constraint_id,
                "kind": r.kind.value,
                "status": r.status,
                "instances": [[i] for i in r.instances],
            }
            for r in results
        ],
        "violated": violated,
        "total": total,
        "consistency": k,
    }
    if args.output:
        _write_atomic(args.output, _dump_json(payload))
    _emit(args, "\n".join(lines), payload)
    return 1 if violated else 0


# ---------------------------------------------------------------- trace


def cmd_trace(args: argparse.Namespace) -> int:
    model = _load_model(args.model, "--model")
    report = traceability_coverage(model)
    rows = trace_matrix(model)
    if args.matrix:
        _write_atomic(args.matrix, matrix_to_tsv(rows))
    lines = []
    for cc in report.per_class:
        lines.append(f"{cc.mapping_class.value}: {cc.filled}/{cc.total} slots filled")
    lines.append(
        f"coverage {report.coverage:.4f} "
        f"({report.slots_filled}/{report.slots_total} slots; "
        f"{len(report.invalid_links)} invalid links)"
    )
    payload = {
        "schema_version": "1.0",
        "per_class": [
            {
                "mapping_class": cc.mapping_class.value,
                "filled": cc.filled,
                "total": cc.total,
                "unfilled": list(cc.unfilled_ids),
            }
            for cc in report.per_class
        ],
        "slots_filled": report.slots_filled,
        "slots_total": report.slots_total,
        "coverage": report.coverage,
        "invalid_links": len(report.invalid_links),
    }
    if args.output:
        _write_atomic(args.output, _dump_json(payload))
    _emit(args, "\n".join(lines), payload)
    return 1 if report.coverage < args.threshold else 0


# ---------------------------------------------------------------- score


def _collect_artifacts(root: Path) -> list[tuple[str, str]]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(p.relative_to(root).as_posix(), p.read_text("utf-8", errors="replace")) for p in files]


def _apply_config_defaults(args: argparse.Namespace, keys: Iterable[str]) -> dict[str, Any]:
    effective: dict[str, Any] = {}
    config: dict[str, Any] = {}
    if getattr(args, "config", None):
        config = json.loads(_require_file(args.config, "--config").read_text("utf-8"))
        if not isinstance(config, dict):
            raise UsageError("--config: expected a JSON object of flag defaults")
    for key in keys:
        value = getattr(args, key, None)
        if value is None and key in config:
            value = config[key]
            setattr(args, key, value)
        effective[key] = value
    return effective


def cmd_score(args: argparse.Namespace) -> int:
    keys = (
        "model", "reference", "baseline", "codebase", "rules",
        "artifacts", "aliases", "constraints", "expected_patterns",
    )
    effective = _apply_config_defaults(args, keys)
    missing = [k for k in ("model", "reference", "baseline", "codebase", "rules", "artifacts")
               if not getattr(args, k)]
    if missing:
        raise UsageError("score: missing required inputs: " + ", ".join(sorted(missing)))

    model = _load_model(args.model, "--model")
    reference = _load_model(args.reference, "--reference")
    baseline = _load_model(args.baseline, "--baseline")
    codebase = _require_dir(args.codebase, "--codebase")
    rules_text = _require_file(args.rules, "--rules").read_text("utf-8")
    artifact_dir = _require_dir(args.artifacts, "--artifacts")
    aliases = (
        load_aliases(_require_file(args.aliases, "--aliases").read_text("utf-8"))
        if args.aliases
        else None
    )

    # completeness: codebase expectation vs model entities
    expected = scan_expected(codebase, rules_text)
    match_report = match_expected(expected, model, aliases)
    c_raw = completeness(len(expected), match_report.matched_count)
    c_inputs = {
        "expected_count": len(expected),
        "matched_count": match_report.matched_count,
        "unclamped_ratio": completeness_ratio(len(expected), match_report.matched_count),
        "unmatched": [f"{kind.value}:{name}" for name, kind in match_report.unmatched],
    }

    # semantic fidelity: reference documents vs model documents
    endpoint = embed_endpoint_from_env()
    if endpoint:
        client = EmbeddingClient(endpoint)
        embedder = client.embed
    else:
        client = None
        embedder = lexical_embed
    ref_groups = document_groups(reference)
    model_groups = document_groups(model)
    sf_raw = semantic_fidelity(ref_groups, model_groups, embedder)
    group_cosines = {
        name: cosine(embedder(ref_groups[name]), embedder(model_groups[name]))
        for name in ref_groups
        if ref_groups[name].strip() and model_groups.get(name, "").strip()
    }
    sf_inputs: dict[str, Any] = {
        "group_cosines": group_cosines,
        "provider": client.provider_info() if client else {"provider": "lexical-tf-1+2gram", "dimension": None},
    }

    # consistency: constraint evaluation over the model under test
    constraints = _constraints_for(args, model)
    results = evaluate_constraints(model, constraints)
    violated, total = violation_counts(results)
    k_raw = consistency_score(results)
    k_inputs = {"violated": violated, "total": total,
                "violated_ids": [r.constraint_id for r in results if r.violated]}

    # traceability coverage
    trace_report = traceability_coverage(model)
    tc_raw = trace_report.coverage
    tc_inputs = {"slots_filled": trace_report.slots_filled,
                 "slots_total": trace_report.slots_total}

    # machine readability over the artifact directory
    artifact_set = check_parsability(_collect_artifacts(artifact_dir))
    mr_raw = machine_readability(artifact_set)
    mr_inputs = {
        "parsable_count": artifact_set.parsable_count,
        "total_count": artifact_set.total_count,
        "failed": [a.name for a in artifact_set.artifacts if a.parse_status != "parsed"],
    }

    # constraint effectiveness: drift vs unconstrained baseline drift
    drift = model_delta(reference, model).distance
    baseline_distance = model_delta(reference, baseline).distance
    lce_raw = constraint_effectiveness(drift, baseline_distance)
    lce_inputs = {
        "drift_distance": drift,
        "baseline_distance": baseline_distance,
        # reported alongside, never folded into the LCE value
        "constraint_violation_rate": violated / total if total else 0.0,
    }

    # pattern coverage: expectation from the reference model unless pinned
    if args.expected_patterns:
        if isinstance(args.expected_patterns, str):
            expected_patterns = {p.strip() for p in args.expected_patterns.split(",") if p.strip()}
        else:
            expected_patterns = set(args.expected_patterns)
    else:
        expected_patterns = set(detected_names(reference))
    preserved = detected_names(model)
    cpc_raw = pattern_coverage(expected_patterns, preserved)
    cpc_inputs = {
        "expected": sorted(expected_patterns),
        "preserved": sorted(preserved),
        "kept": sorted({p.casefold() for p in expected_patterns} & {p.casefold() for p in preserved}),
    }

    raw = {"C": c_raw, "SF": sf_raw, "K": k_raw, "TC": tc_raw,
           "MR": mr_raw, "LCE": lce_raw, "CPC": cpc_raw}
    inputs = {"C": c_inputs, "SF": sf_inputs, "K": k_inputs, "TC": tc_inputs,
              "MR": mr_inputs, "LCE": lce_inputs, "CPC": cpc_inputs,
              "config": {k: str(v) if v is not None else None for k, v in effective.items()}}
    report = score_report(raw, inputs)

    if args.output:
        _write_atomic(args.output, report.to_canonical_fragment())
    if args.markdown:
        _write_atomic(args.markdown, report.to_markdown())
    if args.json:
        sys.stdout.write(report.to_canonical_fragment())
    else:
        sys.stdout.write(report.to_markdown())
    return 0


# ---------------------------------------------------------------- diff


def cmd_diff(args: argparse.Namespace) -> int:
    before = _load_model(args.before, "--before")
    after = _load_model(args.after, "--after")
    delta = model_delta(before, after)
    lines = [
        f"nodes added: {delta.nodes_added}",
        f"nodes removed: {delta.nodes_removed}",
        f"edges added: {delta.edges_added}",
        f"edges removed: {delta.edges_removed}",
        f"distance: {delta.distance}",
    ]
    payload = {
        "schema_version": "1.0",
        "nodes_added": delta.nodes_added,
        "nodes_removed": delta.nodes_removed,
        "edges_added": delta.edges_added,
        "edges_removed": delta.edges_removed,
        "distance": delta.distance,
        "added_nodes": sorted(delta.added_nodes),
        "removed_nodes": sorted(delta.removed_nodes),
        "added_edges": sorted(list(e) for e in delta.added_edges),
        "removed_edges": sorted(list(e) for e in delta.removed_edges),
    }
    if args.output:
        _write_atomic(args.output, _dump_json(payload))
    _emit(args, "\n".join(lines), payload)
    return 0


# ---------------------------------------------------------------- extract


def cmd_extract(args: argparse.Namespace) -> int:
    root = _require_dir(args.root, "--root")
    rules_text = _require_file(args.rules, "--rules").read_text("utf-8")
    expected = scan_expected(root, rules_text)
    lines = [f"{e.kind.value}\t{e.name}\t{e.origin}" for e in expected]
    payload: dict[str, Any] = {
        "schema_version": "1.0",
        "expected": [{"name": e.name, "kind": e.kind.value, "origin": e.origin} for e in expected],
        "count": len(expected),
    }
    if args.model:
        model = _load_model(args.model, "--model")
        aliases = (
            load_aliases(_require_file(args.aliases, "--aliases").read_text("utf-8"))
            if args.aliases
            else None
        )
        match_report = match_expected(expected, model, aliases)
        lines.append(
            f"matched {match_report.matched_count}/{match_report.expected_count} expected entities"
        )
        for name, kind in match_report.unmatched:
            lines.append(f"unmatched\t{kind.value}\t{name}")
        payload["matched_count"] = match_report.matched_count
        payload["unmatched"] = [
            {"name": name, "kind": kind.value} for name, kind in match_report.unmatched
        ]
        patterns = detect_patterns(model)
        lines.extend(f"pattern\t{hit.name}" for hit in patterns)
        payload["patterns"] = [
            {"name": hit.name, "evidence": sorted(hit.evidence)} for hit in patterns
        ]
    else:
        lines.append(f"{len(expected)} expected entities")
    if args.output:
        _write_atomic(args.output, _dump_json(payload))
    _emit(args, "\n".join(lines), payload)
    return 0


# ---------------------------------------------------------------- assemble


def cmd_assemble(args: argparse.Namespace) -> int:
    inputs: dict[str, str] = {}
    context_text: str | None = None
    needs_context = any(spec.split("=", 1)[1] == "@context" for spec in args.slot if "=" in spec)
    if needs_context:
        if not args.context_model or not args.purpose:
            raise UsageError("@context slots require --context-model and --purpose")
        model = _load_model(args.context_model, "--context-model")
        types = select_diagram_set(model, args.purpose)
        context_text = render_context_block(model, types).to_text()
    for spec in args.slot:
        if "=" not in spec:
            raise UsageError(f"--slot expects NAME=PATH or NAME=@context, got {spec!r}")
        name, source = spec.split("=", 1)
        if source == "@context":
            inputs[name] = context_text or ""
        else:
            inputs[name] = _require_file(source, "--slot").read_text("utf-8")
    rendered = assemble_prompt(args.process, args.stage, inputs)
    output = args.output or prompt_filename(args.process, args.stage)
    _write_atomic(output, rendered)
    payload = {
        "schema_version": "1.0",
        "process": args.process.upper(),
        "stage": args.stage,
        "output": str(output),
        "bytes": len(rendered.encode("utf-8")),
    }
    _emit(args, f"wrote {output}", payload)
    return 0


# ---------------------------------------------------------------- report


def _load_fragment(path: str) -> dict[str, Any]:
    doc = json.loads(_require_file(path, "report input").read_text("utf-8"))
    if "metrics" not in doc:
        raise UsageError(f"{path}: not a metric report fragment")
    return doc


def _mean_by_metric(fragments: list[dict[str, Any]], field: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for key in METRIC_KEYS:
        values = [f["metrics"][key][field] for f in fragments]
        out[key] = sum(values) / len(values)
    return out


def cmd_report(args: argparse.Namespace) -> int:
    side_a = [_load_fragment(p) for p in args.a]
    side_b = [_load_fragment(p) for p in args.b]
    a_raw = _mean_by_metric(side_a, "raw")
    b_raw = _mean_by_metric(side_b, "raw")
    a_ordinal = _mean_by_metric(side_a, "ordinal")
    b_ordinal = _mean_by_metric(side_b, "ordinal")

    lines = [
        "| Metric | A raw | A ordinal | B raw | B ordinal | B - A (ordinal) |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for key in METRIC_KEYS:
        improvement = b_ordinal[key] - a_ordinal[key]
        lines.append(
            f"| {METRIC_LABELS[key]} ({key}) | {a_raw[key]:.4f} | {a_ordinal[key]:.2f} "
            f"| {b_raw[key]:.4f} | {b_ordinal[key]:.2f} | {improvement:+.2f} |"
        )
    mean_improvement = sum(b_ordinal[k] - a_ordinal[k] for k in METRIC_KEYS) / len(METRIC_KEYS)
    lines.append("")
    lines.append(f"mean ordinal improvement (B - A): {mean_improvement:+.2f}")

    payload = {
        "schema_version": "1.0",
        "a": {"raw": a_raw, "ordinal": a_ordinal, "reports": len(side_a)},
        "b": {"raw": b_raw, "ordinal": b_ordinal, "reports": len(side_b)},
        "improvement": {k: b_ordinal[k] - a_ordinal[k] for k in METRIC_KEYS},
        "mean_ordinal_improvement": mean_improvement,
    }
    text = "\n".join(lines) + "\n"
    if args.output:
        _write_atomic(args.output, _dump_json(payload))
    if args.markdown:
        _write_atomic(args.markdown, text)
    if args.json:
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archmeta",
        description="Architecture metamodel toolkit: lift diagrams, validate, trace, and score.",
    )
    sub = parser.add_subparsers(dest="command")

    format_values = [f.value for f in DiagramFormat]
    type_values = [t.value for t in DiagramType]

    p = sub.add_parser("parse", help="strict-parse diagram files and report status")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=format_values)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("lift", help="parse diagrams and lift them into one canonical model")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=format_values)
    p.add_argument("--type", choices=type_values, help="diagram type hint applied to every input")
    p.add_argument("--system", default="")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("validate", help="evaluate architectural constraints against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--constraints", help="JSON constraint catalog (default: model's own, else preset)")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="traceability coverage and matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", help="write the TSV matrix here")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="exit 1 when coverage falls below this value")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("score", help="compute all seven quality metrics")
    p.add_argument("--model", help="model under evaluation (canonical JSON)")
    p.add_argument("--reference", help="original/reference model")
    p.add_argument("--baseline", help="unconstrained regeneration snapshot for drift baseline")
    p.add_argument("--codebase", help="source tree scanned for expected entities")
    p.add_argument("--rules", help="scan rules file")
    p.add_argument("--artifacts", help="directory of diagram artifacts for readability")
    p.add_argument("--aliases", help="alias TSV for name matching")
    p.add_argument("--constraints", help="JSON constraint catalog override")
    p.add_argument("--expected-patterns", dest="expected_patterns",
                   help="comma-separated pattern names (default: detected on the reference)")
    p.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
    p.add_argument("--output", help="write the canonical report fragment here")
    p.add_argument("--markdown", help="write the Markdown table here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("diff", help="named dependency-graph delta between two models")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("extract", help="scan a codebase for expected entities (and match a model)")
    p.add_argument("--root", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--aliases")
    p.add_argument("--model")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("assemble", help="render a transformation prompt from a template")
    p.add_argument("--process", required=True, choices=["A", "B", "a", "b"])
    p.add_argument("--stage", required=True)
    p.add_argument("--slot", action="append", default=[],
                   help="NAME=PATH file content, or NAME=@context for a rendered context block")
    p.add_argument("--context-model", dest="context_model")
    p.add_argument("--purpose")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("report", help="compare metric reports from two workflows")
    p.add_argument("--a", nargs="+", required=True, help="report fragments for side A")
    p.add_argument("--b", nargs="+", required=True, help="report fragments for side B")
    p.add_argument("--output")
    p.add_argument("--markdown")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ArchmetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
