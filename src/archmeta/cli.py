"""Command-line entry point wiring every module into file-based workflows.

Exit codes partition outcomes: 0 success, 1 analysis findings (constraint
violations, failed artifacts, coverage below a requested threshold), 2 for
usage or input errors. Every file output is written atomically (temp file
plus rename in the target directory) so failures never leave partial
reports behind. Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .errors import ArchmetaError

if TYPE_CHECKING:
    from .model import Metamodel


class UsageError(ArchmetaError):
    """Bad flag combination or unreadable input path."""


def _write_atomic(path: str | Path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`.

    A new file gets the mode `open(path, "w")` would give it (0o666 less the
    umask, applied by the system); a replaced file keeps its own mode."""
    import stat

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    try:
        keep = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        keep = None
    tmp_name = target.parent / f".{target.name}.{os.urandom(6).hex()}.tmp"
    # O_EXCL: never write through a file or a link that is already there
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        if keep is not None:
            os.chmod(tmp_name, keep)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_bytes(path: str | Path, flag: str) -> bytes:
    """Contents of an input file. A missing or unreadable file is a usage error
    naming the flag and file."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: not a readable file: {path}")
    try:
        return p.read_bytes()
    except OSError as exc:
        raise UsageError(f"{flag}: cannot read {path}: {exc.strerror or exc}") from None


def _decode(data: bytes, path: str | Path, flag: str, errors: str = "strict") -> str:
    """`data` as UTF-8 text with universal newlines, as `open(path).read()` gives
    it. Undecodable bytes (with strict errors) are a usage error naming the
    flag and file."""
    try:
        text = data.decode("utf-8", errors)
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{flag}: not UTF-8 text: {path} (at byte {exc.start}: {exc.reason})"
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_text(path: str | Path, flag: str, errors: str = "strict") -> str:
    """Contents of an input file, as UTF-8. A missing, unreadable or (with
    strict errors) undecodable file is a usage error naming the flag and file."""
    return _decode(_read_bytes(path, flag), path, flag, errors)


def _read_json(path: str | Path, flag: str) -> Any:
    from .jsonin import decode_json

    try:
        return decode_json(_read_text(path, flag))
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{flag}: not valid JSON: {path} (line {exc.lineno}, col {exc.colno}: {exc.msg})"
        ) from None


def _require_dir(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{flag}: not a directory: {path}")
    return p


# (sha256 of a model file's bytes, the model loaded from them), or None
_last_model: tuple[bytes, Metamodel] | None = None


def _load_model(path: str, flag: str) -> Metamodel:
    """The canonical model in the file at `path`, read and checked strictly.

    The last model loaded stays in a one-model slot, keyed by the sha256 of
    the file's bytes. A later command in the same process that reads the same
    bytes, from any path, gets the same immutable Metamodel back, with
    whatever indices earlier commands cached on it. Other bytes empty the slot
    before they load, so the old model can be freed first; a read, decode or
    load that fails leaves the slot empty. A fresh process pays one sha256 per
    model file.
    """
    global _last_model
    import hashlib

    from .diagrams.canonical import loads_model

    held, _last_model = _last_model, None  # empty until this call succeeds
    data = _read_bytes(path, flag)
    digest = hashlib.sha256(data).digest()
    if held is not None and held[0] == digest:
        _last_model = held
        return held[1]
    held = None  # the old model can be freed before the new one is built
    model = loads_model(_decode(data, path, flag))
    _last_model = (digest, model)
    return model


def _dump_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _emit(args: argparse.Namespace, human: Callable[[], str], machine: Callable[[], str],
          output: str | None = None, markdown: str | None = None) -> None:
    """Send one result where the flags ask for it: the machine (JSON) text to
    `output`, the human text to `markdown`, and one of the two to stdout, the
    machine text under --json. Each text is rendered at most once, and only
    when some destination takes it."""
    machine = cache(machine)

    @cache
    def human_text() -> str:
        text = human()
        return text if text.endswith("\n") else text + "\n"

    if output:
        _write_atomic(output, machine())
    if markdown:
        _write_atomic(markdown, human_text())
    sys.stdout.write(machine() if args.json else human_text())


# ---------------------------------------------------------------- parse


def cmd_parse(args: argparse.Namespace) -> int:
    from .diagrams.parse import check_parsability

    pairs = [(Path(p).name, _read_text(p, "input", errors="replace")) for p in args.inputs]
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
    _emit(args, lambda: "\n".join(lines), lambda: _dump_json(payload))
    return 0 if audit.parsable_count == audit.total_count else 1


# ---------------------------------------------------------------- lift


def cmd_lift(args: argparse.Namespace) -> int:
    from .diagrams.canonical import dumps_model
    from .diagrams.lifting import lift_to_metamodel
    from .diagrams.parse import parse_diagram

    named = []
    for p in map(Path, args.inputs):
        diagram = parse_diagram(
            _read_text(p, "input", errors="replace"),
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
        _emit(args, lambda: f"wrote {args.output}",
              lambda: _dump_json({"output": args.output, "entities": len(model.entities)}))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- validate


def _constraints_for(args: argparse.Namespace, model: Metamodel):
    from .constraints import constraints_from_json, load_preset_constraints

    if getattr(args, "constraints", None):
        return constraints_from_json(_read_text(args.constraints, "--constraints"))
    if model.constraints:
        return model.constraints
    return load_preset_constraints()


def cmd_validate(args: argparse.Namespace) -> int:
    from .constraints import consistency_score, evaluate_constraints, violation_counts

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
    _emit(args, lambda: "\n".join(lines), lambda: _dump_json(payload), args.output)
    return 1 if violated else 0


# ---------------------------------------------------------------- trace


def cmd_trace(args: argparse.Namespace) -> int:
    from .traces import matrix_to_tsv, trace_matrix, traceability_coverage

    model = _load_model(args.model, "--model")
    report = traceability_coverage(model)
    if args.matrix:
        _write_atomic(args.matrix, matrix_to_tsv(trace_matrix(model)))
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
    _emit(args, lambda: "\n".join(lines), lambda: _dump_json(payload), args.output)
    return 1 if report.coverage < args.threshold else 0


# ---------------------------------------------------------------- score


def _collect_artifacts(root: Path) -> list[tuple[str, str]]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(p.relative_to(root).as_posix(), _read_text(p, "--artifacts", errors="replace"))
            for p in files]


def _apply_config_defaults(args: argparse.Namespace, keys: Iterable[str]) -> dict[str, Any]:
    effective: dict[str, Any] = {}
    config: dict[str, Any] = {}
    if getattr(args, "config", None):
        config = _read_json(args.config, "--config")
        if not isinstance(config, dict):
            raise UsageError("--config: expected a JSON object of flag defaults")
    for key in keys:
        value = getattr(args, key, None)
        if value is None and key in config:
            value = config[key]
            many = key == "expected_patterns"  # the one key that takes a list
            listed = many and isinstance(value, list) and all(isinstance(v, str) for v in value)
            if not (value is None or isinstance(value, str) or listed):
                wanted = "a string or a list of strings" if many else "a path string"
                raise UsageError(f"--config: {key!r} must be {wanted}")
            setattr(args, key, value)
        effective[key] = value
    return effective


def cmd_score(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .extract.matching import load_aliases
    from .extract.scan import scan_expected
    from .metrics.pipeline import score_architecture

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
    rules_text = _read_text(args.rules, "--rules")
    artifact_dir = _require_dir(args.artifacts, "--artifacts")
    aliases = load_aliases(_read_text(args.aliases, "--aliases")) if args.aliases else None
    expected = scan_expected(codebase, rules_text)
    patterns = args.expected_patterns or None  # None: the patterns detected on the reference
    if isinstance(patterns, str):
        patterns = [p.strip() for p in patterns.split(",") if p.strip()]
    # read here rather than through archmeta.remote, whose urllib and http.client
    # imports only load when an endpoint is configured
    endpoint = os.environ.get("ARCHMETA_EMBED_ENDPOINT")
    client = None
    if endpoint:
        from .remote import EmbeddingClient

        client = EmbeddingClient(endpoint)
    report = score_architecture(
        model, reference, baseline, expected, aliases, _collect_artifacts(artifact_dir),
        _constraints_for(args, model), patterns, client,
    )
    config = {k: str(v) if v is not None else None for k, v in effective.items()}
    report = replace(report, inputs={**report.inputs, "config": config})
    _emit(args, report.to_markdown, report.to_canonical_fragment, args.output, args.markdown)
    return 0


# ---------------------------------------------------------------- diff


def cmd_diff(args: argparse.Namespace) -> int:
    from .metrics.delta import model_delta

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
    _emit(args, lambda: "\n".join(lines), lambda: _dump_json(payload), args.output)
    return 0


# ---------------------------------------------------------------- extract


def cmd_extract(args: argparse.Namespace) -> int:
    from .extract.scan import scan_expected

    root = _require_dir(args.root, "--root")
    rules_text = _read_text(args.rules, "--rules")
    expected = scan_expected(root, rules_text)
    lines = [f"{e.kind.value}\t{e.name}\t{e.origin}" for e in expected]
    payload: dict[str, Any] = {
        "schema_version": "1.0",
        "expected": [{"name": e.name, "kind": e.kind.value, "origin": e.origin} for e in expected],
        "count": len(expected),
    }
    if args.model:
        from .extract.matching import load_aliases, match_expected
        from .extract.patterns import detect_patterns

        model = _load_model(args.model, "--model")
        aliases = load_aliases(_read_text(args.aliases, "--aliases")) if args.aliases else None
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
    _emit(args, lambda: "\n".join(lines), lambda: _dump_json(payload), args.output)
    return 0


# ---------------------------------------------------------------- assemble


def cmd_assemble(args: argparse.Namespace) -> int:
    from .prompts.templates import assemble_prompt, prompt_filename

    inputs: dict[str, str] = {}
    context_text: str | None = None
    needs_context = any(spec.split("=", 1)[1] == "@context" for spec in args.slot if "=" in spec)
    if needs_context:
        if not args.context_model or not args.purpose:
            raise UsageError("@context slots require --context-model and --purpose")
        from .prompts.context import _purpose_views, render_context_block

        model = _load_model(args.context_model, "--context-model")
        # every view of the purpose: one the model cannot derive gets an uncertainty note
        context_text = render_context_block(model, _purpose_views(args.purpose)).to_text()
    for spec in args.slot:
        if "=" not in spec:
            raise UsageError(f"--slot expects NAME=PATH or NAME=@context, got {spec!r}")
        name, source = spec.split("=", 1)
        if source == "@context":
            inputs[name] = context_text or ""
        else:
            inputs[name] = _read_text(source, "--slot")
    rendered = assemble_prompt(args.process, args.stage, inputs)
    output = args.output or prompt_filename(args.process, args.stage, rendered)
    _write_atomic(output, rendered)
    payload = {
        "schema_version": "1.0",
        "process": args.process.upper(),
        "stage": args.stage,
        "output": str(output),
        "bytes": len(rendered.encode("utf-8")),
    }
    _emit(args, lambda: f"wrote {output}", lambda: _dump_json(payload))
    return 0


# ---------------------------------------------------------------- report


def _is_number(value: Any) -> bool:
    """A finite int or float that a float can hold (a bool counts as an int);
    json.loads reads NaN and Infinity, which JSON output cannot carry."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and abs(value) <= sys.float_info.max


def _mean(values: list[float]) -> float:
    """The mean, dividing before summing only when the plain sum overflows,
    so finite values always have a finite mean."""
    # a float start keeps a sum of large ints from overflowing when a float joins it
    mean = sum(values, 0.0) / len(values)
    return mean if math.isfinite(mean) else sum(v / len(values) for v in values)


def _side(paths: list[str]) -> dict[str, Any]:
    """The mean raw and ordinal value of each metric over one side's fragments."""
    from .metrics.scores import METRIC_KEYS

    metrics = []
    for path in paths:
        doc = _read_json(path, "report input")
        found = doc.get("metrics") if isinstance(doc, dict) else None
        if not isinstance(found, dict):
            raise UsageError(f"{path}: not a metric report fragment")
        for key in METRIC_KEYS:
            entry = found.get(key)
            if not (isinstance(entry, dict)
                    and all(_is_number(entry.get(f)) for f in ("raw", "ordinal"))):
                raise UsageError(
                    f"{path}: not a metric report fragment (no numeric raw and ordinal for {key})"
                )
        metrics.append(found)
    side: dict[str, Any] = {
        field: {key: _mean([m[key][field] for m in metrics]) for key in METRIC_KEYS}
        for field in ("raw", "ordinal")
    }
    side["reports"] = len(metrics)
    return side


def cmd_report(args: argparse.Namespace) -> int:
    from .metrics.scores import METRIC_KEYS, METRIC_LABELS

    a, b = _side(args.a), _side(args.b)
    improvement = {k: b["ordinal"][k] - a["ordinal"][k] for k in METRIC_KEYS}
    for key, value in improvement.items():
        if not math.isfinite(value):
            raise UsageError(f"report: B - A ordinal of {key} is past what a float holds")
    mean_improvement = _mean(list(improvement.values()))
    lines = [
        "| Metric | A raw | A ordinal | B raw | B ordinal | B - A (ordinal) |",
        "| --- | --- | --- | --- | --- | --- |",
        *(f"| {METRIC_LABELS[k]} ({k}) | {a['raw'][k]:.4f} | {a['ordinal'][k]:.2f} "
          f"| {b['raw'][k]:.4f} | {b['ordinal'][k]:.2f} | {improvement[k]:+.2f} |"
          for k in METRIC_KEYS),
        "",
        f"mean ordinal improvement (B - A): {mean_improvement:+.2f}",
    ]
    payload = {
        "schema_version": "1.0",
        "a": a,
        "b": b,
        "improvement": improvement,
        "mean_ordinal_improvement": mean_improvement,
    }
    _emit(args, lambda: "\n".join(lines), lambda: _dump_json(payload),
          args.output, args.markdown)
    return 0


# ---------------------------------------------------------------- parser


def _finite_float(text: str) -> float:
    """A float option that is finite: every comparison with nan is false, so
    a nan threshold could never fire."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# The values of DiagramFormat and DiagramType, in their order, spelled here so
# that building the parser imports neither archmeta.model nor diagrams.types
_FORMAT_CHOICES = ["canonical", "plantuml", "mermaid"]
_TYPE_CHOICES = [
    "BusinessContext", "BusinessCapabilityMap", "DomainModel", "BusinessProcess",
    "DddContextMap", "CqrsView", "EventDrivenView", "CleanOnionView", "SystemContainer",
    "ComponentView", "DeploymentInfrastructure", "IntegrationApi", "StranglerMigration",
    "ClassModuleStructure", "SequenceInteraction", "DataModelSchema", "RuntimeTopology",
    "StateMachine",
]


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand. Each parsed namespace carries the
    subcommand's name as `command`; `main` runs the module's `cmd_<command>`."""
    parser = argparse.ArgumentParser(
        prog="archmeta",
        description="Architecture metamodel toolkit: lift diagrams, validate, trace, and score.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("parse", help="strict-parse diagram files and report status")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=_FORMAT_CHOICES)

    p = sub.add_parser("lift", help="parse diagrams and lift them into one canonical model")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=_FORMAT_CHOICES)
    p.add_argument("--type", choices=_TYPE_CHOICES, help="diagram type hint applied to every input")
    p.add_argument("--system", default="")
    p.add_argument("--output")

    p = sub.add_parser("validate", help="evaluate architectural constraints against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--constraints", help="JSON constraint catalog (default: model's own, else preset)")
    p.add_argument("--output")

    p = sub.add_parser("trace", help="traceability coverage and matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", help="write the TSV matrix here")
    p.add_argument("--threshold", type=_finite_float, default=0.0,
                   help="exit 1 when coverage falls below this value")
    p.add_argument("--output")

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

    p = sub.add_parser("diff", help="named dependency-graph delta between two models")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--output")

    p = sub.add_parser("extract", help="scan a codebase for expected entities (and match a model)")
    p.add_argument("--root", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--aliases")
    p.add_argument("--model")
    p.add_argument("--output")

    p = sub.add_parser("assemble", help="render a transformation prompt from a template")
    p.add_argument("--process", required=True, choices=["A", "B", "a", "b"])
    p.add_argument("--stage", required=True)
    p.add_argument("--slot", action="append", default=[],
                   help="NAME=PATH file content, or NAME=@context for a rendered context block")
    p.add_argument("--context-model", dest="context_model")
    p.add_argument("--purpose")
    p.add_argument("--output")

    p = sub.add_parser("report", help="compare metric reports from two workflows")
    p.add_argument("--a", nargs="+", required=True, help="report fragments for side A")
    p.add_argument("--b", nargs="+", required=True, help="report fragments for side B")
    p.add_argument("--output")
    p.add_argument("--markdown")

    for p in sub.choices.values():  # every command takes --json, last in its --help
        p.add_argument("--json", action="store_true")
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The command runs with Python's cyclic garbage collector paused
    (`gc.disable()`): the models it builds are large and acyclic, and the
    collector would otherwise walk all of them again on every older-generation
    pass. Reference counting still frees what a command drops, since the
    program's own objects form no reference cycles. The pause is process-wide
    but lasts only for the command: afterwards the collector is switched back
    on if it was on before, and nothing is collected here. Library calls never
    pause it.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command is None:
        _parser.print_usage(sys.stderr)
        return 2
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # looked up at call time, so a rebound cmd_* (a wrapper, a test double) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ArchmetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
