"""Span recording around archmeta's public functions, from outside the package.

`install(recorder)` wraps each layer's public functions and rebinds every
`archmeta.*` module attribute that holds the original function object, so a
call made through any import path (`archmeta.cli.loads_model`,
`archmeta.diagrams.canonical.loads_model`, ...) opens a span. Spans nest on
one stack, so each one lands under the `cmd_*` call that made it. The returned
callable restores the originals.

A layer's self time is the duration of its spans minus the time their child
spans cover. Two wrappers differ from the plain span:

* `evaluate_constraint` names its span after the constraint kind
  (`constraints.context-isolation`), so each kind gets its own self time.
* `Metamodel.ancestor_of_kind` is timed as a detail, not a span: it is called
  once or twice per dependency edge, and its time stays inside the self time
  of whichever constraint kind or pattern detector asked, the caller that a
  faster containment walk would speed up. `model.ancestor_of_kind.*` reports
  the calls and the time on their own, outside the layer sums.

The one-line accessors `Metamodel.entity`, `model.layer_of` and
`extract.matching.normalize_name` are not wrapped: they run tens of thousands
of times per cycle and the wrapper would cost more than they do.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

LAYERS = (
    "cli", "model", "diagrams.canonical", "diagrams.parse", "diagrams.lifting",
    "diagrams.render", "constraints", "traces", "extract.scan", "extract.matching",
    "extract.patterns", "metrics.delta", "metrics.scores", "prompts",
)

CONSTRAINT_KINDS = (
    "dependency-direction", "layer-boundary", "acyclicity", "context-isolation",
    "cqrs-separation", "interface-mediation",
)

# (layer, module, public functions); methods are handled in install()
_FUNCTIONS = (
    ("cli", "archmeta.cli", ("main", "build_parser", "cmd_lift", "cmd_validate", "cmd_trace",
                             "cmd_assemble", "cmd_score", "cmd_parse", "cmd_diff", "cmd_extract",
                             "cmd_report")),
    ("model", "archmeta.model", ("build_metamodel", "validate_well_formed", "dependency_graph")),
    ("diagrams.canonical", "archmeta.diagrams.canonical",
     ("loads_model", "dumps_model", "parse_canonical")),
    ("diagrams.parse", "archmeta.diagrams.parse",
     ("parse_diagram", "check_parsability", "detect_format")),
    ("diagrams.lifting", "archmeta.diagrams.lifting",
     ("lift_to_metamodel", "lift_diagram", "combine_fragments", "load_lifting_table")),
    ("diagrams.render", "archmeta.diagrams.render",
     ("render_diagram_view", "serialize_metamodel", "view_entity_kinds", "view_notation",
      "view_format")),
    ("constraints", "archmeta.constraints",
     ("evaluate_constraints", "evaluate_constraint", "constraints_from_json",
      "load_preset_constraints", "validate_constraint_params", "violation_counts",
      "consistency_score")),
    ("traces", "archmeta.traces", ("traceability_coverage", "trace_matrix", "matrix_to_tsv")),
    ("extract.scan", "archmeta.extract.scan", ("scan_expected", "load_rules")),
    ("extract.matching", "archmeta.extract.matching",
     ("match_expected", "match_names", "load_aliases")),
    ("extract.patterns", "archmeta.extract.patterns", ("detect_patterns", "detected_names")),
    ("metrics.delta", "archmeta.metrics.delta",
     ("model_delta", "graph_delta", "named_dependency_graph")),
    ("metrics.scores", "archmeta.metrics.scores",
     ("completeness", "completeness_ratio", "document_groups", "semantic_fidelity",
      "semantic_fidelity_between", "machine_readability", "constraint_effectiveness",
      "pattern_coverage", "ordinal_score", "score_report")),
    ("prompts", "archmeta.prompts.context",
     ("render_context_block", "select_diagram_set", "describe_constraint")),
    ("prompts", "archmeta.prompts.templates",
     ("assemble_prompt", "load_template", "prompt_filename", "missing_sections")),
)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        # [id, parent id, cycle, layer, name, start, end]
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.cycle = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.detail_calls: dict[str, int] = defaultdict(int)
        self.detail_seconds: dict[str, float] = defaultdict(float)
        self.origin = perf_counter()

    def open(self, layer: str, name: str) -> list[Any]:
        record = [len(self.spans), self.stack[-1] if self.stack else None, self.cycle,
                  layer, name, 0.0, 0.0]
        self.spans.append(record)
        self.stack.append(record[0])
        record[5] = perf_counter()
        return record

    def close(self, record: list[Any]) -> None:
        record[6] = perf_counter()
        self.stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        self_s = [r[6] - r[5] for r in self.spans]
        for r in self.spans:
            if r[1] is not None:
                self_s[r[1]] -= r[6] - r[5]
        return self_s

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for sid, parent, cycle, layer, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "trace": cycle, "layer": layer, "name": name,
                    "start": start - self.origin, "end": end - self.origin,
                }) + "\n")


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_loads(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["diagrams.canonical.bytes_in"] += _utf8_len(_arg(args, kwargs, 0, "text"))


def _count_dumps(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["diagrams.canonical.bytes_out"] += _utf8_len(result)


def _count_parse(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["diagrams.parse.bytes"] += _utf8_len(_arg(args, kwargs, 0, "text"))
    rec.counts["diagrams.parse.attempted"] += 1
    rec.counts["diagrams.parse.parsed"] += result.parse_status == "parsed"


def _count_lift(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["diagrams.lifting.entities_out"] += len(result.entities)


def _count_render(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["diagrams.render.bytes_out"] += _utf8_len(result)


def _count_constraint(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["constraints.evaluated"] += 1
    rec.counts["constraints.violated"] += result.violated


def _count_match(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["extract.matching.matched"] += result.matched_count
    rec.counts["extract.matching.expected"] += result.expected_count


def _count_prompt(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["prompts.bytes_out"] += _utf8_len(result)


_COUNTERS: dict[str, Callable[[Recorder, tuple, dict, Any], None]] = {
    "loads_model": _count_loads,
    "parse_canonical": _count_loads,
    "dumps_model": _count_dumps,
    "parse_diagram": _count_parse,
    "lift_to_metamodel": _count_lift,
    "render_diagram_view": _count_render,
    "serialize_metamodel": _count_render,
    "evaluate_constraint": _count_constraint,
    "match_names": _count_match,
    "assemble_prompt": _count_prompt,
}


def _span_wrapper(rec: Recorder, layer: str, fn: Callable, name: str,
                  namer: Callable[[tuple, dict], str] | None = None) -> Callable:
    counter = _COUNTERS.get(fn.__name__)
    label = f"{layer}.{name}"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        record = rec.open(layer, namer(args, kwargs) if namer else label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(record)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return wrapper


def _detail_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.detail_seconds[name] += perf_counter() - start
            rec.detail_calls[name] += 1

    return wrapper


def _constraint_span_name(args: tuple, kwargs: dict) -> str:
    return "constraints." + _arg(args, kwargs, 1, "constraint").kind.value


def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every archmeta.* module attribute holding `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "archmeta" or mod_name.startswith("archmeta.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer's public functions; returns the function that undoes it."""
    import archmeta.cli  # noqa: F401  (loads every layer module)
    from archmeta.metrics.scores import MetricReport
    from archmeta.model import Metamodel
    from archmeta.prompts.context import ContextBlock

    undo: list[tuple[Any, str, Any]] = []
    for layer, mod_name, names in _FUNCTIONS:
        module = sys.modules[mod_name]
        for name in names:
            original = getattr(module, name)
            namer = _constraint_span_name if name == "evaluate_constraint" else None
            _rebind(original, _span_wrapper(rec, layer, original, name, namer), undo)

    methods = [
        (Metamodel, "entities_of_kind", _span_wrapper(rec, "model", Metamodel.entities_of_kind,
                                                      "Metamodel.entities_of_kind")),
        (Metamodel, "ancestor_of_kind", _detail_wrapper(rec, "model.ancestor_of_kind",
                                                        Metamodel.ancestor_of_kind)),
        (ContextBlock, "to_text", _span_wrapper(rec, "prompts", ContextBlock.to_text,
                                                "ContextBlock.to_text")),
        (MetricReport, "to_markdown", _span_wrapper(rec, "metrics.scores", MetricReport.to_markdown,
                                                    "MetricReport.to_markdown")),
        (MetricReport, "to_canonical_fragment",
         _span_wrapper(rec, "metrics.scores", MetricReport.to_canonical_fragment,
                       "MetricReport.to_canonical_fragment")),
    ]
    for cls, attr, wrapper in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)
    # cached model indexes: a span the first time each is built on a model
    cached = []
    for attr in ("entity_index", "containment_parents"):
        prop = Metamodel.__dict__[attr]
        cached.append((prop, prop.func))
        prop.func = _span_wrapper(rec, "model", prop.func, f"Metamodel.{attr}")

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
        for prop, func in cached:
            prop.func = func

    return uninstall


def layer_metrics(rec: Recorder, cycles: int) -> dict[str, float]:
    """Per-cycle layer figures from the spans and counters of `cycles` cycles."""
    self_s = rec.self_times()
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    for record, own in zip(rec.spans, self_s):
        layer, name = record[3], record[4]
        if record[1] is not None:  # cycle roots are not calls
            calls[layer] += 1
        seconds[layer] += own
        by_name[name] += own
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / cycles
        out[f"{layer}.self_s"] = seconds[layer] / cycles
    detail = "model.ancestor_of_kind"
    out[f"{detail}.calls"] = rec.detail_calls[detail] / cycles
    out[f"{detail}.self_s"] = rec.detail_seconds[detail] / cycles
    out["constraints.evaluated"] = rec.counts["constraints.evaluated"] / cycles
    out["constraints.violated"] = rec.counts["constraints.violated"] / cycles
    for kind in CONSTRAINT_KINDS:
        out[f"constraints.{kind}.self_s"] = by_name[f"constraints.{kind}"] / cycles
    for key in ("diagrams.canonical.bytes_in", "diagrams.canonical.bytes_out",
                "diagrams.parse.bytes", "diagrams.lifting.entities_out",
                "diagrams.render.bytes_out", "prompts.bytes_out"):
        out[key] = rec.counts[key] / cycles
    out["diagrams.parse.parsed_ratio"] = (rec.counts["diagrams.parse.parsed"]
                                          / max(1.0, rec.counts["diagrams.parse.attempted"]))
    out["extract.matching.matched_ratio"] = (rec.counts["extract.matching.matched"]
                                             / max(1.0, rec.counts["extract.matching.expected"]))
    return out
