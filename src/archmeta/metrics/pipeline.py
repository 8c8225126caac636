"""Score a regenerated architecture on the seven metrics, as one call.

`score_architecture` takes inputs that are already loaded (models, the scan
result, artifact texts, a constraint catalog) and runs one stage per metric:
C, SF, K, TC, MR, LCE, CPC. Each stage returns its raw value and the inputs
behind it, which the report keeps as its audit trail. Reading files and
flags is the caller's business (see `archmeta score`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..constraints import consistency_score, evaluate_constraints, violation_counts
from ..diagrams.parse import check_parsability
from ..extract.matching import match_expected
from ..extract.patterns import detected_names
from ..traces import traceability_coverage
from .delta import graph_delta, named_dependency_graph
from .embedding import dense_vector, lexical_embed
from .scores import (
    MetricReport,
    completeness,
    completeness_ratio,
    constraint_effectiveness,
    document_groups,
    group_cosines,
    machine_readability,
    mean_cosine,
    pattern_coverage,
    score_report,
)

if TYPE_CHECKING:
    from ..extract.scan import ExpectedEntity
    from ..model import Constraint, Metamodel
    from ..remote import EmbeddingClient

Stage = tuple[float, dict[str, Any]]  # raw value, inputs behind it


def score_architecture(
    model: Metamodel,
    reference: Metamodel,
    baseline: Metamodel,
    expected: Sequence[ExpectedEntity],
    aliases: Mapping[str, str] | None,
    artifacts: Iterable[tuple[str, str]],
    constraints: Iterable[Constraint],
    expected_patterns: Iterable[str] | None = None,
    client: EmbeddingClient | None = None,
) -> MetricReport:
    """The seven-metric report of `model`, regenerated from `reference`.

    `baseline` is an unconstrained regeneration, the yardstick for drift;
    `expected` is what `scan_expected` found in the codebase; `artifacts` are
    (name, text) pairs of diagram files. `expected_patterns` of None means
    the patterns detected on the reference. Without a `client`, semantic
    fidelity uses the lexical embedder.
    """
    stages = {  # run in this order, which is also the report's
        "C": _completeness(expected, model, aliases),
        "SF": _semantic_fidelity(reference, model, client),
        "K": _consistency(model, constraints),
        "TC": _traceability_coverage(model),
        "MR": _machine_readability(artifacts),
    }
    stages["LCE"] = _constraint_effectiveness(reference, model, baseline, stages["K"][1])
    stages["CPC"] = _pattern_coverage(reference, model, expected_patterns)
    return score_report({key: raw for key, (raw, _) in stages.items()},
                        {key: inputs for key, (_, inputs) in stages.items()})


def _completeness(expected: Sequence[ExpectedEntity], model: Metamodel,
                  aliases: Mapping[str, str] | None) -> Stage:
    report = match_expected(expected, model, aliases)
    return completeness(len(expected), report.matched_count), {
        "expected_count": len(expected),
        "matched_count": report.matched_count,
        "unclamped_ratio": completeness_ratio(len(expected), report.matched_count),
        "unmatched": [f"{kind.value}:{name}" for name, kind in report.unmatched],
    }


def _semantic_fidelity(reference: Metamodel, model: Metamodel,
                       client: EmbeddingClient | None) -> Stage:
    original, regenerated = document_groups(reference), document_groups(model)
    if client is None:
        embedder = lexical_embed
    else:  # every distinct text in one request
        texts = list(dict.fromkeys(
            text for groups in (original, regenerated) for text in groups.values() if text.strip()
        ))
        vectors = dict(zip(texts, map(dense_vector, client.embed_texts(texts)))) if texts else {}
        embedder = vectors.__getitem__
    cosines = group_cosines(original, regenerated, embedder)
    provider = (client.provider_info() if client
                else {"provider": "lexical-tf-1+2gram", "dimension": None})
    return mean_cosine(cosines), {"group_cosines": cosines, "provider": provider}


def _consistency(model: Metamodel, constraints: Iterable[Constraint]) -> Stage:
    results = evaluate_constraints(model, constraints)
    violated, total = violation_counts(results)
    return consistency_score(results), {
        "violated": violated,
        "total": total,
        "violated_ids": [r.constraint_id for r in results if r.violated],
    }


def _traceability_coverage(model: Metamodel) -> Stage:
    report = traceability_coverage(model)
    return report.coverage, {"slots_filled": report.slots_filled,
                             "slots_total": report.slots_total}


def _machine_readability(artifacts: Iterable[tuple[str, str]]) -> Stage:
    audit = check_parsability(artifacts)
    return machine_readability(audit), {
        "parsable_count": audit.parsable_count,
        "total_count": audit.total_count,
        "failed": [a.name for a in audit.artifacts if a.parse_status != "parsed"],
    }


def _constraint_effectiveness(reference: Metamodel, model: Metamodel, baseline: Metamodel,
                              consistency: Mapping[str, Any]) -> Stage:
    reference_graph = named_dependency_graph(reference)
    drift = graph_delta(reference_graph, named_dependency_graph(model)).distance
    baseline_distance = graph_delta(reference_graph, named_dependency_graph(baseline)).distance
    violated, total = consistency["violated"], consistency["total"]
    return constraint_effectiveness(drift, baseline_distance), {
        "drift_distance": drift,
        "baseline_distance": baseline_distance,
        # reported alongside, never folded into the LCE value
        "constraint_violation_rate": violated / total if total else 0.0,
    }


def _pattern_coverage(reference: Metamodel, model: Metamodel,
                      expected_patterns: Iterable[str] | None) -> Stage:
    expected = (set(detected_names(reference)) if expected_patterns is None
                else set(expected_patterns))
    preserved = detected_names(model)
    return pattern_coverage(expected, preserved), {
        "expected": sorted(expected),
        "preserved": sorted(preserved),
        "kept": sorted({p.casefold() for p in expected} & {p.casefold() for p in preserved}),
    }
