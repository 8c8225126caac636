"""Independent reference computations the test suite checks the package against.

Everything here is deliberately written from the definitions, not from the
package code: different tokenization, Fraction arithmetic instead of float
where a ratio is exact, and an exhaustive edit-script search for graph
distance. Tests freeze expected values produced by these functions and then
assert the package agrees.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from archmeta.model import EntityKind, Metamodel, Relation, RelationKind


# ---------------------------------------------------------------- tokens


def oracle_tokens(text: str) -> list[str]:
    # character-class walk instead of a regex, same token language
    cleaned = "".join(ch if ch.isascii() and ch.isalnum() else " " for ch in text.lower())
    return cleaned.split()


def oracle_term_freq(text: str) -> dict[str, int]:
    tokens = oracle_tokens(text)
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    for first, second in zip(tokens, tokens[1:]):
        key = first + " " + second
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    dot = math.fsum(a[k] * b[k] for k in a if k in b)
    na = math.fsum(v * v for v in a.values())
    nb = math.fsum(v * v for v in b.values())
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = dot / math.sqrt(na * nb)
    return min(1.0, max(0.0, value))


def oracle_text_cosine(text_a: str, text_b: str) -> float:
    return oracle_cosine(oracle_term_freq(text_a), oracle_term_freq(text_b))


def oracle_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------- ratios


def oracle_completeness(expected_count: int, matched_count: int) -> float:
    ratio = Fraction(matched_count, expected_count)
    return float(min(Fraction(1), ratio))


def oracle_consistency(violated: int, total: int) -> float:
    return float(1 - Fraction(violated, total))


def oracle_coverage(filled: int, total: int) -> float:
    return float(Fraction(filled, total))


def oracle_readability(parsable: int, total: int) -> float:
    return float(Fraction(parsable, total))


def oracle_effectiveness(drift: int, baseline: int) -> float:
    if baseline == 0:
        return 1.0 if drift == 0 else 0.0
    value = 1 - Fraction(drift, baseline)
    return float(min(Fraction(1), max(Fraction(0), value)))


def oracle_pattern_coverage(expected: Iterable[str], preserved: Iterable[str]) -> float:
    exp = {name.casefold() for name in expected}
    pres = {name.casefold() for name in preserved}
    return float(Fraction(len(exp & pres), len(exp)))


def oracle_ordinal(raw: float) -> float:
    # half-up to one decimal place, done in integer arithmetic
    scaled = Fraction(Decimal(str(raw))) * 5 * 10
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    if 2 * remainder >= scaled.denominator:
        whole += 1
    return whole / 10


# ---------------------------------------------------------------- graphs


def oracle_edit_distance(
    nodes_a: frozenset[str] | set[str],
    edges_a: set[tuple[str, str]] | frozenset[tuple[str, str]],
    nodes_b: frozenset[str] | set[str],
    edges_b: set[tuple[str, str]] | frozenset[tuple[str, str]],
) -> int:
    """Exhaustive minimum edit script between two name-identified graphs.

    Allowed operations, one unit each: delete node, insert node, delete edge,
    insert edge. A node kept across the edit must exist on both sides under
    the same name; an edge survives for free only when both endpoints are
    kept and the edge exists on both sides. The search tries every subset of
    the shared names as the kept set, so the result is a true minimum rather
    than a formula.
    """
    shared = sorted(set(nodes_a) & set(nodes_b))
    best = None
    for mask in range(1 << len(shared)):
        kept = {shared[i] for i in range(len(shared)) if mask >> i & 1}
        cost = (len(nodes_a) - len(kept)) + (len(nodes_b) - len(kept))
        for edge in edges_a:
            survives = edge[0] in kept and edge[1] in kept and edge in edges_b
            if not survives:
                cost += 1
        for edge in edges_b:
            survives = edge[0] in kept and edge[1] in kept and edge in edges_a
            if not survives:
                cost += 1
        if best is None or cost < best:
            best = cost
    return best if best is not None else 0


def oracle_ancestor_of_kind(model: Metamodel, entity_id: str, kind: EntityKind) -> str | None:
    """Nearest ancestor (or self) of the given kind, by a fresh walk per call.

    Depth-first up the containment parents, stopping at each match; more than
    one distinct match is ambiguous membership and gives None.
    """
    found: set[str] = set()
    seen: set[str] = set()
    stack = [entity_id]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        ent = model.entity_index.get(current)
        if ent is not None and ent.kind is kind:
            found.add(current)
            continue  # nearest: do not climb past a match
        stack.extend(model.containment_parents.get(current, ()))
    if len(found) == 1:
        return next(iter(found))
    return None


# ---------------------------------------------------------------- constraint scope


def oracle_scoped_ids(model: Metamodel, scope: Mapping[str, Sequence[str]]) -> set[str] | None:
    """Entity ids a scope admits, by one pass over every entity; None when unscoped."""
    if not scope:
        return None
    layers = set(scope.get("layers", ()))
    explicit = set(scope.get("entities", ()))
    out = set()
    for entity in model.entities:
        if entity.id in explicit or entity.layer.name in layers:
            out.add(entity.id)
    return out


def oracle_scoped_relations(
    model: Metamodel, in_scope: set[str] | None, kinds: Iterable[RelationKind]
) -> list[Relation]:
    """Relations of the given kinds with both endpoints in scope, by one pass
    over every relation, so in model order."""
    wanted = set(kinds)
    rels = []
    for rel in model.relations:
        if rel.kind not in wanted:
            continue
        if in_scope is not None and (rel.source not in in_scope or rel.target not in in_scope):
            continue
        rels.append(rel)
    return rels


# ---------------------------------------------------------------- canonical JSON


def oracle_dumps_model(model: Metamodel) -> str:
    """Canonical document built as nested dicts and written by json.dumps.

    The pure-Python encoder composition the package's template writer
    replaced; its output defines the canonical bytes.
    """
    def scope(vals: Mapping[str, Sequence[str]]) -> dict[str, list[str]] | None:
        out = {key: sorted(vals[key]) for key in ("layers", "entities") if vals.get(key)}
        return out or None

    doc = {
        "schema_version": "1.0",
        "system": model.system,
        "entities": [
            {
                "id": e.id,
                "kind": e.kind.value,
                "name": e.name,
                "layer": e.layer.name,
                "layer_override": e.layer_override,
                "description": e.description,
                "attributes": {k: e.attributes[k] for k in sorted(e.attributes)},
            }
            for e in sorted(model.entities, key=lambda e: e.id)
        ],
        "relations": [
            {"id": r.id, "source": r.source, "target": r.target,
             "kind": r.kind.value, "label": r.label}
            for r in sorted(model.relations, key=lambda r: r.id)
        ],
        "traces": [
            {"source": t.source, "target": t.target, "mapping_class": t.mapping_class.value}
            for t in sorted(model.traces,
                            key=lambda t: (t.mapping_class.value, t.source, t.target))
        ],
        "constraints": [
            {"id": c.id, "kind": c.kind.value, "scope": scope(c.scope),
             "params": {k: c.params[k] for k in sorted(c.params)}}
            for c in sorted(model.constraints, key=lambda c: c.id)
        ],
        "diagrams": [
            {"name": d.name, "type": d.type, "format": d.format,
             "source_digest": d.source_digest}
            for d in sorted(model.diagrams, key=lambda d: d.name)
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
