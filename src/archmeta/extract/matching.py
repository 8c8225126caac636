"""Name normalization and injective matching of expected names to entities.

normalize_name() flattens case and kills separator noise so "pg-dump",
"pg_dump", and "PG Dump" coincide. Matching walks the expected list in
sorted order and greedily claims model entities; each entity is claimable
once, ties go to the smallest entity id, and an alias table (TSV) can
redirect names that normalization alone cannot reconcile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..model import Entity, EntityKind, Metamodel


def normalize_name(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(".", "").replace(" ", "")


def _singular(norm: str) -> str | None:
    # plural folding: only the plain trailing -s form, and never down to nothing
    if len(norm) > 2 and norm.endswith("s") and not norm.endswith("ss"):
        return norm[:-1]
    return None


def load_aliases(text: str) -> dict[str, str]:
    """TSV alias table: '<alias>\\t<canonical>' per line, '#' comments."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            continue
        alias, _, canonical = line.partition("\t")
        alias, canonical = alias.strip(), canonical.strip()
        if alias and canonical:
            out[normalize_name(alias)] = normalize_name(canonical)
    return out


def _keys_for(name: str, aliases: Mapping[str, str]) -> tuple[str, ...]:
    """Candidate lookup keys, most exact first."""
    norm = normalize_name(name)
    norm = aliases.get(norm, norm)
    keys = [norm]
    singular = _singular(norm)
    if singular:
        keys.append(singular)
    return tuple(keys)


@dataclass(frozen=True)
class Match:
    expected_name: str
    kind: EntityKind
    entity_id: str


@dataclass(frozen=True)
class MatchReport:
    matches: tuple[Match, ...]
    unmatched: tuple[tuple[str, EntityKind], ...]

    @property
    def matched_count(self) -> int:
        return len(self.matches)

    @property
    def expected_count(self) -> int:
        return len(self.matches) + len(self.unmatched)


def match_names(
    expected: Sequence[tuple[str, EntityKind]],
    model: Metamodel,
    aliases: Mapping[str, str] | None = None,
) -> MatchReport:
    """Injectively match (name, kind) pairs against model entities.

    An entity is a candidate when its kind equals the expected kind and its
    normalized name (or singular form, or alias redirect) coincides with the
    expected name's. Expected pairs are processed in sorted order so the
    greedy claim sequence is deterministic.
    """
    alias_map = dict(aliases or {})

    # index entities by (kind, key); plural folding applies on both sides
    by_key: dict[tuple[EntityKind, str], list[Entity]] = {}
    for entity in model.entities:
        for key in _keys_for(entity.name, alias_map):
            by_key.setdefault((entity.kind, key), []).append(entity)
    for bucket in by_key.values():
        bucket.sort(key=lambda e: e.id)

    claimed: set[str] = set()
    matches: list[Match] = []
    unmatched: list[tuple[str, EntityKind]] = []
    ordered = sorted(expected, key=lambda pair: (pair[1].value, normalize_name(pair[0]), pair[0]))
    for name, kind in ordered:
        chosen: Entity | None = None
        for key in _keys_for(name, alias_map):
            for entity in by_key.get((kind, key), ()):
                if entity.id not in claimed:
                    chosen = entity
                    break
            if chosen is not None:
                break
        if chosen is None:
            unmatched.append((name, kind))
        else:
            claimed.add(chosen.id)
            matches.append(Match(expected_name=name, kind=kind, entity_id=chosen.id))
    return MatchReport(matches=tuple(matches), unmatched=tuple(unmatched))


def match_expected(
    expected: Iterable,
    model: Metamodel,
    aliases: Mapping[str, str] | None = None,
) -> MatchReport:
    """Convenience over scan results (objects with .name and .kind)."""
    pairs = [(e.name, e.kind) for e in expected]
    return match_names(pairs, model, aliases)
