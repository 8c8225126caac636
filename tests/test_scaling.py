"""Scaling gates: doubling the input must not quadruple the time.

Times the stages that walk containment, preset constraint evaluation plus
pattern detection, on a containment chain of depth n and of depth 2n, each
with depth/2 dependencies pointing down the chain; and the canonical JSON
round trip on a wide model of n and 2n entities with about three dependencies
each. Only the ratio is checked, never an absolute time, so the gates hold on
slow and fast hosts alike. Each gate times its n and 2n runs in alternation,
so both sides sample the same stretch of the host's speed.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable

from archmeta.constraints import evaluate_constraints, load_preset_constraints
from archmeta.diagrams import dumps_model, loads_model
from archmeta.extract.patterns import detect_patterns
from archmeta.model import Entity, EntityKind, Metamodel, Relation, RelationKind, build_metamodel

N = 1000
WIDE_N = 1500
REPEATS = 3
MAX_RATIO = 3.0


def _chain(depth: int) -> Metamodel:
    """context > container > component > component ... , depth nodes deep."""
    kinds = [EntityKind.BoundedContext, EntityKind.Container]
    kinds += [EntityKind.Component] * (depth - len(kinds))
    ids = [f"n{i:05d}" for i in range(depth)]
    entities = [Entity(i, kind, f"Node {i}") for i, kind in zip(ids, kinds)]
    relations = [
        Relation(f"c{i:05d}", ids[i - 1], ids[i], RelationKind.containment)
        for i in range(1, depth)
    ]
    relations += [
        Relation(f"d{k:05d}", ids[2 * k], ids[2 * k + 1], RelationKind.dependency)
        for k in range(depth // 2)
    ]
    return build_metamodel(entities, relations)


def _best_pair(sample: Callable[[int], float], n: int) -> tuple[float, float]:
    """The best of REPEATS samples at n and at 2n, each n sample taken right
    before a 2n one."""
    small = large = float("inf")
    for _ in range(REPEATS):
        small = min(small, sample(n))
        large = min(large, sample(2 * n))
    return small, large


def _containment_time(depth: int) -> float:
    preset = load_preset_constraints()
    model = _chain(depth)  # fresh each time: per-model caches are part of the cost
    start = perf_counter()
    evaluate_constraints(model, preset)
    detect_patterns(model)
    return perf_counter() - start


def test_containment_stages_scale_linearly_in_depth():
    small, large = _best_pair(_containment_time, N)
    assert large / small < MAX_RATIO, f"t(2n)/t(n) = {large / small:.2f} ({small:.4f}s -> {large:.4f}s)"


def _wide(n: int) -> Metamodel:
    """n entities of mixed kinds, each the source of three dependencies."""
    rng = random.Random(n)
    kinds = list(EntityKind)
    ids = [f"e{i:05d}" for i in range(n)]
    entities = [Entity(i, rng.choice(kinds), f"Entity {i}", description="does one thing")
                for i in ids]
    relations = [
        Relation(f"d{i:05d}-{k}", ids[i], ids[rng.randrange(n)], RelationKind.dependency)
        for i in range(n) for k in range(3)
    ]
    return build_metamodel(entities, relations)


def test_canonical_round_trip_scales_linearly_in_entities():
    models = {n: _wide(n) for n in (WIDE_N, 2 * WIDE_N)}

    def round_trip(n: int) -> float:
        start = perf_counter()
        loads_model(dumps_model(models[n]))
        return perf_counter() - start

    small, large = _best_pair(round_trip, WIDE_N)
    assert large / small < MAX_RATIO, f"t(2n)/t(n) = {large / small:.2f} ({small:.4f}s -> {large:.4f}s)"
