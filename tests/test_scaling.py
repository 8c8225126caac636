"""Scaling gate: doubling the input must not quadruple the time.

Times the stages that walk containment, preset constraint evaluation plus
pattern detection, on a containment chain of depth n and of depth 2n, each
with depth/2 dependencies pointing down the chain. Only the ratio is checked,
never an absolute time, so the gate holds on slow and fast hosts alike.
"""

from __future__ import annotations

from time import perf_counter

from archmeta.constraints import evaluate_constraints, load_preset_constraints
from archmeta.extract.patterns import detect_patterns
from archmeta.model import Entity, EntityKind, Metamodel, Relation, RelationKind, build_metamodel

N = 1000
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


def _best_time(depth: int) -> float:
    preset = load_preset_constraints()
    best = float("inf")
    for _ in range(REPEATS):
        model = _chain(depth)  # fresh each time: per-model caches are part of the cost
        start = perf_counter()
        evaluate_constraints(model, preset)
        detect_patterns(model)
        best = min(best, perf_counter() - start)
    return best


def test_containment_stages_scale_linearly_in_depth():
    small = _best_time(N)
    large = _best_time(2 * N)
    assert large / small < MAX_RATIO, f"t(2n)/t(n) = {large / small:.2f} ({small:.4f}s -> {large:.4f}s)"
