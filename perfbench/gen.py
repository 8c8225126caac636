"""Seeded input generator for the `wide` and `deep` benchmark workloads.

    python3 perfbench/gen.py --shape wide --seed 7 --out DIR

writes, under DIR:

    reference.archmeta.json   the original model
    model.archmeta.json       a regeneration of it with planted drift
    baseline.archmeta.json    an unconstrained regeneration with more drift
    artifacts/                one rendered view per diagram type, plus two
                              deliberately broken copies
    codebase/, rules.txt      a scan tree naming the expected entities
    answer.json               the facts the generator knows by construction

Every number in answer.json comes from the generator's own bookkeeping (which
entities, edges, traces and violations it planted), never from running the
program under test on the generated files. The views are rendered with
`archmeta.diagrams.render_diagram_view` once, here, so the benchmark itself
only ever reads files.

Construction rules that make the answers exact:

* Every dependency points from a higher (layer ordinal, index) key to a lower
  one, so dependency graphs are acyclic, never point toward an outer layer
  and every layered pattern holds.
* A dependency from inside a container targets the same container, an
  ApiInterface, or an entity outside every container, so the only
  interface-mediation and context-isolation violations are planted ones.
* The only dependency cycle is a planted two-component cycle.
* Entity names are unique after normalization, so named-graph drift equals
  the number of nodes and edges the generator added and removed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

# kind -> (home layer name, layer ordinal)
LAYER = {
    "BusinessCapability": ("Business", 1),
    "BusinessProcess": ("Business", 1),
    "Stakeholder": ("Business", 1),
    "DomainEntity": ("BusinessConceptual", 2),
    "BoundedContext": ("BusinessConceptual", 2),
    "System": ("System", 4),
    "Container": ("System", 4),
    "Component": ("System", 4),
    "ApiInterface": ("System", 4),
    "DataStore": ("System", 4),
    "Event": ("SystemPattern", 5),
    "DeploymentNode": ("SystemRuntime", 7),
    "ServiceInstance": ("Runtime", 8),
    "Queue": ("Runtime", 8),
    "Module": ("Implementation", 9),
    "Class": ("Implementation", 9),
    "Table": ("Implementation", 9),
    "Interaction": ("ImplementationBehavioral", 10),
    "State": ("Behavioral", 11),
    "LegacySystem": ("Evolutionary", 12),
    "RoutingRule": ("Evolutionary", 12),
}

# Entity kinds each typed view shows once rendered and lifted back: the
# notation's element constructs that its lifting vocabulary maps to a kind.
VIEW_KINDS = {
    "BusinessContext": {"System", "Stakeholder"},
    "BusinessCapabilityMap": {"BusinessCapability"},
    "DomainModel": {"DomainEntity", "ValueObject"},
    "BusinessProcess": {"BusinessProcess"},
    "DddContextMap": {"BoundedContext"},
    "CqrsView": {"Component", "DataStore", "Queue"},
    "EventDrivenView": {"Component", "DataStore", "Queue"},
    "CleanOnionView": {"Component"},
    "SystemContainer": {"Container", "DataStore", "ApiInterface", "Queue", "Stakeholder", "System"},
    "ComponentView": {"Component", "DataStore", "ApiInterface", "Queue", "Stakeholder", "Container"},
    "DeploymentInfrastructure": {"DeploymentNode"},
    "IntegrationApi": {"Component", "DataStore", "ApiInterface", "Queue", "Stakeholder"},
    "StranglerMigration": {"System", "LegacySystem", "RoutingRule"},
    "ClassModuleStructure": {"Class", "ApiInterface"},
    "SequenceInteraction": {"Interaction"},
    "DataModelSchema": {"Table"},
    "RuntimeTopology": {"ServiceInstance", "DataStore", "Queue"},
    "StateMachine": {"State"},
}

# Preset catalog size (src/archmeta/data/constraint_preset.json): twelve
# per-layer acyclicity rules plus four model-wide ones.
PRESET_TOTAL = 16

# trace mapping class -> (source-side kinds, target-side kinds)
MAPPING = {
    "capability-container": (("BusinessCapability",), ("Container",)),
    "domain-entity-data-schema": (("DomainEntity",), ("Table",)),
    "component-code-module": (("Component",), ("Module", "Class")),
    "process-interaction": (("BusinessProcess",), ("Interaction",)),
}

# Thirteen distinct tokens; the regeneration swaps the last, so the texts
# share 12 unigrams and 11 bigrams of 25 features each: cosine 23/25.
RESPONSIBILITY = ("catalog intake pricing ledger routing dispatch fulfilment "
                  "settlement tracking alerting archiving export audit")
RESPONSIBILITY_B = RESPONSIBILITY.rsplit(" ", 1)[0] + " compliance"

RULES_TEXT = """\
version 1
services/*/ -> Component
domain/*.py -> DomainEntity
capabilities.json#capabilities -> BusinessCapability
"""

# (shape, size) -> entity counts; the remaining structure is drawn from the seed
SIZES = {
    "wide": {
        "contexts": 5, "containers_per_context": 10, "components_per_container": 10,
        "classes": 950, "modules": 125, "domain": 250, "tables": 150, "capabilities": 50,
        "processes": 25, "interactions": 75, "stakeholders": 5, "events": 12,
        "states": 25, "queues": 75, "nodes": 25, "instances": 75,
        "dependencies_per_entity": 3,
    },
    "deep": {
        "chain": 1000, "short_chain": 50,
        "classes": 100, "modules": 0, "domain": 100, "tables": 40, "capabilities": 20,
        "processes": 10, "interactions": 20, "stakeholders": 5, "events": 5,
        "states": 10, "queues": 60, "nodes": 10, "instances": 20,
        "dependencies_per_entity": 0.5,
    },
}

# drift planted into the regeneration and the baseline:
# (drift-pool nodes removed, new nodes added, dependencies removed, dependencies added)
DRIFT = {
    "wide": {"model": (40, 30, 150, 100), "baseline": (100, 75, 750, 500)},
    "deep": {"model": (20, 10, 40, 30), "baseline": (60, 40, 300, 200)},
}

_ORPHAN_SERVICES = 25
_ORPHAN_DOMAIN = 15
_DROPPED_TRACED = 30
_INVALID_TRACES = 10


class _Draft:
    """The reference model under construction, with the bookkeeping that
    answer.json is computed from."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.entities: list[dict] = []
        self.parent: dict[str, str] = {}
        self.container_of: dict[str, str] = {}
        self.by_kind: dict[str, list[str]] = {}
        self.key: dict[str, tuple[int, int]] = {}
        self.kind: dict[str, str] = {}
        self.name: dict[str, str] = {}
        self.deps: dict[tuple[str, str], str] = {}   # (src, tgt) -> relation id
        self.other_relations: list[dict] = []
        self.protected: set[tuple[str, str]] = set()
        self.pool: tuple[list[str], dict[str, list[str]], list[str]] = ([], {}, [])

    def add(self, kind: str, parent: str | None = None) -> str:
        idx = len(self.entities)
        eid = f"e{idx:05d}"
        name = f"{kind} {idx:05d}"
        self.entities.append({"id": eid, "kind": kind, "name": name, "description": "",
                              "attributes": {}})
        self.by_kind.setdefault(kind, []).append(eid)
        self.key[eid] = (LAYER[kind][1], idx)
        self.kind[eid] = kind
        self.name[eid] = name
        if parent is not None:
            self.parent[eid] = parent
            self.other_relations.append({"id": f"c{idx:05d}", "source": parent, "target": eid,
                                         "kind": "containment", "label": ""})
            box = parent if self.kind[parent] == "Container" else self.container_of.get(parent)
            if box is not None:
                self.container_of[eid] = box
        return eid

    def dep(self, src: str, tgt: str, protect: bool = False) -> str:
        rid = f"d{len(self.deps):06d}"
        self.deps[(src, tgt)] = rid
        if protect:
            self.protected.add((src, tgt))
        return rid

    def flow(self, src: str, tgt: str, kind: str) -> None:
        rid = f"f{len(self.other_relations):06d}"
        self.other_relations.append({"id": rid, "source": src, "target": tgt, "kind": kind,
                                     "label": ""})

    def allowed(self, src: str, tgt: str) -> bool:
        """Direction and container rules every random dependency obeys."""
        if src == tgt or self.key[tgt] >= self.key[src]:
            return False
        box = self.container_of.get(src)
        if box is None or self.kind[tgt] == "ApiInterface":
            return True
        return self.container_of.get(tgt) in (None, box)


def _random_deps(b: _Draft, rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Draw `count` dependencies new to `b` that obey _Draft.allowed, among
    the entities `b.pool` names: (participants, members by container, free)."""
    participants, members, free = b.pool
    apis = b.by_kind.get("ApiInterface", [])
    out: list[tuple[str, str]] = []
    taken: set[tuple[str, str]] = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > count * 200:
            raise RuntimeError("dependency sampling stalled")
        src = rng.choice(participants)
        box = b.container_of.get(src)
        roll = rng.random()
        if box is not None and roll < 0.6:
            tgt = rng.choice(members[box])
        elif roll < 0.8 and apis:
            tgt = rng.choice(apis)
        else:
            tgt = rng.choice(free)
        pair = (src, tgt)
        if pair in b.deps or pair in taken or not b.allowed(src, tgt):
            continue
        taken.add(pair)
        out.append(pair)
    return out


def _build(shape: str, rng: random.Random) -> tuple[_Draft, dict]:
    """The reference model, and what was planted in it."""
    s = SIZES[shape]
    b = _Draft(rng)
    planted: dict = {}

    # --- containment: contexts > containers > components/apis/stores > code
    chain_components: list[str] = []
    if shape == "wide":
        for _ in range(s["contexts"]):
            ctx = b.add("BoundedContext")
            for _ in range(s["containers_per_context"]):
                box = b.add("Container", ctx)
                b.add("ApiInterface", box)
                b.add("DataStore", box)
        for box in list(b.by_kind["Container"]):
            for _ in range(s["components_per_container"]):
                b.add("Component", box)
        hosts = list(b.by_kind["Component"])
    else:
        # two contexts, each with one container; the first holds a chain of
        # components `chain` deep, the second a short one
        for length in (s["chain"], s["short_chain"]):
            ctx = b.add("BoundedContext")
            box = b.add("Container", ctx)
            b.add("ApiInterface", box)
            b.add("DataStore", box)
            parent = box
            for _ in range(length):
                parent = b.add("Component", parent)
                chain_components.append(parent)
        hosts = chain_components
    for _ in range(s["classes"]):
        b.add("Class", rng.choice(hosts))
    for _ in range(s["modules"]):
        b.add("Module", rng.choice(hosts))

    # responsibility text lives on exactly one component
    first_component = b.by_kind["Component"][0]
    b.entities[int(first_component[1:])]["description"] = RESPONSIBILITY

    for kind, count in (("DomainEntity", s["domain"]), ("Table", s["tables"]),
                        ("BusinessCapability", s["capabilities"]),
                        ("BusinessProcess", s["processes"]),
                        ("Interaction", s["interactions"]), ("Stakeholder", s["stakeholders"]),
                        ("Event", s["events"]), ("State", s["states"]), ("Queue", s["queues"]),
                        ("DeploymentNode", s["nodes"]), ("ServiceInstance", s["instances"])):
        for _ in range(count):
            b.add(kind)
    system = b.add("System")
    legacy = b.add("LegacySystem")
    routing = b.add("RoutingRule")
    b.flow(system, legacy, "migration-route")

    # --- planted structure (every planted dependency is protected from drift)
    boxes = b.by_kind["Container"]
    box_a, box_b = boxes[0], boxes[1]
    same_ctx = [x for x in boxes[1:] if b.parent[x] == b.parent[box_a]]
    other_ctx = [x for x in boxes if b.parent[x] != b.parent[box_a]]

    def components_in(box: str) -> list[str]:
        return [c for c in b.by_kind["Component"] if b.container_of.get(c) == box]

    def api_of(box: str) -> str:
        return next(a for a in b.by_kind["ApiInterface"] if b.parent[a] == box)

    def store_of(box: str) -> str:
        return next(d for d in b.by_kind["DataStore"] if b.parent[d] == box)

    comps_a = components_in(box_a)
    # a two-component cycle between fresh components that no random
    # dependency touches, so it stays the only cycle
    cyc_1 = b.add("Component", comps_a[0])
    cyc_2 = b.add("Component", comps_a[0])
    b.dep(cyc_2, cyc_1, protect=True)
    b.dep(cyc_1, cyc_2, protect=True)
    planted["acyclic-system"] = sorted([cyc_1, cyc_2])

    # cross-container, same-context dependency that bypasses the api
    cross_box = []
    if same_ctx:
        src = comps_a[-1]
        tgt = components_in(same_ctx[0])[0]
        if b.key[tgt] > b.key[src]:
            src, tgt = tgt, src
        cross_box.append(b.dep(src, tgt, protect=True))
    # cross-context dependency that bypasses the api: violates both rules
    src = components_in(other_ctx[0])[-1]
    tgt = comps_a[1]
    if b.key[tgt] > b.key[src]:
        src, tgt = tgt, src
    cross_ctx = b.dep(src, tgt, protect=True)
    planted["containers-via-api"] = sorted(cross_box + [cross_ctx])
    planted["contexts-via-api"] = [cross_ctx]

    # facade: a component with three clients and two delegates inside box_b
    comps_b = components_in(box_b)
    hub = comps_b[-1]
    for _ in range(3):
        b.dep(b.add("Class", hub), hub, protect=True)
    b.dep(hub, api_of(box_b), protect=True)
    b.dep(hub, store_of(box_b), protect=True)
    # repository: a component backed by its container's store
    repo = comps_b[0]
    b.entities[int(repo[1:])]["attributes"] = {"role": "repository"}
    b.dep(repo, store_of(box_b), protect=True)
    # event-driven: one brokered event
    event = b.by_kind["Event"][0]
    b.flow(comps_b[1], event, "message-flow")
    b.flow(event, comps_b[2], "message-flow")
    # state machine content for its view
    states = b.by_kind["State"]
    for i in range(1, len(states)):
        b.flow(states[i - 1], states[i], "state-transition")

    # --- random dependencies
    excluded = {"BoundedContext", "Container", "Event", "State", "Queue", "DeploymentNode",
                "ServiceInstance", "System", "LegacySystem", "RoutingRule", "Stakeholder"}
    participants = [e["id"] for e in b.entities
                    if e["kind"] not in excluded and e["id"] not in (cyc_1, cyc_2)]
    members: dict[str, list[str]] = {}
    for eid in participants:
        box = b.container_of.get(eid)
        if box is not None:
            members.setdefault(box, []).append(eid)
    free = [eid for eid in participants if eid not in b.container_of]
    b.pool = (participants, members, free)
    n_deps = int(s["dependencies_per_entity"] * len(b.entities))
    for src, tgt in _random_deps(b, rng, n_deps - len(b.deps)):
        b.dep(src, tgt)
    planted["routing_rule"] = routing
    return b, planted


def _traces(b: _Draft) -> tuple[list[dict], list[dict], set[str], int]:
    """About n/2 trace links: (valid links, kind-invalid links, filled source
    ids, slot count)."""
    rng = b.rng
    links: list[dict] = []
    filled: set[str] = set()
    slots = 0
    budget = len(b.entities) // 2
    sides = []
    for cls, (src_kinds, tgt_kinds) in MAPPING.items():
        sources = [e for k in src_kinds for e in b.by_kind.get(k, [])]
        targets = [e for k in tgt_kinds for e in b.by_kind.get(k, [])]
        slots += len(sources)
        sides.append((cls, sources, targets))
    per_slot = budget / max(1, slots)
    for cls, sources, targets in sides:
        if not targets:
            continue
        for src in sources:
            if rng.random() < 0.1:
                continue
            count = 2 if rng.random() < per_slot - 1 else 1
            for tgt in rng.sample(targets, min(count, len(targets))):
                links.append({"source": src, "target": tgt, "mapping_class": cls})
            filled.add(src)
    # kind-invalid links fill nothing
    caps = b.by_kind["BusinessCapability"]
    tables = b.by_kind["Table"]
    invalid = [{"source": caps[i % len(caps)], "target": tables[i % len(tables)],
                "mapping_class": "capability-container"} for i in range(_INVALID_TRACES)]
    return links, invalid, filled, slots


def _entity_obj(e: dict) -> dict:
    layer = LAYER[e["kind"]][0]
    return {"id": e["id"], "kind": e["kind"], "name": e["name"], "layer": layer,
            "layer_override": False, "description": e["description"],
            "attributes": e["attributes"]}


def _document(system: str, entities: list[dict], relations: list[dict], traces: list[dict]) -> str:
    doc = {
        "schema_version": "1.0",
        "system": system,
        "entities": [_entity_obj(e) for e in entities],
        "relations": relations,
        "traces": traces,
        "constraints": [],
        "diagrams": [],
    }
    return json.dumps(doc, indent=2) + "\n"


def _variant(b: _Draft, planted: dict, drift: tuple[int, int, int, int], tag: str,
             traces: list[dict], invalid: list[dict],
             dropped_sources: set[str]) -> tuple[str, dict]:
    """A drifted copy of the reference. Returns its document and the drift facts."""
    rng = random.Random(f"{b.rng.random()}-{tag}")
    nodes_removed, nodes_added, deps_removed, deps_added = drift
    pool_kinds = ("Queue", "ServiceInstance", "DeploymentNode")
    removable = sorted(e for k in pool_kinds for e in b.by_kind[k])
    gone = set(rng.sample(removable, nodes_removed))
    if tag == "model":
        gone.add(planted["routing_rule"])
    entities = [e for e in b.entities if e["id"] not in gone]
    fresh = [{"id": f"n{tag[0]}{i:05d}", "kind": "Queue", "name": f"Queue {tag} {i:05d}",
              "description": "", "attributes": {}} for i in range(nodes_added)]
    entities = [dict(e) for e in entities] + fresh
    if tag == "model":
        for e in entities:
            if e["description"] == RESPONSIBILITY:
                e["description"] = RESPONSIBILITY_B

    candidates = sorted(pair for pair in b.deps if pair not in b.protected)
    removed = set(rng.sample(candidates, deps_removed))
    added = _random_deps(b, rng, deps_added)
    relations = [r for r in b.other_relations if r["source"] not in gone and r["target"] not in gone]
    deps = [(pair, rid) for pair, rid in b.deps.items() if pair not in removed]
    deps += [(pair, f"x{tag[0]}{i:05d}") for i, pair in enumerate(added)]
    relations += [{"id": rid, "source": s, "target": t, "kind": "dependency", "label": ""}
                  for (s, t), rid in deps]
    kept_traces = [t for t in traces if t["source"] not in dropped_sources] + invalid
    drift_distance = len(gone) + nodes_added + len(removed) + len(added)
    return _document(f"bench-{tag}", entities, relations, kept_traces), {
        "distance": drift_distance, "nodes_removed": len(gone), "nodes_added": nodes_added,
        "edges_removed": len(removed), "edges_added": len(added),
    }


def _write_codebase(root: Path, b: _Draft) -> int:
    services = root / "services"
    services.mkdir(parents=True)
    for cid in b.by_kind["Component"]:
        (services / b.name[cid].lower().replace(" ", "-")).mkdir()
    for i in range(_ORPHAN_SERVICES):
        (services / f"ghost-service-{i:04d}").mkdir()
    domain = root / "domain"
    domain.mkdir()
    for did in b.by_kind["DomainEntity"]:
        (domain / (b.name[did].lower().replace(" ", "_") + ".py")).write_text("", "utf-8")
    for i in range(_ORPHAN_DOMAIN):
        (domain / f"phantom_{i:04d}.py").write_text("", "utf-8")
    caps = {b.name[c]: "tracked" for c in b.by_kind["BusinessCapability"]}
    (root / "capabilities.json").write_text(json.dumps({"capabilities": caps}, indent=2), "utf-8")
    return (len(b.by_kind["Component"]) + len(b.by_kind["DomainEntity"])
            + len(b.by_kind["BusinessCapability"]) + _ORPHAN_SERVICES + _ORPHAN_DOMAIN)


def _write_views(out: Path, reference_text: str, b: _Draft) -> tuple[list[dict], int]:
    from archmeta.diagrams import DiagramType, loads_model, render_diagram_view

    model = loads_model(reference_text)
    art = out / "artifacts"
    art.mkdir()
    views = []
    counts = {}
    for kind in VIEW_KINDS:
        counts[kind] = sum(len(b.by_kind.get(k, [])) for k in VIEW_KINDS[kind])
    for dtype in DiagramType:
        text = render_diagram_view(model, dtype)
        suffix = ".puml" if text.startswith("@startuml") else ".mmd"
        name = f"view-{dtype.value}{suffix}"
        (art / name).write_text(text, "utf-8")
        views.append({"file": f"artifacts/{name}", "type": dtype.value,
                      "entities": counts[dtype.value]})
    # two broken exports: a plantuml view missing @enduml, a mangled mermaid one
    small_puml = (art / "view-BusinessCapabilityMap.puml").read_text("utf-8")
    (art / "broken-export.puml").write_text(small_puml.replace("@enduml\n", ""), "utf-8")
    (art / "broken-export.mmd").write_text("<<unrecoverable export>>\n", "utf-8")
    return views, len(views) + 2


def generate(shape: str, seed: int, out: Path) -> dict:
    if shape not in SIZES:
        raise ValueError(f"unknown shape {shape!r}")
    rng = random.Random(f"{shape}-{seed}")
    b, planted = _build(shape, rng)
    traces, invalid, filled, slots = _traces(b)
    dropped = set(rng.sample(sorted(filled), _DROPPED_TRACED))

    out.mkdir(parents=True, exist_ok=True)
    relations = list(b.other_relations) + [
        {"id": rid, "source": s, "target": t, "kind": "dependency", "label": ""}
        for (s, t), rid in b.deps.items()
    ]
    reference_text = _document("bench-reference", b.entities, relations, traces + invalid)
    (out / "reference.archmeta.json").write_text(reference_text, "utf-8")
    drift_table = DRIFT[shape]
    model_text, model_drift = _variant(b, planted, drift_table["model"], "model", traces, invalid,
                                         dropped)
    (out / "model.archmeta.json").write_text(model_text, "utf-8")
    base_text, base_drift = _variant(b, planted, drift_table["baseline"], "baseline", traces,
                                       invalid, set())
    (out / "baseline.archmeta.json").write_text(base_text, "utf-8")

    expected_count = _write_codebase(out / "codebase", b)
    (out / "rules.txt").write_text(RULES_TEXT, "utf-8")
    views, artifact_total = _write_views(out, reference_text, b)

    violated = {k: planted[k] for k in ("acyclic-system", "containers-via-api", "contexts-via-api")}
    matched = expected_count - _ORPHAN_SERVICES - _ORPHAN_DOMAIN
    filled_model = len(filled - dropped)
    expected_patterns = ["clean-onion", "event-driven", "facade", "layered", "microservices",
                         "repository", "strangler"]
    preserved = [p for p in expected_patterns if p != "strangler"]
    answer = {
        "shape": shape,
        "seed": seed,
        "entities": {"reference": len(b.entities),
                     "model": len(b.entities) - model_drift["nodes_removed"] + model_drift["nodes_added"]},
        "dependencies": len(b.deps),
        "containment_depth": _depth(b),
        "views": views,
        "violated": violated,
        "constraints_total": PRESET_TOTAL,
        "trace": {"slots": slots, "filled": filled_model, "invalid": _INVALID_TRACES},
        "scan": {"expected": expected_count, "matched": matched},
        "artifacts": {"total": artifact_total, "parsable": artifact_total - 2},
        "drift": {"model": model_drift, "baseline": base_drift},
        "patterns": {"expected": expected_patterns, "preserved": preserved},
        "raw": {
            "C": matched / expected_count,
            "SF": (1.0 + 23 / 25 + 1.0) / 3,
            "K": 1 - len(violated) / PRESET_TOTAL,
            "TC": filled_model / slots,
            "MR": (artifact_total - 2) / artifact_total,
            "LCE": max(0.0, 1 - model_drift["distance"] / base_drift["distance"]),
            "CPC": len(preserved) / len(expected_patterns),
        },
    }
    (out / "answer.json").write_text(json.dumps(answer, indent=2) + "\n", "utf-8")
    return answer


def _depth(b: _Draft) -> int:
    best = 0
    for eid in b.parent:
        d, cur = 0, eid
        while cur in b.parent:
            cur = b.parent[cur]
            d += 1
        best = max(best, d)
    return best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--shape", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    answer = generate(args.shape, args.seed, Path(args.out))
    print(json.dumps({k: answer[k] for k in ("shape", "seed", "entities", "dependencies",
                                              "containment_depth")}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
