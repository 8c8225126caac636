"""What commands in one process reuse. Commands that read the same model
bytes share one loaded Metamodel, nothing they do changes it, and the memo
holds the three models used last; the drift graph and pattern hits derived
from a held model are computed once; and `score` parses no artifact text
that `lift` parsed before it."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import archmeta
from archmeta import cli
from archmeta.diagrams import canonical
from archmeta.extract.patterns import detect_patterns
from archmeta.metrics.delta import named_dependency_graph
from archmeta.model import Metamodel, RelationKind
from archmeta.remote import EMBED_ENDPOINT_VAR
from tests.conftest import DESK_DIR, invoke
from tests.test_cli_outputs import CASES, _clear_outputs, work  # noqa: F401 (fixture)

MODEL_B = DESK_DIR / "process_b.archmeta.json"
SCORE_ARGV = [
    "score", "--model", str(MODEL_B), "--reference", str(DESK_DIR / "original.archmeta.json"),
    "--baseline", str(DESK_DIR / "process_a.archmeta.json"),
    "--codebase", str(DESK_DIR / "codebase"), "--rules", str(DESK_DIR / "rules.txt"),
    "--artifacts", str(DESK_DIR / "artifacts"), "--aliases", str(DESK_DIR / "aliases.txt"),
]


@pytest.fixture(autouse=True)
def _empty_memo(monkeypatch):
    monkeypatch.setattr(cli, "_models", {})
    monkeypatch.delenv(EMBED_ENDPOINT_VAR, raising=False)


@pytest.fixture()
def loads(monkeypatch) -> list[Metamodel]:
    """Every model canonical.loads_model returns from here on, in order."""
    made: list[Metamodel] = []
    real = canonical.loads_model

    def counting(text: str, strict: bool = True) -> Metamodel:
        made.append(real(text, strict))
        return made[-1]

    monkeypatch.setattr(canonical, "loads_model", counting)
    return made


@pytest.fixture()
def served(monkeypatch) -> list[Metamodel]:
    """Every model cli._load_model hands a command from here on, in order."""
    got: list[Metamodel] = []
    real = cli._load_model

    def recording(path: str, flag: str) -> Metamodel:
        got.append(real(path, flag))
        return got[-1]

    monkeypatch.setattr(cli, "_load_model", recording)
    return got


def test_same_bytes_load_once_and_share_the_model(loads, served):
    assert invoke("validate", "--model", str(MODEL_B)).code == 1
    assert invoke("trace", "--model", str(MODEL_B)).code == 0
    assert len(loads) == 1
    assert len(served) == 2 and served[1] is served[0] is loads[0]


def test_same_bytes_at_another_path_share_the_model(loads, tmp_path):
    copy = tmp_path / "copy.json"
    copy.write_bytes(MODEL_B.read_bytes())
    first = invoke("trace", "--model", str(MODEL_B))
    assert invoke("trace", "--model", str(copy)).out == first.out
    assert len(loads) == 1


def test_changed_bytes_with_the_same_size_and_mtime_load_again(loads, tmp_path):
    path = tmp_path / "model.json"
    text = MODEL_B.read_text("utf-8")
    path.write_text(text, encoding="utf-8")
    stamp = path.stat()
    assert invoke("trace", "--model", str(path)).code == 0
    name = loads[-1].entities[0].name
    renamed = ("Q" if name[0] != "Q" else "R") + name[1:]
    path.write_text(text.replace(json.dumps(name), json.dumps(renamed), 1), encoding="utf-8")
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
    assert invoke("trace", "--model", str(path)).code == 0
    assert len(loads) == 2
    assert loads[-1].entities[0].name == renamed


def test_a_failed_load_empties_the_slot(tmp_path):
    good = invoke("validate", "--model", str(MODEL_B))
    assert cli._models
    path = tmp_path / "model.json"
    path.write_text("{", encoding="utf-8")
    bad = invoke("validate", "--model", str(path))
    assert bad.code == 2
    assert bad.err == (f"error: --model: {path}: line 1, col 2: expected valid JSON "
                       "(Expecting property name enclosed in double quotes)\n")
    assert cli._models == {}
    path.write_bytes(MODEL_B.read_bytes())
    again = invoke("validate", "--model", str(path))
    assert (again.code, again.out, again.err) == (good.code, good.out, good.err)


def test_an_unreadable_model_empties_the_slot(tmp_path):
    bad = tmp_path / "model.json"
    bad.write_bytes(b"\xff\xfe{}")
    missing = tmp_path / "ghost.json"
    for path, message in ((bad, f"not UTF-8 text: {bad} (at byte 0: invalid start byte)"),
                          (missing, f"not a readable file: {missing}")):
        invoke("trace", "--model", str(MODEL_B))
        assert cli._models
        result = invoke("trace", "--model", str(path))
        assert result.code == 2
        assert result.err == f"error: --model: {message}\n"
        assert cli._models == {}


def test_score_with_the_model_as_its_reference_matches_a_fresh_process(loads):
    argv = [
        "score", "--model", str(MODEL_B), "--reference", str(MODEL_B),
        "--baseline", str(DESK_DIR / "process_a.archmeta.json"),
        "--codebase", str(DESK_DIR / "codebase"), "--rules", str(DESK_DIR / "rules.txt"),
        "--artifacts", str(DESK_DIR / "artifacts"), "--aliases", str(DESK_DIR / "aliases.txt"),
    ]
    result = invoke(*argv)
    assert len(loads) == 2  # the reference reuses the model; the baseline loads
    env = {k: v for k, v in os.environ.items() if k != EMBED_ENDPOINT_VAR}
    env["PYTHONPATH"] = str(Path(archmeta.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "archmeta.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (result.code, result.out, result.err) == (proc.returncode, proc.stdout, proc.stderr)


def _assert_as_loaded(model: Metamodel, text: str) -> set[str]:
    """`model` equals a fresh load of `text`, and so does each index and each
    derived value cached on it; returns the names of those caches."""
    fresh = canonical.loads_model(text)
    assert model == fresh
    cached = vars(model)
    for name, value in cached.items():
        if name == "_ancestor_tables":
            assert value == {kind: fresh.ancestor_table(kind) for kind in value}, name
        elif name == "_derived":
            assert value == {compute: compute(fresh) for compute in value}, name
        else:
            assert value == getattr(fresh, name), name
    return set(cached)


def test_no_desk_command_changes_the_model_in_the_slot(work, monkeypatch):
    monkeypatch.chdir(work)
    texts = {}
    for path in sorted((work / "desk").glob("*.archmeta.json")):
        data = path.read_bytes()
        texts[hashlib.sha256(data).digest()] = data.decode("utf-8")
    seen: set[str] = set()
    held = 0
    for argv in CASES.values():
        _clear_outputs(work)
        invoke(*argv)
        assert len(cli._models) <= 3
        if not cli._models:
            continue
        held += 1
        for digest, model in cli._models.items():
            seen |= _assert_as_loaded(model, texts[digest])
    _clear_outputs(work)
    assert held >= 30
    assert {"relations_by_kind", "out_relations", "containment_parents",
            "entity_ids_by_layer", "_ancestor_tables", "_derived"} <= seen, seen


def test_a_held_model_serves_its_drift_graph_and_pattern_hits_again():
    model = cli._load_model(str(MODEL_B), "--model")
    graph, hits = named_dependency_graph(model), detect_patterns(model)
    assert hits
    assert named_dependency_graph(model, (RelationKind.dependency,)) is graph
    assert cli._load_model(str(MODEL_B), "--model") is model
    assert named_dependency_graph(model) is graph
    assert detect_patterns(model) is hits


def test_other_relation_kinds_are_computed_not_served_from_the_cache():
    model = cli._load_model(str(MODEL_B), "--model")
    default = named_dependency_graph(model)
    kinds = (RelationKind.dependency, RelationKind.data_flow)
    wider = named_dependency_graph(model, kinds)
    assert wider.edges > default.edges
    again = named_dependency_graph(model, kinds)
    assert again == wider and again is not wider
    assert named_dependency_graph(model) is default


def test_score_parses_no_artifact_that_lift_parsed(tmp_path, parses):
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    for path in sorted((DESK_DIR / "artifacts").iterdir()):
        (artifacts / path.name).write_bytes(path.read_bytes())
    views = {"c4-": "SystemContainer", "seq-": "EventDrivenView"}
    for prefix, view in views.items():
        lifted = [str(p) for p in sorted(artifacts.glob(prefix + "*")) if p.name != "c4-07.puml"]
        argv = ["lift", "--type", view, "--output", str(tmp_path / f"{view}.json"), *lifted]
        assert invoke(*argv).code == 0
    argv = [str(artifacts) if arg == str(DESK_DIR / "artifacts") else arg for arg in SCORE_ARGV]
    assert invoke(*argv).code == 0
    texts = [p.read_text("utf-8") for p in sorted(artifacts.iterdir())]
    assert len(set(texts)) == len(texts) == 50
    assert sorted(parses) == sorted(texts)  # each text once, the broken one by score
    edited = artifacts / "seq-03.mmd"
    text = edited.read_text("utf-8").replace("Emitter 3", "Emitted 3")  # one byte
    edited.write_text(text, encoding="utf-8")
    assert invoke(*argv).code == 0
    assert parses[50:] == [text]


def test_a_repeated_desk_cycle_loads_each_model_once(loads, tmp_path):
    model = str(MODEL_B)
    cycle = [
        ["validate", "--model", model],
        ["trace", "--model", model],
        ["assemble", "--process", "B", "--stage", "td-to-bd", "--slot", "td_and_diagrams=@context",
         "--context-model", model, "--purpose", "service-structure",
         "--output", str(tmp_path / "prompt.txt")],
        SCORE_ARGV,
    ]
    first = [invoke(*argv) for argv in cycle]
    second = [invoke(*argv) for argv in cycle]
    assert [(r.code, r.out, r.err) for r in second] == [(r.code, r.out, r.err) for r in first]
    assert len(loads) == 3
    files = (MODEL_B, DESK_DIR / "original.archmeta.json", DESK_DIR / "process_a.archmeta.json")
    assert set(cli._models) == {hashlib.sha256(f.read_bytes()).digest() for f in files}


def _variants(tmp_path: Path, n: int) -> list[str]:
    """Paths of n model files, each the desk model B with its own bytes."""
    data = MODEL_B.read_bytes()
    paths = [tmp_path / f"model-{i}.json" for i in range(n)]
    for i, path in enumerate(paths):
        path.write_bytes(data + b"\n" * i)
    return [str(path) for path in paths]


def test_the_least_recently_used_model_is_dropped_first(loads, tmp_path):
    a, b, c, d = _variants(tmp_path, 4)
    held = {path: cli._load_model(path, "--model") for path in (a, b, c)}
    assert cli._load_model(a, "--model") is held[a]
    cli._load_model(d, "--model")
    assert len(loads) == 4
    assert cli._load_model(b, "--model") is not held[b]
    assert len(loads) == 5
    assert cli._load_model(a, "--model") is held[a]
    assert len(loads) == 5


def test_no_more_than_three_models_are_held(tmp_path, monkeypatch):
    paths = _variants(tmp_path, 6)
    made: list[weakref.ref[Metamodel]] = []
    real = canonical.loads_model

    def alive() -> int:
        return sum(ref() is not None for ref in made)

    def watched(text: str, strict: bool = True) -> Metamodel:
        assert alive() <= 2  # the least recently used is freed before the build
        model = real(text, strict)
        made.append(weakref.ref(model))
        return model

    monkeypatch.setattr(canonical, "loads_model", watched)
    for path in paths + paths[::-1]:
        cli._load_model(path, "--model")
        assert len(cli._models) <= 3
        assert alive() <= 3
    assert len(made) == 9  # six loads, then three of the reversed pass hit


def test_cli_import_leaves_hashlib_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(archmeta.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, archmeta.cli; print('hashlib' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
