"""What one command run does to its process and its files.

`cli.main` pauses the cyclic garbage collector for the command and restores
the caller's setting afterwards, whatever the outcome; no command leaves
cyclic garbage that holds an archmeta function or object, and writing a
model leaves one encoder's worth however large the model; written files get
the permission bits `open(path, "w")` would give them; and a package chain
deeper than Python's recursion limit still renders.
"""

from __future__ import annotations

import gc
import os
import stat
import subprocess
import sys
import types
from pathlib import Path
from typing import Callable

import pytest

import archmeta
from archmeta import cli
from archmeta.diagrams.canonical import dumps_model
from archmeta.model import (
    Constraint,
    ConstraintKind,
    Entity,
    EntityKind,
    Relation,
    RelationKind,
    build_metamodel,
)
from archmeta.remote import EMBED_ENDPOINT_VAR
from tests.conftest import DESK_DIR, invoke
from tests.test_cli_outputs import CASES, work  # noqa: F401  (work is a fixture)

MODEL_B = str(DESK_DIR / "process_b.archmeta.json")
CHAIN_DEPTH = 1200  # well past the default recursion limit of 1000


@pytest.fixture()
def collector():
    """Restores the collector's setting the test found."""
    was_enabled = gc.isenabled()
    yield
    gc.enable() if was_enabled else gc.disable()


def _set_collector(enabled: bool) -> None:
    gc.enable() if enabled else gc.disable()


# ---------------------------------------------------------------- the pause


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["trace", "--model", MODEL_B], 0),
    (["validate", "--model", MODEL_B], 1),
    (["validate", "--model", "ghost.archmeta.json"], 2),
    ([], 2),  # no command: usage before any command runs
])
def test_main_restores_the_collector_setting_on_every_exit_code(enabled, argv, code, collector):
    _set_collector(enabled)
    assert invoke(*argv).code == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["validate"], ["--help"], ["validate", "--help"], ["nope"]])
def test_main_restores_the_collector_setting_when_argparse_exits(enabled, argv, collector, capsys):
    _set_collector(enabled)
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_command_runs_paused_and_an_escaping_exception_restores_the_setting(
        enabled, collector, monkeypatch):
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", crash)
    _set_collector(enabled)
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["validate", "--model", MODEL_B])
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_library_calls_leave_the_collector_alone(collector):
    from archmeta.diagrams.canonical import loads_model

    gc.enable()
    loads_model(Path(MODEL_B).read_text("utf-8"))
    assert gc.isenabled()


# ---------------------------------------------------------------- cyclic garbage


def _chain_model(path: Path, depth: int = CHAIN_DEPTH) -> Path:
    """A chain of containers, each containing the next."""
    entities = [Entity(f"c{i}", EntityKind.Container, f"c{i}") for i in range(depth)]
    relations = [Relation(f"r{i}", f"c{i}", f"c{i + 1}", RelationKind.containment)
                 for i in range(depth - 1)]
    path.write_text(dumps_model(build_metamodel(entities, relations)), encoding="utf-8")
    return path


def _chain_assemble(model: Path, output: Path) -> list[str]:
    return ["assemble", "--process", "B", "--stage", "td-to-bd",
            "--slot", "td_and_diagrams=@context", "--context-model", str(model),
            "--purpose", "service-structure", "--output", str(output)]


def _is_ours(obj: object) -> bool:
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("archmeta")
    return type(obj).__module__.startswith("archmeta")


def _cyclic_garbage(run: Callable[[], object]) -> list[object]:
    """Every object that one call leaves for the cyclic collector to free."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


def _archmeta_garbage(argv: list[str]) -> list[str]:
    """The archmeta functions and objects among the cyclic garbage one run leaves."""
    return sorted(getattr(o, "__qualname__", type(o).__qualname__)
                  for o in _cyclic_garbage(lambda: invoke(*argv)) if _is_ours(o))


def test_dumping_a_model_leaves_one_encoder_cycle_however_many_free_values():
    # json's indenting encoder leaves a cycle of four closures per call; the
    # writer makes one call for all attributes, scopes and params
    entities = [Entity(f"e{i}", EntityKind.Component, f"e{i}", attributes={"n": i, "tags": ["a"]})
                for i in range(300)]
    constraints = [Constraint(f"k{i}", ConstraintKind.acyclicity, scope={"entities": ("e1",)},
                              params={"relation_kinds": ["dependency"]}) for i in range(20)]
    model = build_metamodel(entities, constraints=constraints)
    garbage = _cyclic_garbage(lambda: dumps_model(model))
    assert sum(isinstance(o, types.FunctionType) for o in garbage) <= 4


def test_no_command_leaves_archmeta_objects_in_cyclic_garbage(work, tmp_path, monkeypatch):
    monkeypatch.delenv(EMBED_ENDPOINT_VAR, raising=False)
    monkeypatch.chdir(work)
    runs = {case: _archmeta_garbage(argv) for case, argv in CASES.items()}
    chain = _chain_model(tmp_path / "chain.archmeta.json")
    runs["assemble-chain"] = _archmeta_garbage(_chain_assemble(chain, tmp_path / "p.txt"))
    assert {case: found for case, found in runs.items() if found} == {}


# ---------------------------------------------------------------- deep package chains


def test_assemble_renders_a_package_chain_deeper_than_the_recursion_limit(tmp_path):
    chain = _chain_model(tmp_path / "chain.archmeta.json")
    output = tmp_path / "p.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "archmeta.cli", *_chain_assemble(chain, output)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(archmeta.__file__).resolve().parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    last = CHAIN_DEPTH - 1
    assert f"{'  ' * last}package c{last} {{\n" in output.read_text("utf-8")


# ---------------------------------------------------------------- file modes


@pytest.fixture()
def umask():
    """Sets the process umask for one test and restores it afterwards."""
    saved = os.umask(0o022)
    yield os.umask
    os.umask(saved)


def _mode(path: Path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("mask, wanted", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_new_output_files_get_the_umask_mode(mask, wanted, umask, tmp_path):
    umask(mask)
    out, matrix = tmp_path / "new" / "trace.json", tmp_path / "matrix.tsv"
    argv = ["trace", "--model", MODEL_B, "--output", str(out), "--matrix", str(matrix)]
    assert invoke(*argv).code == 0
    assert (_mode(out), _mode(matrix)) == (wanted, wanted)
    assert [p.name for p in tmp_path.rglob(".*.tmp")] == []


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("existing", [0o644, 0o640, 0o600, 0o664])
def test_a_replaced_output_file_keeps_its_mode(existing, umask, tmp_path):
    umask(0o022)
    out = tmp_path / "validate.json"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(existing)
    assert invoke("validate", "--model", MODEL_B, "--output", str(out)).code == 1
    assert _mode(out) == existing
    assert out.read_text("utf-8").startswith("{")
