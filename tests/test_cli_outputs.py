"""Pinned bytes of every command's outputs on the desk fixture.

Each case runs in a work directory that holds a copy of the desk fixture, and
every path it names is relative to that directory, so no byte depends on
where the tree lives. A case's record is its exit code and the sha256 (first
16 hex digits) of its stdout, its stderr and each file it wrote. Every case
must reproduce its record both in process, all cases one after another in one
interpreter, and in a fresh interpreter of its own. A change to what a command
prints or writes has to update its record here.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import archmeta
from archmeta.remote import EMBED_ENDPOINT_VAR
from tests.conftest import DESK_DIR, invoke

KEEP = ("desk", "frag")  # inputs of every case; anything else in the work dir is output

MODEL_A = "desk/process_a.archmeta.json"
MODEL_B = "desk/process_b.archmeta.json"
ORIGINAL = "desk/original.archmeta.json"
C4 = [f"desk/artifacts/c4-{i:02d}.puml" for i in range(1, 6)]
SEQ = [f"desk/artifacts/seq-{i:02d}.mmd" for i in range(1, 4)]
BROKEN = "desk/artifacts/c4-07.puml"
SCORE = [
    "score", "--model", MODEL_B, "--reference", ORIGINAL, "--baseline", MODEL_A,
    "--codebase", "desk/codebase", "--rules", "desk/rules.txt", "--artifacts", "desk/artifacts",
    "--aliases", "desk/aliases.txt",
]
EXTRACT = ["extract", "--root", "desk/codebase", "--rules", "desk/rules.txt"]
EXTRACT_MODEL = [*EXTRACT, "--aliases", "desk/aliases.txt", "--model", MODEL_B]
ASSEMBLE = ["assemble", "--process", "A", "--stage", "td-to-bd", "--slot", "td=frag/td.txt"]
ASSEMBLE_CONTEXT = [
    "assemble", "--process", "B", "--stage", "td-to-bd", "--slot", "td_and_diagrams=@context",
    "--context-model", ORIGINAL, "--purpose", "business-alignment",
]
REPORT = ["report", "--a", "frag/a.json", "--b", "frag/b.json", "frag/b.json"]

CASES: dict[str, list[str]] = {
    "parse": ["parse", *C4, BROKEN, *SEQ],
    "parse-json": ["parse", *C4, *SEQ, "--json"],
    "parse-missing": ["parse", "desk/artifacts/ghost.puml"],
    "lift": ["lift", "--type", "SystemContainer", *C4],
    "lift-output": ["lift", "--type", "SystemContainer", "--system", "desk", *C4,
                    "--output", "out/lift.json"],
    "lift-output-json": ["lift", "--type", "EventDrivenView", *SEQ, "--output", "out/lift.json",
                         "--json"],
    "lift-broken": ["lift", BROKEN],
    "validate": ["validate", "--model", MODEL_B],
    "validate-json": ["validate", "--model", MODEL_B, "--json"],
    "validate-output": ["validate", "--model", MODEL_B, "--output", "out/validate.json"],
    "validate-output-json": ["validate", "--model", ORIGINAL, "--output", "out/validate.json",
                             "--json"],
    "validate-missing": ["validate", "--model", "desk/ghost.json"],
    "trace": ["trace", "--model", MODEL_B],
    "trace-json": ["trace", "--model", MODEL_B, "--json", "--threshold", "0.99"],
    "trace-output-matrix": ["trace", "--model", MODEL_B, "--output", "out/trace.json",
                            "--matrix", "out/matrix.tsv"],
    "trace-output-json": ["trace", "--model", MODEL_A, "--output", "out/trace.json", "--json"],
    "score": SCORE,
    "score-json": [*SCORE, "--json"],
    "score-output": [*SCORE, "--output", "out/score.json"],
    "score-markdown": [*SCORE, "--markdown", "out/score.md"],
    "score-output-markdown-json": [*SCORE, "--output", "out/score.json",
                                   "--markdown", "out/score.md", "--json"],
    "score-config": ["score", "--config", "frag/config.json", "--model", MODEL_A,
                     "--expected-patterns", "layered,cqrs", "--output", "out/score.json"],
    "score-missing": ["score", "--model", MODEL_B],
    "diff": ["diff", "--before", ORIGINAL, "--after", MODEL_B],
    "diff-json": ["diff", "--before", ORIGINAL, "--after", MODEL_A, "--json"],
    "diff-output": ["diff", "--before", ORIGINAL, "--after", MODEL_B, "--output", "out/diff.json"],
    "extract": EXTRACT,
    "extract-json": [*EXTRACT, "--json"],
    "extract-model": EXTRACT_MODEL,
    "extract-model-output-json": [*EXTRACT_MODEL, "--output", "out/extract.json", "--json"],
    "assemble": ASSEMBLE,
    "assemble-output": [*ASSEMBLE, "--output", "out/prompt.txt"],
    "assemble-output-json": [*ASSEMBLE, "--output", "out/prompt.txt", "--json"],
    "assemble-context": [*ASSEMBLE_CONTEXT, "--output", "out/prompt.txt"],
    "assemble-no-context-model": ASSEMBLE_CONTEXT[:6],
    "report": REPORT,
    "report-json": [*REPORT, "--json"],
    "report-output": [*REPORT, "--output", "out/report.json"],
    "report-markdown": [*REPORT, "--markdown", "out/report.md"],
    "report-output-markdown-json": [*REPORT, "--output", "out/report.json",
                                    "--markdown", "out/report.md", "--json"],
    "report-not-a-fragment": ["report", "--a", "frag/a.json", "--b", "frag/config.json"],
}

# case -> (exit code, stdout, stderr, {written file: digest})
PINNED: dict[str, tuple[int, str, str, dict[str, str]]] = {
    "parse": (1, "e572122e8d18fc01", "e3b0c44298fc1c14", {}),
    "parse-json": (0, "7914f7270b57c0bb", "e3b0c44298fc1c14", {}),
    "parse-missing": (2, "e3b0c44298fc1c14", "83fc0fe1c92faef3", {}),
    "lift": (0, "87c5917023a85aaa", "e3b0c44298fc1c14", {}),
    "lift-output": (0, "e584099f3bde083d", "e3b0c44298fc1c14", {
        "out/lift.json": "81f0d121378077fd",
    }),
    "lift-output-json": (0, "5073a4b4cebf5066", "e3b0c44298fc1c14", {
        "out/lift.json": "c42f361b611d6904",
    }),
    "lift-broken": (2, "e3b0c44298fc1c14", "cce9a5ef9d250ff3", {}),
    "validate": (1, "bbcd3087eb7fc8fd", "e3b0c44298fc1c14", {}),
    "validate-json": (1, "61bb279a2a12a5b9", "e3b0c44298fc1c14", {}),
    "validate-output": (1, "bbcd3087eb7fc8fd", "e3b0c44298fc1c14", {
        "out/validate.json": "61bb279a2a12a5b9",
    }),
    "validate-output-json": (1, "c20bb3a4ccd30a5e", "e3b0c44298fc1c14", {
        "out/validate.json": "c20bb3a4ccd30a5e",
    }),
    "validate-missing": (2, "e3b0c44298fc1c14", "e28ce306e1192ea4", {}),
    "trace": (0, "f4a446546cb3dd23", "e3b0c44298fc1c14", {}),
    "trace-json": (1, "9d0cc2aa088e2c69", "e3b0c44298fc1c14", {}),
    "trace-output-matrix": (0, "f4a446546cb3dd23", "e3b0c44298fc1c14", {
        "out/matrix.tsv": "e257f8eaa431d75a",
        "out/trace.json": "9d0cc2aa088e2c69",
    }),
    "trace-output-json": (0, "7457cd9a60943498", "e3b0c44298fc1c14", {
        "out/trace.json": "7457cd9a60943498",
    }),
    "score": (0, "358b2a6a293e48f7", "e3b0c44298fc1c14", {}),
    "score-json": (0, "4f75f880b4186002", "e3b0c44298fc1c14", {}),
    "score-output": (0, "358b2a6a293e48f7", "e3b0c44298fc1c14", {
        "out/score.json": "4f75f880b4186002",
    }),
    "score-markdown": (0, "358b2a6a293e48f7", "e3b0c44298fc1c14", {
        "out/score.md": "358b2a6a293e48f7",
    }),
    "score-output-markdown-json": (0, "4f75f880b4186002", "e3b0c44298fc1c14", {
        "out/score.json": "4f75f880b4186002",
        "out/score.md": "358b2a6a293e48f7",
    }),
    "score-config": (0, "c6550a17e6f9473a", "e3b0c44298fc1c14", {
        "out/score.json": "6f298dcc48e32092",
    }),
    "score-missing": (2, "e3b0c44298fc1c14", "54a1f491ed4501ad", {}),
    "diff": (0, "8e714f710e98ef66", "e3b0c44298fc1c14", {}),
    "diff-json": (0, "c952a9690c37deca", "e3b0c44298fc1c14", {}),
    "diff-output": (0, "8e714f710e98ef66", "e3b0c44298fc1c14", {
        "out/diff.json": "c6b97ecf3dd5e106",
    }),
    "extract": (0, "b5d465808499d3d0", "e3b0c44298fc1c14", {}),
    "extract-json": (0, "4e53d9a16f1e7a91", "e3b0c44298fc1c14", {}),
    "extract-model": (0, "079171fec11ce910", "e3b0c44298fc1c14", {}),
    "extract-model-output-json": (0, "513b35512115727e", "e3b0c44298fc1c14", {
        "out/extract.json": "513b35512115727e",
    }),
    "assemble-output": (0, "31b045027cae1964", "e3b0c44298fc1c14", {
        "out/prompt.txt": "651f62276b22ee30",
    }),
    "assemble": (0, "9b1412ed9963ace9", "e3b0c44298fc1c14", {
        "A_td-to-bd_651f62276b22.prompt.txt": "651f62276b22ee30",
    }),
    "assemble-output-json": (0, "b5290baa2151609c", "e3b0c44298fc1c14", {
        "out/prompt.txt": "651f62276b22ee30",
    }),
    "assemble-context": (0, "31b045027cae1964", "e3b0c44298fc1c14", {
        "out/prompt.txt": "bcaef3a098773427",
    }),
    "assemble-no-context-model": (2, "e3b0c44298fc1c14", "f85cf855c7f36052", {}),
    "report": (0, "a1c05358ae70d6da", "e3b0c44298fc1c14", {}),
    "report-json": (0, "327716d46f802e29", "e3b0c44298fc1c14", {}),
    "report-output": (0, "a1c05358ae70d6da", "e3b0c44298fc1c14", {
        "out/report.json": "327716d46f802e29",
    }),
    "report-markdown": (0, "a1c05358ae70d6da", "e3b0c44298fc1c14", {
        "out/report.md": "a1c05358ae70d6da",
    }),
    "report-output-markdown-json": (0, "327716d46f802e29", "e3b0c44298fc1c14", {
        "out/report.json": "327716d46f802e29",
        "out/report.md": "a1c05358ae70d6da",
    }),
    "report-not-a-fragment": (2, "e3b0c44298fc1c14", "25bf7ac2634e9b13", {}),
}


def _digest(data: bytes | str) -> str:
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return hashlib.sha256(raw).hexdigest()[:16]


def _clear_outputs(work: Path) -> None:
    for entry in work.iterdir():
        if entry.name not in KEEP:
            shutil.rmtree(entry) if entry.is_dir() else entry.unlink()


def _written(work: Path) -> dict[str, str]:
    files = {
        p.relative_to(work).as_posix(): _digest(p.read_bytes())
        for p in sorted(work.rglob("*"))
        if p.is_file() and p.relative_to(work).parts[0] not in KEEP
    }
    _clear_outputs(work)
    return files


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("outputs")
    shutil.copytree(DESK_DIR, root / "desk")
    frag = root / "frag"
    frag.mkdir()
    (frag / "td.txt").write_text("the technical documentation body\n", encoding="utf-8")
    (frag / "config.json").write_text(
        '{"reference": "%s", "baseline": "%s", "codebase": "desk/codebase",'
        ' "rules": "desk/rules.txt", "artifacts": "desk/artifacts_a"}\n' % (ORIGINAL, MODEL_A),
        encoding="utf-8",
    )
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for side, model, artifacts in (("a", MODEL_A, "desk/artifacts_a"),
                                       ("b", MODEL_B, "desk/artifacts")):
            argv = list(SCORE)
            argv[argv.index(MODEL_B)] = model
            argv[argv.index("desk/artifacts")] = artifacts
            assert invoke(*argv, "--output", f"frag/{side}.json").code == 0
    finally:
        os.chdir(cwd)
    return root


@pytest.fixture(autouse=True)
def _no_external_embedder(monkeypatch):
    monkeypatch.delenv(EMBED_ENDPOINT_VAR, raising=False)


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_in_process(case, work, monkeypatch):
    monkeypatch.chdir(work)
    _clear_outputs(work)
    result = invoke(*CASES[case])
    got = (result.code, _digest(result.out), _digest(result.err), _written(work))
    assert got == PINNED[case], (result.out[-2000:], result.err)


@pytest.mark.parametrize("case", CASES)
def test_fresh_process(case, work):
    _clear_outputs(work)
    env = {k: v for k, v in os.environ.items() if k != EMBED_ENDPOINT_VAR}
    env["PYTHONPATH"] = str(Path(archmeta.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "archmeta.cli", *CASES[case]],
        cwd=work, capture_output=True, env=env,
    )
    got = (proc.returncode, _digest(proc.stdout), _digest(proc.stderr), _written(work))
    assert got == PINNED[case], proc.stderr.decode("utf-8", "replace")
