"""The exit-code contract under malformed input files, fuzzed in process.

Mutated copies of the desk process-B model (truncated, bytes flipped, a
field dropped, a field given a value of the wrong type or one that json
cannot hand back whole: an array nested 100,000 deep, a 5,000-digit integer,
a lone surrogate) go through
`validate`, `trace` and `diff`; mutated rules and alias files go through
`extract` and `score`; mutated PlantUML and Mermaid views of the desk
original model go through `parse` and `lift`; mutated score fragments go
through `report`; mutated slot files and context models go through
`assemble`; a mutated model, artifact file or constraint catalog goes through
`score`. Every call runs via
`archmeta.cli.main`. Whatever the bytes, no exception may escape and the
exit code must be 0, 1 or 2; a model file that `loads_model` rejects (or
that is not UTF-8) must exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.cli import main
from archmeta.constraints import constraints_from_json
from archmeta.diagrams import DiagramType, loads_model, render_diagram_view
from archmeta.diagrams.render import view_format
from archmeta.errors import ArchmetaError

DESK = Path(__file__).parent / "fixtures" / "desk"
SOURCE = (DESK / "process_b.archmeta.json").read_bytes()
DOCUMENT = json.loads(SOURCE)
OTHER = str(DESK / "process_a.archmeta.json")

# one value of each JSON type
_WRONG_VALUES = (None, 0, 2.5, True, "x", [], {})


@dataclass(frozen=True)
class _Raw:
    """A value spliced in as JSON text, for values json.dumps cannot write."""

    text: str


# nesting past the recursion limit, an integer past the int-to-string digit
# limit, and a string json writes as a lone-surrogate escape
_EDGE_VALUES = (_Raw("[" * 100_000 + "]" * 100_000), _Raw("9" * 5000), "\ud800")
_SPLICE = "\0raw\0"


def _fields(node: object, path: tuple = ()) -> set[tuple]:
    """Every field path in a JSON tree, list positions written as "*"."""
    if isinstance(node, dict):
        steps = [(key, value) for key, value in node.items()]
    elif isinstance(node, list):
        steps = [("*", value) for value in node]
    else:
        return set()
    out = set()
    for step, value in steps:
        out.add(path + (step,))
        out |= _fields(value, path + (step,))
    return out


FIELDS = sorted(_fields(DOCUMENT))


def _instances(node: object, field: tuple) -> list[tuple[object, object]]:
    """Every (container, key or index) that a field path ends at, in document order."""
    head, rest = field[0], field[1:]
    if head == "*":
        keys = range(len(node)) if isinstance(node, list) else range(0)
    else:
        keys = [head] if isinstance(node, dict) and head in node else []
    out = []
    for key in keys:
        out.extend(_instances(node[key], rest) if rest else [(node, key)])
    return out


_DROP = object()


def _edited(field: tuple, instance: int, value: object, source: bytes = SOURCE) -> bytes:
    """The source document (by default the desk model) with one instance of a
    field dropped (value _DROP) or set to value, as JSON bytes."""
    doc = json.loads(source)
    found = _instances(doc, field)
    container, key = found[instance % len(found)]
    if value is _DROP:
        del container[key]
    elif isinstance(value, _Raw):
        container[key] = _SPLICE
        return json.dumps(doc).replace(json.dumps(_SPLICE), value.text).encode("utf-8")
    else:
        container[key] = value
    return json.dumps(doc).encode("utf-8")


@st.composite
def mutated_models(draw: st.DrawFn) -> bytes:
    how = draw(st.sampled_from(("truncate", "flip", "drop", "retype")))
    if how == "truncate":
        return SOURCE[: draw(st.integers(0, len(SOURCE) - 1))]
    if how == "flip":
        data = bytearray(SOURCE)
        for pos in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            data[pos] ^= draw(st.integers(1, 255))
        return bytes(data)
    field = draw(st.sampled_from(FIELDS))
    instance = draw(st.integers(0, 200))
    value = _DROP if how == "drop" else draw(st.sampled_from(_WRONG_VALUES + _EDGE_VALUES))
    return _edited(field, instance, value)


def _rejected(blob: bytes, load: Callable[[str], object] = loads_model) -> bool:
    """Whether `load` refuses the bytes as input (or they are not UTF-8)."""
    try:
        load(blob.decode("utf-8"))
    except (UnicodeDecodeError, ArchmetaError):
        return True
    return False


def _run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _check(blob: bytes) -> None:
    rejected = _rejected(blob)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.archmeta.json")
        Path(path).write_bytes(blob)
        for argv in (
            ("validate", "--model", path),
            ("trace", "--model", path),
            ("diff", "--before", path, "--after", OTHER),
        ):
            code = _run(*argv)
            assert code in (0, 1, 2), argv
            if rejected:
                assert code == 2, argv


@settings(max_examples=150, deadline=None)
@given(mutated_models())
def test_malformed_models_keep_the_exit_code_contract(blob):
    _check(blob)


def test_every_field_dropped_or_retyped_keeps_the_exit_code_contract():
    # the first instance of each field, each edit: a sweep the random
    # examples above would need thousands of draws to cover
    for field in FIELDS:
        for value in (_DROP, *_WRONG_VALUES):
            _check(_edited(field, 0, value))


# ---------------------------------------------------------------- text inputs


def _lines_of(tokens: tuple[str, ...]) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(tokens), min_size=1, max_size=6).map(" ".join)


@st.composite
def mutated_text(draw: st.DrawFn, source: bytes, new_lines: st.SearchStrategy[str]) -> bytes:
    """source truncated, with bytes flipped, or with lines deleted, repeated,
    swapped or inserted (inserted lines are drawn from new_lines)."""
    how = draw(st.sampled_from(("truncate", "flip", "lines")))
    if how == "truncate":
        return source[: draw(st.integers(0, max(0, len(source) - 1)))]
    if how == "flip":
        data = bytearray(source)
        for pos in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            data[pos] ^= draw(st.integers(1, 255))
        return bytes(data)
    lines = source.decode("utf-8").splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(("delete", "repeat", "swap", "insert")))
        if edit == "insert" or not lines:
            lines.insert(at, draw(new_lines))
            continue
        at = min(at, len(lines) - 1)
        if edit == "delete":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    return "\n".join(lines).encode("utf-8") + draw(st.sampled_from((b"", b"\n")))


def _check_codes(argvs: list[list[str]]) -> None:
    for argv in argvs:
        assert _run(*argv) in (0, 1, 2), argv


# ---------------------------------------------------------------- rules and aliases

RULES = (DESK / "rules.txt").read_bytes()
ALIASES = (DESK / "aliases.txt").read_bytes()
RULE_TOKENS = (
    "version 1", "#", "->", "-> Component", "Component", "DomainEntity", "Blob",
    "name-from:", "dirname", "filename", "key", "services", "domain", "*", "**", "**x",
    "*/", "/", "//", ".", "..", "../*", "./", "/abs", "*.py", "[", "]", "?", "~",
    "capabilities.json#capabilities", "processes.json#", "#k", "x.json#k", "services/*/",
    "domain/*.py", "\t",
)
ALIAS_TOKENS = ("#", "\t", "Catalog Search", "Search", "Order", "orders", "", " ", "-", "_")
_PATH_PIECES = ("services", "domain", "*", "**", "**x", "x**", "..", ".", "", "*.py", "[", "a?",
                "capabilities.json")


@st.composite
def rule_lines(draw: st.DrawFn) -> str:
    """A well-formed rule line whose path is any mix of glob pieces."""
    pieces = draw(st.lists(st.sampled_from(_PATH_PIECES), max_size=4))
    path = (draw(st.sampled_from(("", "/"))) + "/".join(pieces)
            + draw(st.sampled_from(("", "/", ".json#k", "#"))))
    kind = draw(st.sampled_from(("Component", "DomainEntity", "BusinessCapability", "Blob")))
    name_from = draw(st.sampled_from(("", "dirname", "filename", "key", "x")))
    return f"{path} -> {kind}" + (f" name-from: {name_from}" if name_from else "")


def _score_argv(rules: str, aliases: str) -> list[str]:
    return [
        "score",
        "--model", str(DESK / "process_b.archmeta.json"),
        "--reference", str(DESK / "original.archmeta.json"),
        "--baseline", OTHER,
        "--codebase", str(DESK / "codebase"),
        "--rules", rules,
        "--artifacts", str(DESK / "artifacts"),
        "--aliases", aliases,
    ]


@settings(max_examples=150, deadline=None)
@given(st.one_of(mutated_text(RULES, st.one_of(rule_lines(), _lines_of(RULE_TOKENS))),
                rule_lines().map(lambda line: RULES + line.encode("utf-8") + b"\n")),
       mutated_text(ALIASES, _lines_of(ALIAS_TOKENS)), st.booleans())
def test_malformed_rules_and_aliases_keep_the_exit_code_contract(rules, aliases, bad_rules):
    with tempfile.TemporaryDirectory() as tmp:
        rules_path, aliases_path = Path(tmp) / "rules.txt", Path(tmp) / "aliases.txt"
        # one input mutated at a time, so the other cannot mask a crash behind exit 2
        rules_path.write_bytes(rules if bad_rules else RULES)
        aliases_path.write_bytes(ALIASES if bad_rules else aliases)
        root = str(DESK / "codebase")
        _check_codes([
            ["extract", "--root", root, "--rules", str(rules_path)],
            ["extract", "--root", root, "--rules", str(rules_path), "--aliases", str(aliases_path),
             "--model", str(DESK / "process_b.archmeta.json")],
            _score_argv(str(rules_path), str(aliases_path)),
        ])


# ---------------------------------------------------------------- diagrams

_DESK_ORIGINAL = loads_model((DESK / "original.archmeta.json").read_text("utf-8"))
# every view of the desk original model, with the file suffix of its notation
VIEWS = [
    (dtype, render_diagram_view(_DESK_ORIGINAL, dtype).encode("utf-8"),
     ".puml" if view_format(dtype).value == "plantuml" else ".mmd")
    for dtype in DiagramType
]
DIAGRAM_TOKENS = (
    "@startuml", "@enduml", "graph TD", "flowchart LR", "sequenceDiagram", "erDiagram",
    "classDiagram", "component", "database", "package", "class", "interface", "node",
    "rectangle", "actor", "participant", "subgraph", "end", "note", "as", "\"x y\"", "A", "b-1",
    "{", "}", "[", "]", "(", ")", "[[", "((", "-->", "..>", "--|>", "->", "->>", "-.->",
    "||--o{", ":", ";", "|", "<<", ">>", "<<Service>>", "%%", "'", "!include", "skinparam",
    "\t",
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VIEWS).flatmap(
    lambda view: st.tuples(st.just(view), mutated_text(view[1], _lines_of(DIAGRAM_TOKENS)))))
def test_malformed_diagrams_keep_the_exit_code_contract(case):
    (dtype, _, suffix), blob = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"view{suffix}"
        path.write_bytes(blob)
        _check_codes([
            ["parse", str(path)],
            ["parse", "--json", "--format", "mermaid" if suffix == ".puml" else "plantuml",
             str(path)],
            ["lift", str(path)],
            ["lift", "--type", dtype.value, "--system", "fuzz", str(path)],
        ])


# ---------------------------------------------------------------- report


def _stdout(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0, argv
    return out.getvalue().encode("utf-8")


FRAGMENT = _stdout(*_score_argv(str(DESK / "rules.txt"), str(DESK / "aliases.txt")), "--json")
# numbers past a float's range, or that format oddly, beside one value of each JSON type
_FRAGMENT_VALUES = (*_WRONG_VALUES, 10**400, -(10**400), float("nan"), float("inf"), -1, 1e308)
FRAGMENT_TOKENS = ('"raw":', '"ordinal":', '"metrics":', "{", "}", "[", "]", ",", "NaN",
                   "1e999", "-0", "null", '"C"')


@st.composite
def mutated_documents(draw: st.DrawFn, source: bytes, values: tuple, tokens: tuple[str, ...]
                      ) -> bytes:
    """A JSON document's text mutated, or one instance of one of its fields
    dropped or set to one of values or of the edge values."""
    how = draw(st.sampled_from(("text", "drop", "retype")))
    if how == "text":
        return draw(mutated_text(source, _lines_of(tokens)))
    field = draw(st.sampled_from(sorted(_fields(json.loads(source)))))
    value = _DROP if how == "drop" else draw(st.sampled_from(values + _EDGE_VALUES))
    return _edited(field, draw(st.integers(0, 50)), value, source)


@settings(max_examples=150, deadline=None)
@given(mutated_documents(FRAGMENT, _FRAGMENT_VALUES, FRAGMENT_TOKENS), st.booleans())
def test_malformed_report_fragments_keep_the_exit_code_contract(blob, mutated_side_a):
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = Path(tmp) / "bad.json", Path(tmp) / "good.json"
        bad.write_bytes(blob)
        good.write_bytes(FRAGMENT)
        a, b = (bad, good) if mutated_side_a else (good, bad)
        _check_codes([
            ["report", "--a", str(a), "--b", str(b)],
            ["report", "--a", str(a), str(good), "--b", str(b), "--json",
             "--output", str(Path(tmp) / "report.json"), "--markdown", str(Path(tmp) / "r.md")],
        ])


# ---------------------------------------------------------------- assemble

SLOT = "Technical documentation: the Örder service owns {order} state.\n".encode("utf-8")
SLOT_TOKENS = ("[INSERT TD]", "[INSERT", "]", "{td}", "{", "}", "<<<SECTION: X>>>", "\\1",
               "\\g<0>", "%s", "\t")


@settings(max_examples=150, deadline=None)
@given(mutated_text(SLOT, _lines_of(SLOT_TOKENS)), mutated_models(),
       st.sampled_from(("business-alignment", "scope", "service-structure", "api-workflow",
                        "schema-migration", "deployment-config")))
def test_malformed_assemble_inputs_keep_the_exit_code_contract(slot, model, purpose):
    with tempfile.TemporaryDirectory() as tmp:
        slot_path, model_path = Path(tmp) / "td.txt", Path(tmp) / "model.archmeta.json"
        slot_path.write_bytes(slot)
        model_path.write_bytes(model)
        out = str(Path(tmp) / "prompt.txt")
        _check_codes([["assemble", "--process", "A", "--stage", "td-to-bd",
                       "--slot", f"td={slot_path}", "--output", out]])
        code = _run("assemble", "--process", "B", "--stage", "td-to-bd",
                    "--slot", "td_and_diagrams=@context", "--context-model", str(model_path),
                    "--purpose", purpose, "--output", out, "--json")
        assert code in (0, 1, 2)
        if _rejected(model):
            assert code == 2


# ---------------------------------------------------------------- score inputs

_ENTITY_IDS = [entity["id"] for entity in DOCUMENT["entities"][:3]]
# the desk model's own catalog (a catalog spells an empty scope by leaving it
# out, not as null) plus an entry for each param and scope shape it lacks
CATALOG = json.dumps({"constraints": [
    *({k: v for k, v in entry.items() if v is not None} for entry in DOCUMENT["constraints"]),
    {"id": "grouped-direction", "kind": "dependency-direction", "params": {"groups": [
        {"name": "inner", "layers": ["Business", "BusinessConceptual"]},
        {"name": "outer", "layers": ["System", "Implementation"]},
    ]}},
    {"id": "paired-contexts", "kind": "context-isolation",
     "params": {"allowed_pairs": [_ENTITY_IDS[:2]]}},
    {"id": "picked-acyclic", "kind": "acyclicity",
     "scope": {"entities": _ENTITY_IDS, "layers": ["System"]}},
]}, indent=1).encode("utf-8")
CATALOG_TOKENS = ('"constraints":', '"id":', '"kind":', '"scope":', '"params":', '"layers":',
                  '"entities":', '"groups":', '"allowed_pairs":', '"relation_kinds":',
                  '"acyclicity"', '"System"', "{", "}", "[", "]", ",", "null", "0", '"x"')


def _score_on(model: str, artifacts: str, constraints: str | None) -> list[str]:
    argv = _score_argv(str(DESK / "rules.txt"), str(DESK / "aliases.txt"))
    argv[argv.index("--model") + 1] = model
    argv[argv.index("--artifacts") + 1] = artifacts
    return argv + (["--constraints", constraints] if constraints else [])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    mutated_models().map(lambda blob: ("model", blob)),
    st.sampled_from(VIEWS).flatmap(lambda view: mutated_text(view[1], _lines_of(DIAGRAM_TOKENS))
                                   .map(lambda blob: (f"view{view[2]}", blob))),
    mutated_documents(CATALOG, _WRONG_VALUES, CATALOG_TOKENS).map(lambda blob: ("catalog", blob)),
))
def test_malformed_score_inputs_keep_the_exit_code_contract(case):
    # one input mutated at a time: the model, the --constraints catalog or one artifact file
    target, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        model = str(DESK / "process_b.archmeta.json")
        artifacts = str(DESK / "artifacts")
        catalog = Path(tmp) / "catalog.json"
        catalog.write_bytes(CATALOG)
        if target == "model":
            model = str(Path(tmp) / "model.archmeta.json")
            Path(model).write_bytes(blob)
        elif target == "catalog":
            catalog.write_bytes(blob)
        else:  # target names the one artifact file
            artifacts = str(Path(tmp) / "artifacts")
            Path(artifacts).mkdir()
            (Path(artifacts) / target).write_bytes(blob)
        codes = [_run(*_score_on(model, artifacts, None)),
                 _run(*_score_on(model, artifacts, str(catalog)), "--json")]
        assert set(codes) <= {0, 1, 2}, codes
        if target == "model" and _rejected(blob):
            assert codes == [2, 2]
        if target == "catalog" and _rejected(blob, constraints_from_json):
            assert codes[1] == 2
