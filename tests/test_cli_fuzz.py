"""The exit-code contract under malformed model files, fuzzed in process.

Mutated copies of the desk process-B model (truncated, bytes flipped, a
field dropped, a field given a value of the wrong type) go through
`validate`, `trace` and `diff` via `archmeta.cli.main`. Whatever the
bytes, no exception may escape, the exit code must be 0, 1 or 2, and a
file that `loads_model` rejects (or that is not UTF-8) must exit 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from archmeta.cli import main
from archmeta.diagrams import loads_model
from archmeta.errors import ArchmetaError

DESK = Path(__file__).parent / "fixtures" / "desk"
SOURCE = (DESK / "process_b.archmeta.json").read_bytes()
DOCUMENT = json.loads(SOURCE)
OTHER = str(DESK / "process_a.archmeta.json")

# one value of each JSON type
_WRONG_VALUES = (None, 0, 2.5, True, "x", [], {})


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


def _edited(field: tuple, instance: int, value: object) -> bytes:
    """The desk document with one instance of a field dropped (value _DROP)
    or set to value, as JSON bytes."""
    doc = json.loads(SOURCE)
    found = _instances(doc, field)
    container, key = found[instance % len(found)]
    if value is _DROP:
        del container[key]
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
    value = _DROP if how == "drop" else draw(st.sampled_from(_WRONG_VALUES))
    return _edited(field, instance, value)


def _rejected(blob: bytes) -> bool:
    try:
        loads_model(blob.decode("utf-8"))
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
