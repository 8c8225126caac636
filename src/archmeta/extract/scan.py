"""Build the expected entity inventory from a codebase tree.

A rules file drives the scan. Line one must be "version 1"; every further
significant line reads

    <pattern> -> <EntityKind> [name-from: dirname|filename|key]

where pattern is either a glob relative to the root (a trailing slash matches
directories instead of files) or "<file>.json#<key>" naming one key of a JSON
manifest. A dict value contributes its keys, a list its string items. A path
must stay under the root: no leading "/", no ".." component, and "**" only as
a whole component. A glob never lists the root itself ("**/" lists every
directory below it), but, as in any glob, "**" matches zero directories too:
"services/**/" lists "services/" along with each directory below it.
Defaults for name-from: key for manifest rules, dirname for directory globs,
filename (text before the first dot) for file globs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from ..errors import InvalidRulesError, UnreadableRootError
from ..jsonin import decode_json
from ..model import EntityKind
from .matching import normalize_name

_NAME_SOURCES = ("dirname", "filename", "key")


@dataclass(frozen=True)
class ScanRule:
    line: int
    pattern: str
    kind: EntityKind
    name_from: str
    manifest_key: str | None = None  # set for manifest rules

    @property
    def is_manifest(self) -> bool:
        return self.manifest_key is not None


@dataclass(frozen=True)
class ExpectedEntity:
    """One name the architecture description is expected to mention."""

    name: str
    kind: EntityKind
    origin: str


def _check_path(lineno: int, pattern: str) -> None:
    """Reject a rule path that leaves the root or that pathlib cannot glob."""
    if pattern.startswith("/"):
        raise InvalidRulesError(lineno, f"pattern must be relative to the root: {pattern!r}")
    parts = PurePosixPath(pattern).parts
    if not parts:
        raise InvalidRulesError(lineno, f"pattern names no path: {pattern!r}")
    if ".." in parts:
        raise InvalidRulesError(lineno, f"pattern must stay under the root (no '..'): {pattern!r}")
    if any("**" in part and part != "**" for part in parts):
        raise InvalidRulesError(lineno, f"'**' must be a whole path component: {pattern!r}")


def load_rules(text: str) -> tuple[ScanRule, ...]:
    lines = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise InvalidRulesError(1, "empty rules file")
    first_line, header = lines[0]
    if header != "version 1":
        raise InvalidRulesError(first_line, f"expected 'version 1' header, got {header!r}")
    rules = []
    for lineno, line in lines[1:]:
        if "->" not in line:
            raise InvalidRulesError(lineno, "expected '<pattern> -> <Kind>'")
        pattern, _, rhs = line.partition("->")
        pattern = pattern.strip()
        rhs = rhs.strip()
        if not pattern:
            raise InvalidRulesError(lineno, "empty pattern")
        name_from = None
        if "name-from:" in rhs:
            kind_text, _, source = rhs.partition("name-from:")
            kind_text = kind_text.strip()
            name_from = source.strip()
            if name_from not in _NAME_SOURCES:
                raise InvalidRulesError(lineno, f"name-from must be one of {_NAME_SOURCES}")
        else:
            kind_text = rhs
        try:
            kind = EntityKind(kind_text)
        except ValueError:
            raise InvalidRulesError(lineno, f"unknown entity kind: {kind_text!r}") from None

        manifest_key = None
        if "#" in pattern:
            file_part, _, manifest_key = pattern.partition("#")
            if not file_part.endswith(".json") or not manifest_key:
                raise InvalidRulesError(lineno, "manifest pattern must be '<file>.json#<key>'")
            _check_path(lineno, file_part)
            if name_from is None:
                name_from = "key"
            elif name_from != "key":
                raise InvalidRulesError(lineno, "manifest rules only support name-from: key")
        else:
            _check_path(lineno, pattern)
            if name_from == "key":
                raise InvalidRulesError(lineno, "name-from: key needs a manifest pattern")
            if name_from is None:
                name_from = "dirname" if pattern.endswith("/") else "filename"
        rules.append(
            ScanRule(
                line=lineno,
                pattern=pattern,
                kind=kind,
                name_from=name_from,
                manifest_key=manifest_key,
            )
        )
    return tuple(rules)


def _manifest_names(root: Path, rule: ScanRule) -> list[tuple[str, str]]:
    file_part = rule.pattern.partition("#")[0]
    path = root / file_part
    if not path.is_file():
        return []
    try:
        data = decode_json(path.read_text("utf-8"))
    except (OSError, ValueError) as err:  # ValueError: not UTF-8 or not JSON
        raise InvalidRulesError(rule.line, f"manifest {file_part} not parseable: {err}") from None
    if not isinstance(data, dict):
        raise InvalidRulesError(rule.line, f"manifest {file_part} must hold a JSON object")
    value = data.get(rule.manifest_key)
    if value is None:
        return []
    ref = f"{file_part}#{rule.manifest_key}"
    if isinstance(value, dict):
        return [(name, ref) for name in value]
    if isinstance(value, list):
        out = []
        for item in value:
            if not isinstance(item, str):
                raise InvalidRulesError(
                    rule.line, f"manifest key {rule.manifest_key!r} holds a non-string item"
                )
            out.append((item, ref))
        return out
    raise InvalidRulesError(
        rule.line, f"manifest key {rule.manifest_key!r} must hold a dict or list"
    )


def _glob_names(root: Path, rule: ScanRule) -> list[tuple[str, str]]:
    want_dirs = rule.pattern.endswith("/")
    pattern = rule.pattern.rstrip("/")
    matches = sorted(root.glob(pattern))
    out = []
    for path in matches:
        if path == root:  # a leading "**" matches zero directories
            continue
        if want_dirs and not path.is_dir():
            continue
        if not want_dirs and not path.is_file():
            continue
        if rule.name_from == "dirname":
            name = path.name if path.is_dir() else path.parent.name
        else:
            name = path.name.split(".")[0]
        rel = path.relative_to(root).as_posix()
        out.append((name, rel + ("/" if path.is_dir() else "")))
    return out


def scan_expected(root: str | Path, rules_text: str) -> tuple[ExpectedEntity, ...]:
    """Apply the rules under root. Duplicate (normalized name, kind) pairs
    keep their first occurrence; output is sorted by (kind, name)."""
    root_path = Path(root)
    if not root_path.is_dir():
        raise UnreadableRootError(f"not a readable directory: {root_path}")
    rules = load_rules(rules_text)
    seen: set[tuple[str, EntityKind]] = set()
    found: list[ExpectedEntity] = []
    for rule in rules:
        pairs = _manifest_names(root_path, rule) if rule.is_manifest else _glob_names(root_path, rule)
        for name, where in pairs:
            if not name:
                continue
            key = (normalize_name(name), rule.kind)
            if key in seen:
                continue
            seen.add(key)
            found.append(ExpectedEntity(name=name, kind=rule.kind, origin=where))
    found.sort(key=lambda e: (e.kind.value, e.name))
    return tuple(found)
