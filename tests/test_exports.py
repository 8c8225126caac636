"""The packages' lazy public names: same objects, same lists, as if imported eagerly."""

from __future__ import annotations

import hashlib
import importlib
import types

import pytest

# sha256 over the space-joined sorted __all__ of each package: the names the
# eager package __init__s listed, plus score_architecture
PACKAGES = {
    "archmeta": (73, "3ab4509722efcfe7"),
    "archmeta.diagrams": (26, "9a8244aec6067802"),
    "archmeta.metrics": (28, "d3ed539eb8cfc19c"),
    "archmeta.extract": (14, "b8456905e14bd782"),
    "archmeta.prompts": (17, "17311d5d688138c6"),
}


@pytest.mark.parametrize("name", PACKAGES)
def test_public_names_are_unchanged(name):
    names = importlib.import_module(name).__all__
    count, digest = PACKAGES[name]
    assert len(names) == len(set(names)) == count
    assert hashlib.sha256(" ".join(sorted(names)).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_is_its_home_modules_object(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        if export == "__version__":
            continue
        (module,) = [m for m, names in package._HOMES.items() if export in names]
        home = importlib.import_module(module, name)
        value = getattr(package, export)
        assert value is getattr(home, export), export
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, export


def test_top_level_names_match_the_subpackages():
    import archmeta

    for sub in ("diagrams", "metrics", "extract", "prompts"):
        package = importlib.import_module(f"archmeta.{sub}")
        for export in set(archmeta.__all__) & set(package.__all__):
            assert getattr(archmeta, export) is getattr(package, export), (sub, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_and_star_import_list_every_public_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(package.__all__)
    assert all(namespace[n] is getattr(package, n) for n in namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'nope'"):
        package.nope  # noqa: B018
    assert not hasattr(package, "_nope")
