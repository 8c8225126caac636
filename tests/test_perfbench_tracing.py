"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps library
functions by module path and name, so renaming or removing one of them in
src/ breaks it. This checks that every name it wraps still resolves, and that
installing the tracer and undoing it leaves every module as it was."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _archmeta_attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "archmeta" or name.startswith("archmeta."))
            for attr, value in list(vars(module).items())}


def test_every_traced_name_resolves_and_install_is_undone():
    tracing = _tracing()
    for _layer, module_name, names in tracing._FUNCTIONS:
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"{module_name} lacks {missing}"

    from archmeta.diagrams import render
    from archmeta.model import Metamodel

    before = _archmeta_attributes()
    methods = dict(vars(Metamodel))
    uninstall = tracing.install(tracing.Recorder())
    try:
        assert render.serialize_metamodel is not before[("archmeta.diagrams.render",
                                                         "serialize_metamodel")]
    finally:
        uninstall()
    after = _archmeta_attributes()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert [attr for attr, value in methods.items() if vars(Metamodel)[attr] is not value] == []
