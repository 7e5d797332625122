"""The benchmark's tracer (perfbench/layertrace.py) wraps engine functions by
name, and reports a name it cannot find as absent.  Every (module, pattern)
in its LAYERS must match a function defined in that abcvote module, by the
same rule as `Tracer.install`."""

import fnmatch
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = [(layer, modname, pattern) for layer, targets in load_layers().items() for modname, pattern in targets]


@pytest.mark.parametrize("layer, modname, pattern", TARGETS, ids=[f"{m}.{p}" for _, m, p in TARGETS])
def test_every_traced_name_is_a_function_of_its_module(layer, modname, pattern):
    module = importlib.import_module(f"abcvote.{modname}")
    names = [
        name
        for name, value in vars(module).items()
        if fnmatch.fnmatchcase(name, pattern) and inspect.isfunction(value) and value.__module__ == module.__name__
    ]
    assert names, f"{layer}: {modname}.{pattern} matches no function defined in abcvote.{modname}"
