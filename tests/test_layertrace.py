"""The benchmark's tracer (perfbench/layertrace.py) wraps engine functions by
name, and reports a name it cannot find as absent.  Every (module, pattern)
in its LAYERS must match a function defined in that abcvote module, by the
same rule as `Tracer.install`, and what the program calls must be the
wrapped name, not a copy of the function taken at import."""

import fnmatch
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [
    (layer, modname, pattern) for layer, targets in load_layertrace().LAYERS.items() for modname, pattern in targets
]


@pytest.mark.parametrize("layer, modname, pattern", TARGETS, ids=[f"{m}.{p}" for _, m, p in TARGETS])
def test_every_traced_name_is_a_function_of_its_module(layer, modname, pattern):
    module = importlib.import_module(f"abcvote.{modname}")
    names = [
        name
        for name, value in vars(module).items()
        if fnmatch.fnmatchcase(name, pattern) and inspect.isfunction(value) and value.__module__ == module.__name__
    ]
    assert names, f"{layer}: {modname}.{pattern} matches no function defined in abcvote.{modname}"


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["search", "--rule", "av", "--axiom", "convexity", "--k", "1", "--max-m", "3", "--max-n", "2"], 18),
        (["check", "--rule", "sav", "--axiom", "iol", "--k", "1", "--profile", "{a}"], 1),
    ],
    ids=["search", "check"],
)
def test_the_tracer_sees_every_checker_call(tmp_path, argv, calls, capsys):
    """The tracer wraps a checker on its module; the axiom table must call it
    there, so that each instance's check is a checker span."""
    cli = importlib.import_module("abcvote.cli")
    path = tmp_path / "a.abc"
    path.write_text("m=3\n0 1\n0 1\n2\n")
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items() if name.split(".")[0] == "abcvote"}
    tracer = load_layertrace().Tracer()
    tracer.install(modules)
    try:
        cli.main([str(path) if arg == "{a}" else arg for arg in argv])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["checker.calls"] == calls
