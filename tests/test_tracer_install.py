"""The benchmark tracer patches names of the package by attribute.

A refactor that removes or renames a traced name breaks every traced
benchmark run, so the tracer is installed here over every module.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import eismeasure

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every module of the package and every class it defines, by name."""
    out = {}
    for info in pkgutil.iter_modules(eismeasure.__path__):
        mod = importlib.import_module(f"eismeasure.{info.name}")
        out[info.name] = mod
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out[f"{info.name}.{name}"] = value
    return out


def _snapshot(namespaces):
    return {key: dict(vars(ns)) for key, ns in namespaces.items()}


def test_the_tracer_wraps_every_traced_name_and_puts_the_originals_back():
    tracing = _load_tracing()
    namespaces = _namespaces()
    before = _snapshot(namespaces)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, cls, attr) in tracing.SPANNED:
            owner = namespaces[mod if cls is None else f"{mod}.{cls}"]
            assert hasattr(getattr(owner, attr), "__wrapped__"), (mod, cls, attr)
        for (mod, cls), (_, attrs) in tracing.COUNTED.items():
            for attr in attrs:
                assert hasattr(getattr(namespaces[f"{mod}.{cls}"], attr),
                               "__wrapped__"), (mod, cls, attr)
    finally:
        tracer.uninstall()
    after = _snapshot(namespaces)
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        changed = [name for name, value in names.items()
                   if after[key][name] is not value]
        assert changed == [], key
