"""The benchmark's tracer patches catparse names by lookup (``vars(owner)[attr]``),
so a refactor that drops or renames a traced name would only fail when the
benchmark runs. Instrumenting and restoring the package here catches it first."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import catparse
from catparse import baselines, engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def namespaces() -> list[object]:
    """Every catparse module, and every class defined in one."""
    modules = [
        importlib.import_module(f"catparse.{info.name}")
        for info in pkgutil.iter_modules(catparse.__path__)
        if info.name != "__main__"
    ]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    return modules + classes


def test_instrument_patches_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    tracer_module = importlib.import_module("tracer")
    before = {id(owner): dict(vars(owner)) for owner in namespaces()}
    decode, featurize = engine.decode, baselines.featurize

    tracer = tracer_module.Tracer()
    try:
        workload.instrument(tracer)
        assert engine.decode is not decode and engine.decode.__wrapped__ is decode
        assert baselines.featurize.__wrapped__ is featurize
    finally:
        tracer.restore()

    assert engine.decode is decode and baselines.featurize is featurize
    for owner in namespaces():
        assert dict(vars(owner)) == before[id(owner)], owner
