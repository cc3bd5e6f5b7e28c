"""The names the benchmark's tracer wraps, checked against the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    # perfbench/tracer.py looks each name up by getattr in the traced child
    # process, so a missing one otherwise shows only as that child's AttributeError
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("tracer").TRACED
    missing = [f"zetasum.{module}.{name}" for module, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"zetasum.{module}"), name, None))]
    assert not missing
