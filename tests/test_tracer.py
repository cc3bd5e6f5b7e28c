"""The names the benchmark's tracer wraps, checked against the package."""

import importlib
import inspect
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


def test_every_argument_the_tracer_reads_is_a_parameter(monkeypatch):
    # perfbench/tracer.py binds a traced call's arguments and reads some by
    # name (_doublesum_pairs, _doublesum_kind, _counts), so a renamed
    # parameter otherwise shows only as a KeyError in the traced child
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("tracer").TRACED
    doublesums = set(traced["doublesums"])
    reads = {
        "n_max": {"doublesums.f_sum", "doublesums.g_sum"},
        "t": {f"doublesums.{name}" for name in
              doublesums - {"lemma32_identity_residual", "f_sum", "g_sum"}},
        "delta": {"doublesums.s5_1_sum", "doublesums.s5_2_sum"},
        # a.get: every traced double sum with a brute-force route takes it
        "strategy": {f"doublesums.{name}" for name in (
            "grid_double_sum", "f_sum", "g_sum", "tail_double_sum", "s4_a_sum",
            "s4_b_sum", "s5_1_sum", "s5_2_sum")},
        "spec": {"phases.single_sum"},
        "upper": {"phases.power_prefix"},
        "chunks": {"kernel.reduce_deterministic"},
        "values": {"kernel.sum_array_deterministic"},
    }
    missing = []
    for arg, functions in reads.items():
        for qualified in sorted(functions):
            module, name = qualified.split(".")
            assert name in traced[module], f"{qualified} is not traced"
            fn = getattr(importlib.import_module(f"zetasum.{module}"), name)
            if arg not in inspect.signature(fn).parameters:
                missing.append(f"{qualified}({arg})")
    assert not missing
    # and no other traced double sum has a strategy the tracer would miss
    takes_strategy = {f"doublesums.{name}" for name in doublesums
                      if "strategy" in inspect.signature(
                          getattr(importlib.import_module("zetasum.doublesums"), name)).parameters}
    assert takes_strategy == reads["strategy"]
