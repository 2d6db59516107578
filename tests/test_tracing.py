"""The traced benchmark replaces module globals by name, so a layer that
drops or renames one breaks it only at benchmark time; this catches it in
the test suite instead."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, (modules, attr, _) in tracing.TARGETS.items():
        for module in modules:
            assert callable(getattr(module, attr, None)), (name, module.__name__)
