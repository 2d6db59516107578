"""The traced benchmark replaces module globals by name, so a layer that
drops or renames one breaks it only at benchmark time; this catches it in
the test suite instead."""

import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist():
    tracing = _load(TRACING, "bench_tracing")
    for name, (modules, attr, _) in tracing.TARGETS.items():
        for module in modules:
            assert callable(getattr(module, attr, None)), (name, module.__name__)


def test_workloads_lookups_exist(monkeypatch):
    # the workloads import their tracing helpers as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = _load(BENCH / "workloads.py", "bench_workloads")
    # the names the workloads look up only when they run
    for path in ("moga.evaluate_genome", "moga.evolve", "moga.dominates",
                 "cli.cmd_evaluate", "performance.constraints_batch",
                 "LC_CACHE.cache_clear"):
        obj = workloads
        for part in path.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), path


def test_constraint_slots_pinned():
    # the posemap digest and the tracer read BatchConstraints by these
    # names in this order; an emptied or reordered __slots__ would still
    # run, only with a different digest
    from ppmopt import performance
    assert performance.BatchConstraints.__slots__ == (
        "g1", "g2", "g3", "g4", "g5", "g6", "ik", "kinv", "kxy", "kz", "kphiz",
        "overall")
