"""The traced benchmark replaces module globals by name, so a layer that
drops or renames one breaks it only at benchmark time; this catches it in
the test suite instead."""

import importlib.util
import inspect
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
    # the positional call shapes the workloads make: a product change that
    # breaks one fails here first, not at benchmark time
    for fn, n_args, kwargs in (
            (workloads.max_regular_workspace_detail, 6, {}),
            (workloads.moga.evolve, 5, {"threads": 1}),
            (workloads.workspace_feasible, 5, {}),
            (workloads.performance.constraints_batch, 3, {"l_c": 0.5}),
            (workloads.cli.cmd_evaluate, 3, {}),
            (workloads.LC_CACHE, 2, {})):
        inspect.signature(fn).bind(*range(n_args), **kwargs)


def test_evolve_workload_check_passes(monkeypatch, tmp_path):
    # the one benchmark pin tier-1 covers nowhere else: EVOLVE_DIGEST, the
    # archive of the workload's 30 x 10 GA (about 1 s), through its own check
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = _load(BENCH / "workloads.py", "bench_workloads")
    op = workloads.Evolve(0, str(tmp_path)).run(0)
    assert (op.attempted, op.failed) == (300, 0)


def test_constraint_slots_pinned():
    # the posemap digest and the tracer read BatchConstraints by these
    # names in this order; an emptied or reordered __slots__ would still
    # run, only with a different digest
    from ppmopt import performance
    assert performance.BatchConstraints.__slots__ == (
        "g1", "g2", "g3", "g4", "g5", "g6", "ik", "kinv", "kxy", "kz", "kphiz",
        "overall")
