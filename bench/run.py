"""ppmopt benchmark: one workload per invocation, result as a JSON line.

    python3 bench/run.py --workload designs|evolve|posemap \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ppmopt is imported from its
``src/``.  With ``--trace 0`` the workload runs untraced in a closed loop
for S seconds (longer if its tail percentile needs more samples) and the
end-to-end metrics are reported.  With ``--trace 1`` it runs its seeded
pass four times (untraced, traced, traced, untraced), checks that the
two traced passes give identical counters, and reports the per-layer
metrics of the first traced pass plus the tracing overhead.  Every run
also times set-up: fresh interpreters that import ``ppmopt.cli`` and
parse the default config.  Spans and run details go to ``.bench_out/``.
Times are CPU time of the process (see ``tracing.clock``).  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NoReturn

# BLAS/OpenMP threads are pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 3
SETUP_CODE = """\
import json, time
t0 = time.process_time()
import ppmopt.cli
t1 = time.process_time()
ppmopt.cli.load_config(None)
t2 = time.process_time()
print(json.dumps([t1 - t0, t2 - t1]))
"""
MIN_TAIL_EXCESS = 10     # samples required beyond each reported percentile
MAX_SECONDS = 100.0      # hard stop of the timed loop


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> dict:
    """Median CPU time of a fresh interpreter's whole set-up, and of its
    import and config parts."""
    env = dict(os.environ, PYTHONPATH=SRC)
    totals, imports, loads = [], [], []
    for _ in range(SETUP_RUNS):
        before = children_cpu_s()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        totals.append(children_cpu_s() - before)
        if proc.returncode != 0:
            fail(f"set-up child failed:\n{proc.stderr}")
        t_import, t_load = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(t_import)
        loads.append(t_load)
    return {"setup_s": statistics.median(totals),
            "import_s": statistics.median(imports),
            "load_config_s": statistics.median(loads)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(work, item, tracer=None):
    """One operation; an escaping exception fails all of its attempts."""
    try:
        return work.run(item, tracer)
    except Exception:                    # recorded and counted, run goes on
        traceback.print_exc()
        n = work.attempts_per_item
        return Op([], 0, 0.0, n, n)


def run_pass(work, tracer=None) -> list:
    return [run_op(work, item, tracer) for item in work.items()]


def timed_loop(work, seconds: float) -> list:
    """Cycle over the workload's pass until the time is up and the tail
    percentile has enough samples beyond it."""
    need = MIN_TAIL_EXCESS * 100 // (100 - work.tail)
    ops, n_samples = [], 0
    start = time.perf_counter()
    while True:
        for item in work.items():
            ops.append(run_op(work, item))
            n_samples += len(ops[-1].samples)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and n_samples >= need) \
                    or elapsed >= MAX_SECONDS:
                return ops


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(work, ops: list, setup: dict) -> dict:
    samples = [t for op in ops for t in op.samples]
    if not samples:
        fail("no operation completed")
    work_done = sum(op.work for op in ops)
    busy = sum(op.seconds for op in ops)
    return {
        "throughput_per_s": metric(work_done / busy, "1/s"),
        "op_p50_s": metric(statistics.median(samples), "s"),
        "op_tail_s": metric(float(np.percentile(samples, work.tail)), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(setup["setup_s"], "s"),
    }


def traced_run(work) -> tuple[list, dict, Tracer]:
    """Passes untraced, traced, traced, untraced: the traced pair must give
    identical counters, and the symmetric order keeps a slow drift in
    machine speed out of the tracing overhead."""
    untraced = run_pass(work)
    tracers, passes = [], []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            passes.append(run_pass(work, tracer))
        tracers.append(tracer)
    untraced += run_pass(work)
    counters = [layer_counters(t.spans) for t in tracers]
    repeat_fail = int(counters[0] != counters[1])
    if repeat_fail:
        print("bench: traced counters differ between identical passes:",
              {k: (v, counters[1][k]) for k, v in counters[0].items()
               if v != counters[1][k]}, file=sys.stderr)
    ops = untraced + passes[0] + passes[1]
    overhead = (sum(op.seconds for op in passes[0] + passes[1])
                / sum(op.seconds for op in untraced))
    return ops, {"counters": counters[0], "overhead": overhead,
                 "repeat_fail": repeat_fail}, tracers[0]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(trace: dict, tracer: Tracer, setup: dict) -> dict:
    c = trace["counters"]
    own = self_times(tracer.spans)
    out = {}
    for name in ("kinematics.ik_batch.calls", "kinematics.ik_batch.poses",
                 "kinematics.jacobian_batch.calls",
                 "performance.constraints_batch.calls",
                 "performance.constraints_batch.poses",
                 "performance.characteristic_length.calls",
                 "performance.characteristic_length.cache_hits",
                 "stiffness.stiffness_batch.calls",
                 "stiffness.stiffness_batch.poses",
                 "workspace.probes", "workspace.chunks",
                 "moga.evaluate_genome.calls"):
        out[name] = metric(c[name], "count")
    for layer in ("kinematics.ik_batch", "kinematics.jacobian_batch",
                  "performance.constraints_batch",
                  "performance.characteristic_length",
                  "stiffness.stiffness_batch",
                  "stiffness.stiffness_indices_batch",
                  "workspace.workspace_feasible", "moga.evaluate_genome"):
        out[layer + ".self_s"] = metric(own.get(layer, 0.0), "s")
    dedup = c["moga.slots"] - c["moga.evaluate_genome.calls"]
    out.update({
        "performance.usable_ratio": metric(ratio(
            c["performance.usable_poses"],
            c["performance.constraints_batch.poses"]), "ratio"),
        "stiffness.singular_ratio": metric(ratio(
            c["stiffness.singular_poses"],
            c["stiffness.stiffness_batch.poses"]), "ratio"),
        "workspace.probes_per_design": metric(ratio(
            c["workspace.probes"], c["workspace.designs"]), "probe/design"),
        "workspace.chunks_per_probe": metric(ratio(
            c["workspace.chunks"], c["workspace.probes"]), "chunk/probe"),
        "workspace.failed_probe_ratio": metric(ratio(
            c["workspace.failed_probes"], c["workspace.probes"]), "ratio"),
        "workspace.wasted_chunk_ratio": metric(ratio(
            c["workspace.wasted_chunks"], c["workspace.chunks"]), "ratio"),
        "workspace.poses_per_design": metric(ratio(
            c["workspace.chunk_poses"], c["workspace.designs"]), "pose/design"),
        "moga.dedup_hits": metric(dedup, "count"),
        "moga.dedup_hit_ratio": metric(ratio(dedup, c["moga.slots"]), "ratio"),
        "moga.infeasible_ratio": metric(ratio(
            c["moga.infeasible"], c["moga.evaluate_genome.calls"]), "ratio"),
        "moga.invalid_ratio": metric(ratio(
            c["moga.invalid"], c["moga.evaluate_genome.calls"]), "ratio"),
        "moga.bookkeeping_s": metric(evolve_bookkeeping_s(tracer.spans), "s"),
        "runconfig.load_config_s": metric(setup["load_config_s"], "s"),
        "setup.import_s": metric(setup["import_s"], "s"),
        "trace.overhead_ratio": metric(trace["overhead"], "ratio"),
    })
    return out


def environment(seed: int) -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "seed": seed, "threads": 1,
            "pinned": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args.seed)
    setup = measure_setup()
    work = WORKLOADS[args.workload](args.seed, OUT_DIR)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    trace = None
    if args.trace:
        ops, trace, tracer = traced_run(work)
        metrics = per_layer(trace, tracer, setup)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{run_id}.jsonl"), run_id)
    else:
        ops = timed_loop(work, args.seconds)
        metrics = end_to_end(work, ops, setup)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    summary = {"run": run_id, "environment": env, "setup": setup,
               "attempted": attempted, "metrics": metrics}
    lines = [f"{run_id}: nproc {env['nproc']}, python {env['python']}, "
             f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads 1"]
    if trace:
        failed += trace["repeat_fail"]
        summary["counters"] = trace["counters"]
        lines.append(f"  counters of the two traced passes "
                     f"{'differ' if trace['repeat_fail'] else 'agree'}; "
                     f"tracing overhead x{trace['overhead']:.4f}")
    else:
        # the same figures under their per-workload names
        samples = sorted(t for op in ops for t in op.samples)
        cut = metrics["op_tail_s"]["value"]
        beyond = len(samples) - bisect.bisect_right(samples, cut)
        summary["named"] = {name: metrics[key]["value"] for name, key in
                            zip(work.names, ("throughput_per_s", "op_p50_s",
                                             "op_tail_s"))}
        summary["samples"] = len(samples)
        summary["samples_beyond_tail"] = beyond
        lines += [f"  {name:22s} {value:.6g}"
                  for name, value in summary["named"].items()]
        lines.append(f"  {len(samples)} samples, {beyond} beyond p{work.tail}")
    summary["failed"] = failed
    lines.append(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    with open(os.path.join(OUT_DIR, f"run-{run_id}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "ppmopt")):
        fail(f"no ppmopt sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import numpy as np
    import ppmopt
    if not os.path.abspath(ppmopt.__file__).startswith(SRC + os.sep):
        fail(f"ppmopt imported from {ppmopt.__file__}, not {SRC}")
    from tracing import Tracer, evolve_bookkeeping_s, layer_counters, self_times
    from workloads import WORKLOADS, Op
    sys.exit(main())
