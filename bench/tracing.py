"""In-memory span tracer for the benchmark's traced run.

Each public function of a ppmopt layer is wrapped where it is looked up,
not only where it is defined: ``workspace`` calls ``constraints_batch``
through its own module global, so the wrapper has to replace
``ppmopt.workspace.constraints_batch`` as well as
``ppmopt.performance.constraints_batch``.  A span records (name, start,
end, parent span, design id, facts about the call); self times and the
per-layer counters are computed from the spans after the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

from ppmopt import cli, kinematics, moga, performance, stiffness, workspace


def _poses(args):
    return int(np.atleast_2d(args[1]).shape[0])


def _constraints_info(args, result):
    usable = result.ik & result.g2
    return {"poses": int(usable.size), "usable": int(usable.sum()),
            "passed": bool(result.overall.all())}


def _stiffness_info(args, result):
    _, ok = result
    return {"poses": int(ok.size), "singular": int((~ok).sum())}


def _genome_info(args, result):
    return {"feasible": bool(result.feasible),
            "invalid": int(result.violations == 9)}


# name -> (modules whose global of that name is replaced, attribute,
#          facts recorded from (args, result))
TARGETS = {
    "kinematics.ik_batch": ((kinematics, performance, stiffness), "ik_batch",
                            lambda a, r: {"poses": _poses(a)}),
    "kinematics.jacobian_batch": ((kinematics, performance), "jacobian_batch",
                                  None),
    "performance.constraints_batch": ((performance, workspace, cli),
                                      "constraints_batch", _constraints_info),
    "performance.characteristic_length": ((performance, workspace),
                                          "characteristic_length", None),
    "stiffness.stiffness_batch": ((stiffness, performance), "stiffness_batch",
                                  _stiffness_info),
    "stiffness.stiffness_indices_batch": ((stiffness, performance),
                                          "stiffness_indices_batch", None),
    "workspace.workspace_feasible": ((workspace,), "workspace_feasible",
                                     lambda a, r: {"feasible": bool(r[0])}),
    "workspace.max_regular_workspace_detail": ((workspace, moga, cli),
                                               "max_regular_workspace_detail",
                                               None),
    "moga.evaluate_genome": ((moga,), "evaluate_genome", _genome_info),
    "moga.evolve": ((moga,), "evolve",
                    lambda a, r: {"slots": len(r.evaluations)}),
    "cli.cmd_evaluate": ((cli,), "cmd_evaluate", None),
}

#: the process-wide l_c cache; cleared through the original, never a wrapper
LC_CACHE = performance.characteristic_length

#: Every benchmark time is CPU time of this process.  On a shared virtual
#: machine the hypervisor takes the CPU away for tens of milliseconds at a
#: time (about a quarter of wall time in some minutes on the 2-vCPU machine
#: the benchmark was tuned on); that steal inflates wall times by up to
#: 2.5x per operation but is not counted here.  The workloads run one
#: thread and start no process, so CPU time is the time a dedicated
#: machine would take.
clock = time.process_time


class Span:
    __slots__ = ("name", "start", "end", "parent", "design", "info",
                 "child_s")

    def __init__(self, name, parent, design):
        self.name, self.parent, self.design = name, parent, design
        self.start = self.end = self.child_s = 0.0
        self.info = {}             # stays empty when the call raised

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.design = None

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "moga.evaluate_genome":
                tracer.design = moga.genome_key(args[0]).hex()
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, parent, tracer.design)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if name == "performance.characteristic_length":
                hits = LC_CACHE.cache_info().hits
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_s += span.end - span.start
                if name == "performance.characteristic_length":
                    span.info = {"hit": int(LC_CACHE.cache_info().hits > hits)}
            if info is not None:
                span.info = info(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced lookup site; restore them on exit."""
        saved = []
        try:
            for name, (modules, attr, info) in TARGETS.items():
                original = getattr(modules[0], attr)
                wrapper = self._wrap(name, original, info)
                for module in modules:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: str, run_id: str):
        """Write the spans as JSON lines (times relative to the first)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": run_id, "id": i, "name": s.name,
                    "start_s": s.start - t0, "end_s": s.end - t0,
                    "parent": s.parent, "design": s.design,
                    "info": s.info}) + "\n")


def layer_counters(spans: list[Span]) -> dict:
    """Exact, machine-independent counts of one traced pass."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum(s.info.get(key, 0) for s in by_name.get(name, ()))

    failed_probes = {i for i, s in enumerate(spans)
                     if s.name == "workspace.workspace_feasible"
                     and not s.info.get("feasible")}
    # a chunk is one constraints_batch call made by a bisection probe
    chunks = [s for s in by_name.get("performance.constraints_batch", ())
              if s.parent >= 0
              and spans[s.parent].name == "workspace.workspace_feasible"]
    genomes = by_name.get("moga.evaluate_genome", ())
    return {
        "kinematics.ik_batch.calls": calls("kinematics.ik_batch"),
        "kinematics.ik_batch.poses": total("kinematics.ik_batch", "poses"),
        "kinematics.jacobian_batch.calls": calls("kinematics.jacobian_batch"),
        "performance.constraints_batch.calls":
            calls("performance.constraints_batch"),
        "performance.constraints_batch.poses":
            total("performance.constraints_batch", "poses"),
        "performance.usable_poses":
            total("performance.constraints_batch", "usable"),
        "performance.characteristic_length.calls":
            calls("performance.characteristic_length"),
        "performance.characteristic_length.cache_hits":
            total("performance.characteristic_length", "hit"),
        "stiffness.stiffness_batch.calls": calls("stiffness.stiffness_batch"),
        "stiffness.stiffness_batch.poses":
            total("stiffness.stiffness_batch", "poses"),
        "stiffness.singular_poses": total("stiffness.stiffness_batch",
                                          "singular"),
        "workspace.designs": calls("workspace.max_regular_workspace_detail"),
        "workspace.probes": calls("workspace.workspace_feasible"),
        "workspace.failed_probes": len(failed_probes),
        "workspace.chunks": len(chunks),
        "workspace.wasted_chunks": sum(1 for s in chunks
                                       if s.parent in failed_probes
                                       and s.info.get("passed")),
        "workspace.chunk_poses": sum(s.info.get("poses", 0) for s in chunks),
        "moga.slots": total("moga.evolve", "slots"),
        "moga.evaluate_genome.calls": len(genomes),
        "moga.infeasible": sum(1 for s in genomes
                               if not s.info.get("feasible")),
        "moga.invalid": total("moga.evaluate_genome", "invalid"),
    }


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name [s]."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.self_s
    return out


def evolve_bookkeeping_s(spans: list[Span]) -> float:
    """GA wall time spent outside the genome evaluator [s]."""
    return sum(s.self_s for s in spans if s.name == "moga.evolve")
