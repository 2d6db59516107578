"""The three benchmark workloads and the checks on their outputs.

All three run in one process with one caller that waits for each result
(a closed loop) and ``threads=1``.

designs  scores feasible PRR/RRR designs plus Designs I-III through the
         ``ppmopt evaluate`` path (bisection, home report, full-grid
         report at R_w) with a cold l_c cache each time: deep bisections
         of full chunks, where stiffness dominates.
evolve   runs a fixed-budget GA (30 x 10); most genomes are infeasible
         and leave after about two probes, so per-call overhead, the l_c
         search, early exit, the evaluator's dedup cache and the GA
         bookkeeping weigh far more than on ``designs``.  The GA seed is
         fixed (see EVOLVE_SEED), not taken from the benchmark seed.
posemap  evaluates g1..g6 with one ``constraints_batch`` call over a
         dense grid (about 8.6k poses) of each design's regular
         workspace, l_c resolved beforehand: per-pose kernel cost with
         no bisection, GA or per-call overhead in the way.

Each workload has one "pass" over its seeded inputs, a list of items;
running an item returns an Op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from typing import NamedTuple

import numpy as np

from ppmopt import cli, moga, performance
from ppmopt.errors import HomeUnreachable, PpmError
from ppmopt.kinematics import Pose
from ppmopt.model import Architecture, Bounds, DesignVector, validate
from ppmopt.performance import evaluate_constraints
from ppmopt.runconfig import load_config
from ppmopt.workspace import (GridSpec, WorkspaceSpec, grid_array,
                              max_regular_workspace_detail, upper_radius,
                              workspace_feasible)

from tracing import LC_CACHE, clock

# Design I's platform radius lies below the default box, so ``designs``
# uses a box that contains it; otherwise ``evaluate`` rejects it at once
# and no bisection is measured.
WIDE_BOUNDS = Bounds(lower=(0.1, 0.1, 0.1, 0.0, 0.0),
                     upper=(4.0, 4.0, 4.0, 0.1, 0.1))

# Published Designs I-III with their exact R_w and l_c at the default
# config.  Design I's R_w is the known-red acceptance criterion 07 value
# (dexterity-limited); it is pinned as measured, not as published.
PINNED = [
    (DesignVector(Architecture.PRR, 1.412, 0.319, 0.620, 0.026, 0.023),
     0.22601429635630865, 0.3524508728878475),
    (DesignVector(Architecture.PRR, 3.066, 1.283, 1.896, 0.036, 0.056),
     0.5550630578440467, 1.798600005296246),
    (DesignVector(Architecture.PRR, 3.872, 1.947, 1.977, 0.039, 0.096),
     1.0374103303182762, 2.7533989497099203),
]

# The GA's trajectory decides how many genomes are feasible, and a
# feasible genome costs ~40x an infeasible one: over GA seeds 0-7 the
# feasible share of the scored slots ran from 0.32 to 0.74 and the run
# time from 9 to 30 s (2-core machine), and at shares near one half the
# genome p50 jumps between the two classes.  A run has room for only two or three GAs, so
# no seeded choice of GA averages out; the workload runs one fixed GA
# whose feasible share (82 of 278 fresh genomes) keeps both reported
# percentiles inside one class.  Its archive digest is pinned.
EVOLVE_SEED = 5
EVOLVE_DIGEST = "0865414c410c84c6364ad5b42455a043f5b6fed48670b3a10cd1e14139b75036"
EVOLVE_POPULATION, EVOLVE_GENERATIONS = 30, 10

N_DESIGNS = 61                   # sampled designs per pass, plus Designs I-III
N_POSEMAP = 16                   # designs per posemap pass
POSEMAP_GRID = GridSpec(20, 48, 9)
POSEMAP_CHECK_ROWS = 6           # rows per design checked against the scalar path
MIN_RADIUS = 0.02                # [m] a sampled design is feasible at this radius


def sample_designs(rng: np.random.Generator, n: int, cfg) -> list[DesignVector]:
    """n home-reachable PRR/RRR designs (alternating) inside WIDE_BOUNDS
    whose cylinder of radius MIN_RADIUS is feasible."""
    out = []
    while len(out) < n:
        arch = (Architecture.PRR, Architecture.RRR)[len(out) % 2]
        big_r = rng.uniform(0.8, 3.0)
        r = rng.uniform(0.15, 0.6) * big_r
        if arch is Architecture.RRR:
            lb = (big_r - r) * rng.uniform(0.55, 1.2)
        else:
            lb = (big_r / 2.0 - r) + rng.uniform(0.1, 0.8) * big_r
        design = DesignVector(arch, big_r, r, lb, rng.uniform(0.02, 0.1),
                              rng.uniform(0.02, 0.1))
        try:
            validate(design, WIDE_BOUNDS)
            l_c = LC_CACHE(design, cfg.ctx)
        except (PpmError, HomeUnreachable):
            continue
        spec = WorkspaceSpec(MIN_RADIUS, cfg.center, cfg.delta_phi)
        if workspace_feasible(design, spec, cfg.grid, cfg.ctx, l_c)[0]:
            out.append(design)
    return out


class Op(NamedTuple):
    """One timed operation of a workload."""

    samples: list[float]   # latency samples [s]
    work: int              # throughput numerator: designs, GA slots, poses
    seconds: float         # timed seconds
    attempted: int         # operations: designs, GA slots, posemap calls
    failed: int            # failed operations (exception or failed check)


# ---------------------------------------------------------------------------
# designs

class Designs:
    name = "designs"
    tail = 90
    names = ("designs_per_s", "design_s_p50", "design_s_p90")
    attempts_per_item = 1

    def __init__(self, seed: int, out_dir: str):
        cfg = load_config(None)
        self.cfg = dataclasses.replace(cfg, bounds=WIDE_BOUNDS)
        rng = np.random.default_rng([seed, 1])
        self.designs = [d for d, _, _ in PINNED] + sample_designs(
            rng, N_DESIGNS, self.cfg)
        self.pins = {i: (rw, lc) for i, (_, rw, lc) in enumerate(PINNED)}
        self.report_path = os.path.join(out_dir, "design_report.json")
        self.first: dict[int, str] = {}

    def items(self):
        return range(len(self.designs))

    def run(self, i: int, tracer=None) -> Op:
        design = self.designs[i]
        LC_CACHE.cache_clear()
        if tracer is not None:
            tracer.design = i
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cmd_evaluate(self.cfg, design, self.report_path)
        dt = clock() - t0
        with open(self.report_path, encoding="utf-8") as fh:
            text = fh.read()
        if i in self.first:            # repeats must be byte-identical
            return Op([dt], 1, dt, 1, int(text != self.first[i]))
        self.first[i] = text
        return Op([dt], 1, dt, 1, int(self.check(i, code, json.loads(text)) > 0))

    def check(self, i: int, code: int, doc: dict) -> int:
        """Failed checks of one design report (0 when all hold)."""
        design, cfg = self.designs[i], self.cfg
        r_w = doc.get("max_workspace_radius_m")
        l_c = doc.get("characteristic_length_m")
        if code != 0 or not doc["feasible"] or r_w is None or l_c is None:
            return 1
        fails = 0
        if not all(math.isfinite(v) and v > 0.0 for v in
                   (doc["mass_kg"], r_w, l_c)):
            fails += 1
        if i in self.pins and (r_w, l_c) != self.pins[i]:
            fails += 1
        # bisection invariant: feasible at R_w, and the limiting report
        # comes from a failing pose within one tolerance outside R_w
        spec = WorkspaceSpec(r_w, cfg.center, cfg.delta_phi)
        if not workspace_feasible(design, spec, cfg.grid, cfg.ctx, l_c)[0]:
            fails += 1
        pose = doc["workspace"]["limiting_pose"]
        limiting = doc["workspace"]["limiting_constraints"]
        if pose is None:
            fails += int(r_w != upper_radius(design))
        else:
            dist = math.hypot(pose["p_x"] - cfg.center[0],
                              pose["p_y"] - cfg.center[1])
            again = evaluate_constraints(
                design, Pose(pose["p_x"], pose["p_y"], pose["phi"]), cfg.ctx)
            fails += int(limiting["overall"] or again.overall
                         or dist > r_w + cfg.bisection_tol + 1e-12)
        return fails


# ---------------------------------------------------------------------------
# evolve

def archive_digest(result) -> str:
    h = hashlib.sha256()
    for e in result.archive.entries:
        h.update(f"{e.key.hex()},{e.mass!r},{e.r_w!r},"
                 f"{e.characteristic_length!r}\n".encode())
    return h.hexdigest()


class Evolve:
    name = "evolve"
    tail = 95
    names = ("evolve_evals_per_s", "genome_s_p50", "genome_s_p95")

    def __init__(self, seed: int, out_dir: str):
        self.cfg = load_config(None)
        self.moga = moga.MogaConfig(population=EVOLVE_POPULATION,
                                    generations=EVOLVE_GENERATIONS,
                                    seed=EVOLVE_SEED)
        self.attempts_per_item = self.moga.population * self.moga.generations

    def items(self):
        return range(1)

    def run(self, i: int, tracer=None) -> Op:
        """One full GA run; samples are the per-genome evaluation times and
        the work is the budget of scored slots."""
        samples: list[float] = []
        inner = moga.evaluate_genome

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                samples.append(clock() - t0)

        LC_CACHE.cache_clear()
        moga.evaluate_genome = timed
        try:
            t0 = clock()
            result = moga.evolve(self.moga, self.cfg.bounds, self.cfg.grid,
                                 self.cfg.ctx, self.cfg.bisection_tol,
                                 threads=1)
            dt = clock() - t0
        finally:
            moga.evaluate_genome = inner
        budget = self.attempts_per_item
        return Op(samples, budget, dt, budget,
                  min(budget, self.check(result, budget)))

    def check(self, result, budget: int) -> int:
        fails = sum(1 for e in result.evaluations
                    if not (math.isfinite(e.mass) and math.isfinite(e.r_w)))
        fails += int(len(result.evaluations) != budget)
        entries = result.archive.entries
        fails += int(not entries or not all(
            e.feasible and math.isfinite(e.mass) and math.isfinite(e.r_w)
            for e in entries))
        fails += int(any(moga.dominates(a, b) for a in entries
                         for b in entries))
        fails += int(archive_digest(result) != EVOLVE_DIGEST)
        return fails


# ---------------------------------------------------------------------------
# posemap

class Posemap:
    name = "posemap"
    tail = 90
    names = ("posemap_poses_per_s", "posemap_call_s_p50", "posemap_call_s_p90")
    attempts_per_item = 1

    def __init__(self, seed: int, out_dir: str):
        self.cfg = cfg = load_config(None)
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for design in sample_designs(rng, N_POSEMAP, cfg):
            res = max_regular_workspace_detail(design, cfg.grid, cfg.ctx,
                                               cfg.bisection_tol, cfg.center,
                                               cfg.delta_phi)
            spec = WorkspaceSpec(res.radius, cfg.center, cfg.delta_phi)
            poses = grid_array(spec, POSEMAP_GRID)
            rows = rng.choice(poses.shape[0], POSEMAP_CHECK_ROWS,
                              replace=False)
            self.cases.append((design, res.characteristic_length, poses, rows))
        self.first: dict[int, str] = {}

    def items(self):
        return range(len(self.cases))

    def run(self, i: int, tracer=None) -> Op:
        design, l_c, poses, rows = self.cases[i]
        if tracer is not None:
            tracer.design = i
        t0 = clock()    # looked up at call time, so it can be traced
        res = performance.constraints_batch(design, poses, self.cfg.ctx, l_c=l_c)
        dt = clock() - t0
        digest = hashlib.sha256(b"".join(
            getattr(res, f).tobytes() for f in res.__slots__)).hexdigest()
        n = poses.shape[0]
        if i in self.first:
            return Op([dt], n, dt, 1, int(digest != self.first[i]))
        self.first[i] = digest
        fails = int(not (np.isfinite(res.kinv).all() and np.isfinite(res.kxy).all()))
        for row in rows:
            fails += int(evaluate_constraints(design, Pose(*poses[row]),
                                              self.cfg.ctx) != res.report(row))
        return Op([dt], n, dt, 1, int(fails > 0))


WORKLOADS = {w.name: w for w in (Designs, Evolve, Posemap)}
