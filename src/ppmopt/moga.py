"""Constrained multiobjective genetic algorithm over the design space.

Objectives: minimize the mass in motion, maximize the regular-workspace
radius.  The genome is a binary DNA string: a 2-bit architecture gene
plus five 16-bit Gray-coded continuous genes scaled to the bounds box.

The optimizer is a reconstruction of the commercial scheduler the source
study ran (its operator table is published, the algorithm is not): per
offspring slot an operator is drawn by roulette over

    directional crossover   0.50
    selection (clone)       0.05
    bit mutation            0.10
    one-point crossover     0.35   (the remaining probability mass)

with parents picked by binary tournament on (feasibility, Pareto rank,
crowding distance); infeasible individuals always lose.  An elitist
archive keeps the non-dominated feasible set, feeds the parent pool and
is updated with dominance filtering every generation.  All randomness is
drawn from one seeded generator in the sequential stage, so runs are
bit-reproducible regardless of evaluation parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import PpmError
from .model import (Architecture, Bounds, DEFAULT_BOUNDS, DesignVector, mass,
                    validate)
from .performance import ConstraintReport, DEFAULT_CONTEXT, EvalContext
from .workspace import (BISECTION_TOL_DEFAULT, CENTER_DEFAULT, DEFAULT_GRID,
                        DELTA_PHI_DEFAULT, GridSpec,
                        max_regular_workspace_detail)

GENE_BITS = 16
GENE_MAX = (1 << GENE_BITS) - 1
ARCH_BITS = 2
N_VARS = 5
N_BITS = ARCH_BITS + N_VARS * GENE_BITS   # 82-bit DNA string

#: Reference point for the hypervolume history (mass cap, radius floor).
HV_REF_MASS = 5000.0
HV_REF_RADIUS = 0.0


@dataclass(frozen=True)
class MogaConfig:
    """Scheduler parameters; defaults follow the published run setup."""

    population: int = 30
    generations: int = 200
    p_directional_crossover: float = 0.5
    p_selection: float = 0.05            # parent cloning
    p_mutation: float = 0.1
    dna_mutation_ratio: float = 0.05     # per-bit flip probability
    seed: int = 0
    doe: str = "sobol"                   # or "latin"

    def __post_init__(self):
        probs = (self.p_directional_crossover, self.p_selection, self.p_mutation)
        if any(not 0.0 <= p <= 1.0 for p in probs) or sum(probs) > 1.0:
            raise ValueError("operator probabilities must lie in [0,1] and sum <= 1")
        if self.doe not in ("sobol", "latin"):
            raise ValueError(f"unknown DOE kind {self.doe!r}")
        if self.population < 2 or self.generations < 1:
            raise ValueError("population >= 2 and generations >= 1 required")

    @property
    def p_classical_crossover(self) -> float:
        return 1.0 - (self.p_directional_crossover + self.p_selection
                      + self.p_mutation)


# ---------------------------------------------------------------------------
# Genome codec

def _to_gray(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> 1)


def _from_gray(g: np.ndarray) -> np.ndarray:
    v = g.copy()
    shift = 1
    while shift < GENE_BITS:
        v ^= v >> shift
        shift <<= 1
    return v


def _int_to_bits(v: np.ndarray, width: int) -> np.ndarray:
    """MSB-first bit expansion of unsigned integers, shape (..., width)."""
    shifts = np.arange(width - 1, -1, -1)
    return ((v[..., None] >> shifts) & 1).astype(np.uint8)


def _bits_to_int(bits: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1)
    return (bits.astype(np.int64) << shifts).sum(axis=-1)


def encode(design: DesignVector, bounds: Bounds = DEFAULT_BOUNDS) -> np.ndarray:
    """Design -> 82-bit genome (architecture gene + Gray-coded variables)."""
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    x = np.array(design.as_tuple()[1:])
    with np.errstate(invalid="ignore"):
        frac = np.where(hi > lo, (x - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    idx = np.clip(np.rint(frac * GENE_MAX), 0, GENE_MAX).astype(np.int64)
    arch_bits = _int_to_bits(np.array(int(design.architecture) - 1), ARCH_BITS)
    gene_bits = _int_to_bits(_to_gray(idx), GENE_BITS).reshape(-1)
    return np.concatenate([arch_bits, gene_bits])


def decode(genome: np.ndarray, bounds: Bounds = DEFAULT_BOUNDS) -> DesignVector:
    """Genome -> design on the quantization lattice."""
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    arch_code = int(_bits_to_int(genome[:ARCH_BITS], ARCH_BITS))
    arch = Architecture(arch_code % 3 + 1)
    gray = _bits_to_int(genome[ARCH_BITS:].reshape(N_VARS, GENE_BITS), GENE_BITS)
    idx = _from_gray(gray)
    x = lo + idx / GENE_MAX * (hi - lo)
    return DesignVector(arch, *x)


def genome_key(genome: np.ndarray) -> bytes:
    return np.packbits(genome).tobytes()


# ---------------------------------------------------------------------------
# Design of experiments

def doe_genomes(cfg: MogaConfig, bounds: Bounds = DEFAULT_BOUNDS) -> list[np.ndarray]:
    """Initial population: low-discrepancy samples of the continuous box
    with the architecture gene stratified round-robin over {1, 2, 3}."""
    # imported here: scipy.stats takes most of the start-up time of every
    # command and pool worker, and only the DOE needs it
    from scipy.stats import qmc

    n = cfg.population
    if cfg.doe == "sobol":
        sampler = qmc.Sobol(d=N_VARS, scramble=True, seed=cfg.seed)
        m = max(1, math.ceil(math.log2(n)))
        unit = sampler.random_base2(m)[:n]
    else:
        unit = qmc.LatinHypercube(d=N_VARS, seed=cfg.seed).random(n)
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    scaled = lo + unit * (hi - lo)
    genomes = []
    for i in range(n):
        arch = Architecture(i % 3 + 1)
        genomes.append(encode(DesignVector(arch, *scaled[i]), bounds))
    return genomes


def sobol_doe(n: int, bounds: Bounds = DEFAULT_BOUNDS, seed: int = 0
              ) -> list[np.ndarray]:
    """First n scrambled-Sobol designs as genomes (see doe_genomes)."""
    return doe_genomes(MogaConfig(population=n, seed=seed, doe="sobol"), bounds)


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True, eq=False)
class Evaluation:
    """One evaluated design: objectives plus the limiting-pose evidence.

    violations counts the failed constraint flags at the limiting pose
    (0 for feasible designs); the tournament uses it to steer infeasible
    individuals toward the feasible region.
    """

    design: DesignVector
    mass: float                # [kg]
    r_w: float                 # [m], 0 for infeasible designs
    feasible: bool
    report: ConstraintReport | None
    characteristic_length: float  # [m], nan when home-unreachable
    key: bytes                 # packed genome, identity on the lattice
    violations: int = 0


def _count_violations(report: ConstraintReport) -> int:
    return sum(not flag for flag in
               (report.g1_geometry, report.g2_stroke, report.g3_dexterity,
                report.g4_kxy, report.g5_kz, report.g6_kphiz,
                report.ik_reachable))


def evaluate_genome(genome: np.ndarray, bounds: Bounds = DEFAULT_BOUNDS,
                    grid: GridSpec = DEFAULT_GRID,
                    ctx: EvalContext = DEFAULT_CONTEXT,
                    tol: float = BISECTION_TOL_DEFAULT,
                    center: tuple[float, float, float] = CENTER_DEFAULT,
                    delta_phi: float = DELTA_PHI_DEFAULT) -> Evaluation:
    """Decode and score one genome over the workspace cylinder at center
    with rotation band delta_phi; every failure folds into infeasibility."""
    design = decode(genome, bounds)
    m = mass(design, ctx.material)
    key = genome_key(genome)
    try:
        validate(design, bounds)
    except PpmError:
        return Evaluation(design, m, 0.0, False, None, math.nan, key,
                          violations=9)
    res = max_regular_workspace_detail(design, grid, ctx, tol, center,
                                       delta_phi)
    feasible = bool(res.radius > 0.0)
    return Evaluation(design, m, float(res.radius), feasible,
                      res.limiting_report, float(res.characteristic_length),
                      key, violations=0 if feasible
                      else _count_violations(res.limiting_report))


# ---------------------------------------------------------------------------
# Dominance machinery

def dominates(a: Evaluation, b: Evaluation) -> bool:
    """a dominates b under (minimize mass, maximize workspace radius)."""
    return (a.mass <= b.mass and a.r_w >= b.r_w
            and (a.mass < b.mass or a.r_w > b.r_w))


@dataclass(frozen=True)
class ParetoArchive:
    """Mutually non-dominated feasible designs, sorted by radius ascending."""

    entries: tuple[Evaluation, ...] = ()

    def __len__(self):
        return len(self.entries)


def pareto_filter(points: list[Evaluation]) -> ParetoArchive:
    """Non-dominated feasible subset, deduplicated.

    Duplicates are dropped at two levels: identical genome lattice points,
    and identical objective pairs (first occurrence wins), which keeps the
    front strictly co-monotone in (mass, r_w).
    """
    seen_keys: set[bytes] = set()
    seen_obj: set[tuple[float, float]] = set()
    unique: list[Evaluation] = []
    for e in points:
        if not e.feasible or e.key in seen_keys:
            continue
        obj = (e.mass, e.r_w)
        if obj in seen_obj:
            continue
        seen_keys.add(e.key)
        seen_obj.add(obj)
        unique.append(e)
    if not unique:
        return ParetoArchive()
    masses = np.array([e.mass for e in unique])
    radii = np.array([e.r_w for e in unique])
    order = np.lexsort((-radii, masses))      # mass asc, radius desc on ties
    keep: list[Evaluation] = []
    best = -math.inf
    for idx in order:
        if radii[idx] > best:
            keep.append(unique[idx])
            best = radii[idx]
    keep.sort(key=lambda e: (e.r_w, e.mass))
    return ParetoArchive(entries=tuple(keep))


def per_architecture_fronts(evaluations: list[Evaluation]
                            ) -> dict[Architecture, ParetoArchive]:
    """Pareto front of each architecture, from the full evaluation history."""
    return {arch: pareto_filter([e for e in evaluations
                                 if e.design.architecture is arch])
            for arch in Architecture}


def hypervolume(archive: ParetoArchive) -> float:
    """Dominated area between the front and (HV_REF_MASS, HV_REF_RADIUS)."""
    area = 0.0
    pts = [e for e in archive.entries
           if e.mass < HV_REF_MASS and e.r_w > HV_REF_RADIUS]
    masses = [e.mass for e in pts] + [HV_REF_MASS]
    for i, e in enumerate(pts):
        area += (masses[i + 1] - e.mass) * (e.r_w - HV_REF_RADIUS)
    return area


# ---------------------------------------------------------------------------
# Selection

def _rank_and_crowding(pool: list[Evaluation]) -> tuple[np.ndarray, np.ndarray]:
    """Pareto rank (0 best; infeasible ranked last) and crowding distance."""
    n = len(pool)
    rank = np.full(n, n, dtype=float)
    crowd = np.zeros(n)
    feas = [i for i, e in enumerate(pool) if e.feasible]
    remaining = set(feas)
    level = 0
    while remaining:
        idx = sorted(remaining)
        masses = np.array([pool[i].mass for i in idx])
        radii = np.array([pool[i].r_w for i in idx])
        front = []
        for k, i in enumerate(idx):
            dominated = ((masses <= masses[k]) & (radii >= radii[k])
                         & ((masses < masses[k]) | (radii > radii[k]))).any()
            if not dominated:
                front.append(i)
        for i in front:
            rank[i] = level
            remaining.discard(i)
        crowd_front = _crowding([pool[i] for i in front])
        for i, c in zip(front, crowd_front):
            crowd[i] = c
        level += 1
    return rank, crowd


def _crowding(front: list[Evaluation]) -> np.ndarray:
    n = len(front)
    if n <= 2:
        return np.full(n, math.inf)
    dist = np.zeros(n)
    for values in ([e.mass for e in front], [e.r_w for e in front]):
        v = np.array(values)
        order = np.argsort(v, kind="stable")
        span = v[order[-1]] - v[order[0]]
        dist[order[0]] = dist[order[-1]] = math.inf
        if span > 0:
            dist[order[1:-1]] += (v[order[2:]] - v[order[:-2]]) / span
    return dist


class _Tournament:
    """Binary tournament on (feasibility, rank, crowding) over a pool."""

    def __init__(self, pool: list[Evaluation], rng: np.random.Generator):
        self.pool = pool
        self.rng = rng
        self.rank, self.crowd = _rank_and_crowding(pool)

    def _better(self, i: int, j: int) -> int:
        a, b = self.pool[i], self.pool[j]
        if a.feasible != b.feasible:
            return i if a.feasible else j
        if not a.feasible:               # fewer constraint failures wins
            return i if a.violations <= b.violations else j
        if self.rank[i] != self.rank[j]:
            return i if self.rank[i] < self.rank[j] else j
        if self.crowd[i] != self.crowd[j]:
            return i if self.crowd[i] > self.crowd[j] else j
        return i

    def pick(self) -> int:
        i, j = self.rng.integers(0, len(self.pool), size=2)
        return self._better(int(i), int(j))

    def compare(self, i: int, j: int) -> bool:
        """True when i is the better of the pair."""
        return self._better(i, j) == i


# ---------------------------------------------------------------------------
# Variation operators

def _directional_crossover(tour: _Tournament, bounds: Bounds,
                           rng: np.random.Generator) -> np.ndarray:
    """Move a parent along signed improvement directions to two references.

    The sign of each step is +1 when the primary parent beats the
    reference (step away from the worse design) and -1 otherwise; step
    lengths are uniform in [0, 1).  Architecture is inherited from the
    primary parent; the result is clipped to the box and re-encoded.
    """
    i0, i1, i2 = tour.pick(), tour.pick(), tour.pick()
    x0 = np.array(tour.pool[i0].design.as_tuple()[1:])
    x1 = np.array(tour.pool[i1].design.as_tuple()[1:])
    x2 = np.array(tour.pool[i2].design.as_tuple()[1:])
    s1 = 1.0 if tour.compare(i0, i1) else -1.0
    s2 = 1.0 if tour.compare(i0, i2) else -1.0
    t1, t2 = rng.random(2)
    child = x0 + 0.5 * t1 * s1 * (x0 - x1) + 0.5 * t2 * s2 * (x0 - x2)
    child = np.clip(child, bounds.lower, bounds.upper)
    return encode(DesignVector(tour.pool[i0].design.architecture, *child), bounds)


def _one_point_crossover(a: np.ndarray, b: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    cut = int(rng.integers(1, N_BITS))
    return np.concatenate([a[:cut], b[cut:]])


def _bit_mutation(genome: np.ndarray, ratio: float,
                  rng: np.random.Generator) -> np.ndarray:
    flips = rng.random(N_BITS) < ratio
    return genome ^ flips.astype(np.uint8)


# ---------------------------------------------------------------------------
# Main loop

@dataclass(frozen=True)
class GenerationStats:
    generation: int
    hypervolume: float
    n_feasible: int        # feasible evaluations within this generation


@dataclass(frozen=True)
class MogaResult:
    archive: ParetoArchive
    history: tuple[GenerationStats, ...]
    evaluations: tuple[Evaluation, ...]   # every scored individual, in order


def _eval_worker(key: bytes, search: tuple) -> Evaluation:
    return evaluate_genome(_unpack(key), *search)


class _Evaluator:
    """Deduplicating evaluator with optional process parallelism.

    search holds evaluate_genome's arguments after the genome.
    """

    def __init__(self, search: tuple, threads: int):
        self.search = search
        self.cache: dict[bytes, Evaluation] = {}
        if threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = all cores), got {threads}")
        n_workers = (os.cpu_count() or 1) if threads == 0 else threads
        self.pool = (ProcessPoolExecutor(max_workers=n_workers)
                     if n_workers > 1 else None)

    def __call__(self, genomes: list[np.ndarray]) -> list[Evaluation]:
        keys = [genome_key(g) for g in genomes]
        fresh = [k for k in dict.fromkeys(keys) if k not in self.cache]
        run = self.pool.map if self.pool is not None and len(fresh) > 1 else map
        self.cache.update(zip(fresh, run(_eval_worker, fresh, repeat(self.search))))
        return [self.cache[k] for k in keys]

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


def evolve(cfg: MogaConfig, bounds: Bounds = DEFAULT_BOUNDS,
           grid: GridSpec = DEFAULT_GRID, ctx: EvalContext = DEFAULT_CONTEXT,
           tol: float = BISECTION_TOL_DEFAULT, threads: int = 1,
           progress=None, *,
           center: tuple[float, float, float] = CENTER_DEFAULT,
           delta_phi: float = DELTA_PHI_DEFAULT) -> MogaResult:
    """Run the full optimization: DOE generation plus evolution steps.

    Every genome is scored over the workspace cylinder at center with
    rotation band delta_phi.  Total budget is exactly population x
    generations scored slots (the DOE counts as generation 0).  Identical
    inputs reproduce identical results bit-for-bit, with any thread
    count.  progress, when given, is called with each generation's stats.
    """
    rng = np.random.default_rng(cfg.seed)
    evaluator = _Evaluator((bounds, grid, ctx, tol, center, delta_phi),
                           threads)
    try:
        genomes = doe_genomes(cfg, bounds)
        evals = evaluator(genomes)
        all_evals: list[Evaluation] = list(evals)
        archive = pareto_filter(evals)
        history = [GenerationStats(0, hypervolume(archive),
                                   sum(e.feasible for e in evals))]
        if progress is not None:
            progress(history[-1])
        ops = np.array([cfg.p_directional_crossover, cfg.p_selection,
                        cfg.p_mutation, cfg.p_classical_crossover])
        cum = np.cumsum(ops)
        for gen in range(1, cfg.generations):
            current = {v.key for v in evals}
            pool = list(evals) + [e for e in archive.entries
                                  if e.key not in current]
            tour = _Tournament(pool, rng)
            offspring: list[np.ndarray] = []
            for _ in range(cfg.population):
                draw = rng.random() * cum[-1]
                op = int(np.searchsorted(cum, draw, side="right"))
                if op == 0:
                    child = _directional_crossover(tour, bounds, rng)
                elif op == 1:
                    child = _unpack(pool[tour.pick()].key)
                elif op == 2:
                    child = _bit_mutation(_unpack(pool[tour.pick()].key),
                                          cfg.dna_mutation_ratio, rng)
                else:
                    child = _one_point_crossover(_unpack(pool[tour.pick()].key),
                                                 _unpack(pool[tour.pick()].key),
                                                 rng)
                offspring.append(child)
            evals = evaluator(offspring)
            all_evals.extend(evals)
            archive = pareto_filter(list(archive.entries) + evals)
            history.append(GenerationStats(gen, hypervolume(archive),
                                           sum(e.feasible for e in evals)))
            if progress is not None:
                progress(history[-1])
    finally:
        evaluator.close()
    return MogaResult(archive=archive, history=tuple(history),
                      evaluations=tuple(all_evals))


def _unpack(key: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(key, dtype=np.uint8))[:N_BITS].copy()
