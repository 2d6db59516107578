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

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .errors import InvalidValue, PpmError
from .model import (Architecture, Bounds, DEFAULT_BOUNDS, DesignVector,
                    SHORT_NAMES, check_counts, mass, validate)
from .performance import ConstraintReport, DEFAULT_CONTEXT, EvalContext
from .workspace import (BISECTION_TOL_DEFAULT, CENTER_DEFAULT, DEFAULT_GRID,
                        DELTA_PHI_DEFAULT, GridSpec,
                        max_regular_workspace_detail)

GENE_BITS = 16
GENE_MAX = (1 << GENE_BITS) - 1
ARCH_BITS = 2
N_VARS = 5
N_BITS = ARCH_BITS + N_VARS * GENE_BITS   # 82-bit DNA string
_KEY_PAD = -N_BITS % 8                    # zero bits ending a packed key

#: Reference point for the hypervolume history (mass cap, radius floor).
HV_REF_MASS = 5000.0
HV_REF_RADIUS = 0.0

#: The operator roulette, drawn once per offspring slot, and the per-bit
#: flip probability of the bit mutation; fixed, as in the published setup.
P_DIRECTIONAL_CROSSOVER = 0.5
P_SELECTION = 0.05                       # parent cloning
P_MUTATION = 0.1
P_ONE_POINT_CROSSOVER = 1.0 - (P_DIRECTIONAL_CROSSOVER + P_SELECTION
                               + P_MUTATION)
DNA_MUTATION_RATIO = 0.05
_OPERATOR_CUMSUM = np.cumsum(np.array([P_DIRECTIONAL_CROSSOVER, P_SELECTION,
                                       P_MUTATION, P_ONE_POINT_CROSSOVER]))


@dataclass(frozen=True)
class MogaConfig:
    """Run size and seed; the operators are the fixed table above."""

    population: int = 30
    generations: int = 200
    seed: int = 0

    def __post_init__(self):
        check_counts(self, (("population", 2), ("generations", 1), ("seed", 0)))


# ---------------------------------------------------------------------------
# Genome codec

def _from_gray(g: int) -> int:
    shift = 1
    while shift < GENE_BITS:
        g ^= g >> shift
        shift <<= 1
    return g


def encode(design: DesignVector, bounds: Bounds = DEFAULT_BOUNDS) -> np.ndarray:
    """Design -> 82-bit genome: the bits, MSB first, of one integer that
    holds the 2-bit architecture code d - 1, then each variable's 16-bit
    lattice index v Gray-coded as v ^ v >> 1; _decode_key reads it back.
    A value outside the box takes the nearest end's index; a NaN has none
    and raises InvalidValue."""
    values = design.as_tuple()[1:]
    for name, v in zip(SHORT_NAMES, values):
        if math.isnan(v):
            raise InvalidValue(name, "a number", v)
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    x = np.array(values)
    frac = np.where(hi > lo, (x - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    idx = np.clip(np.rint(frac * GENE_MAX), 0, GENE_MAX).astype(np.int64)
    bits = int(design.architecture) - 1
    for v in idx.tolist():
        bits = bits << GENE_BITS | (v ^ v >> 1) & GENE_MAX
    return _unpack((bits << _KEY_PAD).to_bytes((N_BITS + _KEY_PAD) // 8, "big"))


def decode(genome: np.ndarray, bounds: Bounds = DEFAULT_BOUNDS) -> DesignVector:
    """Genome -> design on the quantization lattice."""
    return _decode_key(genome_key(genome), bounds)


def genome_key(genome: np.ndarray) -> bytes:
    return np.packbits(genome).tobytes()


def _decode_key(key: bytes, bounds: Bounds) -> DesignVector:
    """decode of the genome packed in key, read as one Python integer."""
    bits = int.from_bytes(key, "big") >> _KEY_PAD
    idx = np.array([_from_gray(bits >> (i * GENE_BITS) & GENE_MAX)
                    for i in range(N_VARS - 1, -1, -1)], dtype=np.int64)
    arch = Architecture((bits >> (N_VARS * GENE_BITS)) % 3 + 1)
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    x = lo + idx / GENE_MAX * (hi - lo)
    return DesignVector(arch, *x)


# ---------------------------------------------------------------------------
# Design of experiments

#: Joe-Kuo (2008) Sobol direction numbers of the first N_VARS dimensions:
#: primitive polynomial (leading and trailing terms included) and initial
#: direction numbers m_1..m_s; dimension 0 is the van der Corput sequence.
SOBOL_POLY = (1, 3, 7, 11, 13)
SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1))
SOBOL_BITS = 30


def sobol_unit(m: int, seed: int) -> np.ndarray:
    """The first 2**m points of the N_VARS-d Sobol sequence in [0, 1),
    scrambled by random lower-triangular bit matrices and a random digital
    shift (LMS+shift) drawn from numpy's default_rng(seed).

    Bit for bit what scipy.stats.qmc.Sobol(d=N_VARS, scramble=True,
    seed=seed).random_base2(m) draws: the same direction numbers, random
    bits in the same order, and the Gray-code point order.
    """
    v = np.ones((N_VARS, SOBOL_BITS), dtype=np.int64)
    for k in range(1, N_VARS):
        poly, init = SOBOL_POLY[k], SOBOL_VINIT[k]
        s = len(init)
        v[k, :s] = init
        for j in range(s, SOBOL_BITS):
            new = v[k, j - s]
            for i in range(1, s + 1):
                if poly >> (s - i) & 1:
                    new ^= v[k, j - i] << i
            v[k, j] = new
    msb = 1 << np.arange(SOBOL_BITS - 1, -1, -1)    # bit weights, MSB first
    v *= msb
    rng = np.random.default_rng(seed)
    lsb = msb[::-1]
    shift = rng.integers(0, 2, v.shape, dtype=np.uint32) @ lsb
    ltm = np.tril(rng.integers(0, 2, (*v.shape, SOBOL_BITS), dtype=np.uint32)
                  ) | np.eye(SOBOL_BITS, dtype=np.uint32)
    # the scramble is a GF(2) matrix product: row p of ltm times the bits of
    # a direction number gives bit p (MSB first) of the scrambled one
    v_bits = (v[:, None, :] & msb[:, None]) > 0
    v = ((ltm.astype(np.int64) @ v_bits) % 2 * msb[:, None]).sum(axis=1)
    i = np.arange(1 << m)
    gray_bits = (i ^ i >> 1)[:, None, None] >> np.arange(m) & 1
    points = np.bitwise_xor.reduce(gray_bits * v[:, :m], axis=2) ^ shift
    return points * 2.0 ** -SOBOL_BITS


def sobol_doe(n: int, bounds: Bounds = DEFAULT_BOUNDS, seed: int = 0
              ) -> list[np.ndarray]:
    """Initial population: the first n scrambled-Sobol samples of the
    continuous box, with the architecture gene stratified round-robin
    over {1, 2, 3}."""
    unit = sobol_unit(max(1, math.ceil(math.log2(n))), seed)[:n]
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    scaled = lo + unit * (hi - lo)
    genomes = []
    for i in range(n):
        arch = Architecture(i % 3 + 1)
        genomes.append(encode(DesignVector(arch, *scaled[i]), bounds))
    return genomes


# ---------------------------------------------------------------------------
# Evaluation

@dataclass(frozen=True, eq=False)
class Evaluation:
    """One evaluated design: objectives plus the limiting-pose evidence,
    which its verdict is read off."""

    design: DesignVector
    mass: float                # [kg]
    r_w: float                 # [m], 0 for infeasible designs
    report: ConstraintReport | None   # limiting pose's; None when invalid
    characteristic_length: float  # [m], nan when home-unreachable
    key: bytes                 # packed genome, identity on the lattice

    @property
    def feasible(self) -> bool:
        return self.r_w > 0.0

    @cached_property
    def violations(self) -> int:
        """Failed constraint flags at the limiting pose, 0 when feasible
        and 9 when invalid: the tournament steers infeasible designs by it."""
        if self.feasible:
            return 0
        r = self.report
        return 9 if r is None else sum(not flag for flag in (
            r.g1_geometry, r.g2_stroke, r.g3_dexterity, r.g4_kxy, r.g5_kz,
            r.g6_kphiz, r.ik_reachable))


def evaluate_genome(genome: np.ndarray, bounds: Bounds = DEFAULT_BOUNDS,
                    grid: GridSpec = DEFAULT_GRID,
                    ctx: EvalContext = DEFAULT_CONTEXT,
                    tol: float = BISECTION_TOL_DEFAULT,
                    center: tuple[float, float, float] = CENTER_DEFAULT,
                    delta_phi: float = DELTA_PHI_DEFAULT) -> Evaluation:
    """Decode and score one genome over the workspace cylinder at center
    with rotation band delta_phi; every failure folds into infeasibility."""
    key = genome_key(genome)
    design = _decode_key(key, bounds)
    m = mass(design, ctx.material)
    try:
        validate(design, bounds)
    except PpmError:
        return Evaluation(design, m, 0.0, None, math.nan, key)
    res = max_regular_workspace_detail(design, grid, ctx, tol, center,
                                       delta_phi)
    return Evaluation(design, m, float(res.radius), res.limiting_report,
                      float(res.characteristic_length), key)


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
    """Non-dominated feasible subset, sorted by radius ascending.

    The stable sort visits mass ascending, radius descending on ties, so
    among equal objective pairs the first occurrence wins the sweep: a
    genome scored twice, or two keys that decode to one design, is kept
    once, and the front is strictly co-monotone in (mass, r_w).
    """
    feasible = [e for e in points if e.feasible]
    masses = np.array([e.mass for e in feasible])
    radii = np.array([e.r_w for e in feasible])
    keep: list[Evaluation] = []
    best = -math.inf
    for idx in np.lexsort((-radii, masses)):
        if radii[idx] > best:
            keep.append(feasible[idx])
            best = radii[idx]
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
    masses = np.array([e.mass for e in pool])
    radii = np.array([e.r_w for e in pool])
    remaining = np.flatnonzero([e.feasible for e in pool])
    level = 0
    while remaining.size:
        m, r = masses[remaining], radii[remaining]
        # dominated[k]: some member j of this level dominates member k
        dominated = ((m[:, None] <= m) & (r[:, None] >= r)
                     & ((m[:, None] < m) | (r[:, None] > r))).any(axis=0)
        front = remaining[~dominated]
        rank[front] = level
        crowd[front] = _crowding(m[~dominated], r[~dominated])
        remaining = remaining[dominated]
        level += 1
    return rank, crowd


def _crowding(masses: np.ndarray, radii: np.ndarray) -> np.ndarray:
    n = masses.size
    if n <= 2:
        return np.full(n, math.inf)
    dist = np.zeros(n)
    for v in (masses, radii):
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

    def parent(self) -> np.ndarray:
        """The genome of a fresh tournament winner."""
        return _unpack(self.pool[self.pick()].key)


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
    s1 = 1.0 if tour._better(i0, i1) == i0 else -1.0
    s2 = 1.0 if tour._better(i0, i2) == i0 else -1.0
    t1, t2 = rng.random(2)
    child = x0 + 0.5 * t1 * s1 * (x0 - x1) + 0.5 * t2 * s2 * (x0 - x2)
    child = np.clip(child, bounds.lower, bounds.upper)
    return encode(DesignVector(tour.pool[i0].design.architecture, *child), bounds)


def _one_point_crossover(a: np.ndarray, b: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    cut = int(rng.integers(1, N_BITS))
    return np.concatenate([a[:cut], b[cut:]])


def _bit_mutation(genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    flips = rng.random(N_BITS) < DNA_MUTATION_RATIO
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
    # evaluate_genome is looked up at call time, so a wrapper installed
    # on the module (timing, tracing) sees every genome
    return evaluate_genome(_unpack(key), *search)


def _offspring(evals: list[Evaluation], archive: ParetoArchive, n: int,
               bounds: Bounds, rng: np.random.Generator) -> list[np.ndarray]:
    """n children of the last generation plus the archive, one operator
    drawn by roulette per slot."""
    current = {e.key for e in evals}
    tour = _Tournament(evals + [e for e in archive.entries
                                if e.key not in current], rng)
    children = []
    for _ in range(n):
        draw = rng.random() * _OPERATOR_CUMSUM[-1]
        op = int(np.searchsorted(_OPERATOR_CUMSUM, draw, side="right"))
        if op == 0:
            child = _directional_crossover(tour, bounds, rng)
        elif op == 1:
            child = tour.parent()
        elif op == 2:
            child = _bit_mutation(tour.parent(), rng)
        else:
            child = _one_point_crossover(tour.parent(), tour.parent(), rng)
        children.append(child)
    return children


def evolve(cfg: MogaConfig, bounds: Bounds = DEFAULT_BOUNDS,
           grid: GridSpec = DEFAULT_GRID, ctx: EvalContext = DEFAULT_CONTEXT,
           tol: float = BISECTION_TOL_DEFAULT, threads: int = 1,
           progress=None, *,
           center: tuple[float, float, float] = CENTER_DEFAULT,
           delta_phi: float = DELTA_PHI_DEFAULT) -> MogaResult:
    """Run the full optimization: the Sobol DOE is generation 0, offspring
    of the last generation and the archive fill every later one.

    Every genome is scored over the workspace cylinder at center with
    rotation band delta_phi, each distinct genome once, on a process pool
    of threads workers (0 = all cores) when more than one.  Total budget
    is exactly population x generations scored slots.  Identical inputs
    reproduce identical results bit-for-bit, with any thread count.
    progress, when given, is called with each generation's stats.
    """
    check_counts(SimpleNamespace(threads=threads), (("threads", 0),))
    n_workers = (os.cpu_count() or 1) if threads == 0 else threads
    search = (bounds, grid, ctx, tol, center, delta_phi)
    rng = np.random.default_rng(cfg.seed)
    cache: dict[bytes, Evaluation] = {}
    evals: list[Evaluation] = []
    all_evals: list[Evaluation] = []
    archive = ParetoArchive()
    history: list[GenerationStats] = []
    if n_workers > 1:   # only here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1
          else contextlib.nullcontext()) as workers:
        for gen in range(cfg.generations):
            genomes = (sobol_doe(cfg.population, bounds, cfg.seed) if gen == 0
                       else _offspring(evals, archive, cfg.population, bounds,
                                       rng))
            keys = [genome_key(g) for g in genomes]
            fresh = [k for k in dict.fromkeys(keys) if k not in cache]
            run = workers.map if workers is not None and len(fresh) > 1 else map
            cache.update(zip(fresh, run(_eval_worker, fresh, repeat(search))))
            evals = [cache[k] for k in keys]
            all_evals.extend(evals)
            archive = pareto_filter(list(archive.entries) + evals)
            history.append(GenerationStats(gen, hypervolume(archive),
                                           sum(e.feasible for e in evals)))
            if progress is not None:
                progress(history[-1])
    return MogaResult(archive=archive, history=tuple(history),
                      evaluations=tuple(all_evals))


def _unpack(key: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(key, dtype=np.uint8))[:N_BITS].copy()
