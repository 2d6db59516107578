import collections
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DESIGN_II, WIDE_BOUNDS
from ppmopt import moga
from ppmopt.errors import InvalidValue
from ppmopt.model import (Architecture, Bounds, DEFAULT_BOUNDS, DesignVector,
                          SHORT_NAMES, mass)
from ppmopt.moga import (ARCH_BITS, GENE_MAX, Evaluation, MogaConfig, N_BITS,
                         ParetoArchive, decode, dominates, encode,
                         evaluate_genome, evolve, hypervolume, pareto_filter,
                         per_architecture_fronts, sobol_doe)
from ppmopt.performance import DEFAULT_CONTEXT
from ppmopt.workspace import (BISECTION_TOL_DEFAULT, DEFAULT_GRID,
                              max_regular_workspace_detail)

TINY = MogaConfig(population=12, generations=5, seed=3)
# r_j in [0, 1e-90]: every valid section's r**4 underflows to 0
NEEDLE_BOUNDS = Bounds(lower=DEFAULT_BOUNDS.lower,
                       upper=DEFAULT_BOUNDS.upper[:3] + (1e-90, 0.1))


def _fake_eval(mass, r_w, tag=0) -> Evaluation:
    design = DesignVector(Architecture.PRR, 1.0, 1.0, 1.0, 0.05, 0.05)
    key = mass.hex().encode() + r_w.hex().encode() + bytes([tag])
    return Evaluation(design, mass, r_w, None, 1.0, key)


def _decode_bits(genome, bounds):
    """The bit-array decode that moga.decode replaced: its reference."""
    def to_int(bits, width):
        return (bits.astype(np.int64) << np.arange(width - 1, -1, -1)).sum(axis=-1)

    arch = Architecture(int(to_int(genome[:ARCH_BITS], ARCH_BITS)) % 3 + 1)
    v = to_int(genome[ARCH_BITS:].reshape(5, 16), 16)
    shift = 1
    while shift < 16:                 # Gray -> binary
        v = v ^ (v >> shift)
        shift <<= 1
    lo, hi = np.asarray(bounds.lower), np.asarray(bounds.upper)
    return DesignVector(arch, *(lo + v / GENE_MAX * (hi - lo)))


def _encode_bits(design, bounds):
    """encode as numpy bit arrays, MSB first: the reference for the one
    integer that encode builds."""
    lo, hi = np.asarray(bounds.lower), np.asarray(bounds.upper)
    x = np.array(design.as_tuple()[1:])
    with np.errstate(invalid="ignore"):
        frac = np.where(hi > lo, (x - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
    idx = np.clip(np.rint(frac * GENE_MAX), 0, GENE_MAX).astype(np.int64)

    def bits(v, width):
        return ((v[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)

    return np.concatenate([bits(np.array(int(design.architecture) - 1), ARCH_BITS),
                           bits(idx ^ (idx >> 1), 16).reshape(-1)])


class TestGenomeCodec:
    def test_encode_matches_bit_array_reference(self):
        rng = np.random.default_rng(29)
        flat = Bounds(lower=(1.0, 0.5, 0.7, 0.05, 0.0),
                      upper=(1.0, 4.0, 0.7, 0.1, 0.0))   # lo == hi on three
        for bounds in (DEFAULT_BOUNDS, WIDE_BOUNDS, flat):
            lo, hi = np.asarray(bounds.lower), np.asarray(bounds.upper)
            span = np.where(hi > lo, hi - lo, 1.0)
            for i in range(3400):
                # in the box, out of it on either side, on its corners, NaN
                x = lo + (rng.integers(0, 2, 5) * (hi - lo) if i % 5 == 0
                          else rng.uniform(-0.25, 1.25, 5) * span)
                if i % 11 == 0:
                    x[i % 5] = np.nan
                d = DesignVector(Architecture(i % 3 + 1), *x)
                if i % 11 == 0:       # a NaN has no lattice index
                    with pytest.raises(InvalidValue) as err:
                        encode(d, bounds)
                    assert err.value.field == SHORT_NAMES[i % 5]
                    continue
                got, ref = encode(d, bounds), _encode_bits(d, bounds)
                assert got.dtype == ref.dtype and got.shape == (N_BITS,)
                assert np.array_equal(got, ref), (d, bounds)
        with pytest.raises(InvalidValue, match="R must be a number"):
            encode(DesignVector(Architecture.PRR, np.nan, 1.0, 1.0, 0.05, 0.05))

    def test_round_trip_within_quantization(self):
        rng = np.random.default_rng(3)
        step = (np.array(DEFAULT_BOUNDS.upper) - DEFAULT_BOUNDS.lower) / GENE_MAX
        for _ in range(200):
            arch = Architecture(int(rng.integers(1, 4)))
            x = [rng.uniform(lo, hi) for lo, hi in
                 zip(DEFAULT_BOUNDS.lower, DEFAULT_BOUNDS.upper)]
            d = DesignVector(arch, *x)
            back = decode(encode(d), DEFAULT_BOUNDS)
            assert back.architecture is arch
            err = np.abs(np.array(back.as_tuple()[1:]) - np.array(x))
            assert (err <= step + 1e-15).all()

    def test_lattice_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bits = (rng.random(N_BITS) < 0.5).astype(np.uint8)
            d = decode(bits, DEFAULT_BOUNDS)
            again = decode(encode(d, DEFAULT_BOUNDS), DEFAULT_BOUNDS)
            assert again == d

    def test_decode_matches_bit_array_reference(self):
        # EVOLVE_DIGEST hashes repr(mass): the fields must stay np.float64
        rng = np.random.default_rng(17)
        genomes = [(rng.random(N_BITS) < p).astype(np.uint8)
                   for p in rng.uniform(0.0, 1.0, 2000)]
        genomes += [np.full(N_BITS, bit, np.uint8) for bit in (0, 1)]
        genomes += [np.concatenate([[1, 1], g[ARCH_BITS:]]) for g in genomes[:50]]
        for genome in genomes:
            for bounds in (DEFAULT_BOUNDS, WIDE_BOUNDS):
                got, ref = decode(genome, bounds), _decode_bits(genome, bounds)
                assert got == ref
                assert repr(got.as_tuple()) == repr(ref.as_tuple())
                assert repr(mass(got)) == repr(mass(ref))

    def test_genome_length(self):
        assert N_BITS == 2 + 5 * 16
        assert encode(DESIGN_II, WIDE_BOUNDS).shape == (N_BITS,)

    def test_quantization_step_size(self):
        step = (np.array(DEFAULT_BOUNDS.upper) - DEFAULT_BOUNDS.lower) / GENE_MAX
        assert step[0] == pytest.approx(3.5 / 65535)
        assert (step <= 5.4e-5).all()


class TestDoe:
    def test_within_bounds(self):
        for genome in sobol_doe(30, seed=1):
            d = decode(genome)
            for v, lo, hi in zip(d.as_tuple()[1:], DEFAULT_BOUNDS.lower,
                                 DEFAULT_BOUNDS.upper):
                assert lo - 1e-12 <= v <= hi + 1e-12

    def test_architecture_stratification(self):
        archs = [int(decode(g).architecture) for g in
                 sobol_doe(30, seed=2)]
        assert archs.count(1) == archs.count(2) == archs.count(3) == 10

    def test_deterministic_per_seed(self):
        a = sobol_doe(16, DEFAULT_BOUNDS, seed=9)
        b = sobol_doe(16, DEFAULT_BOUNDS, seed=9)
        c = sobol_doe(16, DEFAULT_BOUNDS, seed=10)
        assert all((x == y).all() for x, y in zip(a, b))
        assert any((x != z).any() for x, z in zip(a, c))

    def test_unit_points_match_scipy_sobol(self):
        # scipy is the oracle only: the product draws the DOE with numpy
        from scipy.stats import qmc
        for seed in range(40):
            for m in range(1, 9):
                ref = qmc.Sobol(d=moga.N_VARS, scramble=True,
                                seed=seed).random_base2(m)
                got = moga.sobol_unit(m, seed)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (seed, m)

    @pytest.mark.parametrize("n", [2, 3, 16, 30, 31, 64])
    def test_genomes_match_scipy_built_doe(self, n):
        from scipy.stats import qmc
        lo = np.asarray(DEFAULT_BOUNDS.lower)
        hi = np.asarray(DEFAULT_BOUNDS.upper)
        for seed in range(8):
            unit = qmc.Sobol(d=moga.N_VARS, scramble=True, seed=seed
                             ).random_base2(max(1, math.ceil(math.log2(n))))
            ref = [encode(DesignVector(Architecture(i % 3 + 1),
                                       *(lo + unit[i] * (hi - lo))))
                   for i in range(n)]
            got = sobol_doe(n, seed=seed)
            assert len(got) == n
            assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]


class TestEvaluateGenome:
    def test_design_ii_mass_and_feasibility(self, ctx):
        ev = evaluate_genome(encode(DESIGN_II, WIDE_BOUNDS), WIDE_BOUNDS)
        assert ev.mass == pytest.approx(484.8, rel=0.02)
        assert ev.feasible and ev.r_w > 0.1
        assert not math.isnan(ev.characteristic_length)

    def test_degenerate_section_infeasible(self):
        corner = DesignVector(Architecture.PRR, 0.5, 0.5, 0.5, 0.0, 0.0)
        ev = evaluate_genome(encode(corner))
        assert not ev.feasible and ev.r_w == 0.0

    def test_negative_lengths_invalid(self):
        # a box reaching below zero: the mirrored RRR is invalid, not scored
        box = Bounds(lower=(-4.0, -4.0, -4.0, 0.0, 0.0),
                     upper=(4.0, 4.0, 4.0, 0.1, 0.1))
        mirrored = DesignVector(Architecture.RRR, -1.7529, -0.6408, 0.7271,
                                0.0788, 0.0291)
        ev = evaluate_genome(encode(mirrored, box), box)
        assert ev.violations == 9 and not ev.feasible and ev.r_w == 0.0

    def test_verdict_read_off_r_w_and_report(self, tiny_run):
        assert [f.name for f in dataclasses.fields(Evaluation)] == [
            "design", "mass", "r_w", "report", "characteristic_length", "key"]
        scored = [e for e in tiny_run.evaluations if e.report is not None]
        assert any(e.feasible for e in scored)
        assert any(not e.feasible for e in scored)
        for e in scored:
            flags = dataclasses.astuple(e.report)[:7]     # g1..g6, ik
            assert e.violations == (0 if e.feasible else flags.count(False))
            back = pickle.loads(pickle.dumps(e))         # as the pool returns it
            assert (back.feasible, back.violations) == (e.feasible, e.violations)
        assert _fake_eval(1.0, 0.0).violations == 9      # invalid: no report

    def test_deterministic(self):
        genome = encode(DesignVector(Architecture.PRR, 1.4, 0.6, 1.0, 0.03, 0.04),
                        WIDE_BOUNDS)
        a = evaluate_genome(genome, WIDE_BOUNDS)
        b = evaluate_genome(genome, WIDE_BOUNDS)
        assert (a.mass, a.r_w, a.feasible) == (b.mass, b.r_w, b.feasible)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, (1 << N_BITS) - 1))
    @example(0)
    @example((1 << N_BITS) - 1)
    def test_any_genome_scores_finite(self, bits):
        genome = np.array([(bits >> i) & 1 for i in range(N_BITS)],
                          dtype=np.uint8)
        for bounds in (DEFAULT_BOUNDS, NEEDLE_BOUNDS):
            ev = evaluate_genome(genome, bounds)
            assert math.isfinite(ev.mass) and math.isfinite(ev.r_w)
            assert ev.r_w >= 0.0 and (ev.violations == 0) == ev.feasible
        # r**4 of every leg section in NEEDLE_BOUNDS underflows to 0
        assert not ev.feasible

    @pytest.mark.parametrize("arch_code", range(4))
    def test_box_corner_genomes_score_finite(self, arch_code):
        # every corner of the default box (each gene 0 or GENE_MAX) under
        # each 2-bit architecture code: zero sections, the shortest and
        # longest links, the smallest and largest triangles
        lo, hi = DEFAULT_BOUNDS.lower, DEFAULT_BOUNDS.upper
        for corner in itertools.product(*zip(lo, hi)):
            genome = encode(DesignVector(Architecture.PRR, *corner))
            genome[:2] = (arch_code >> 1) & 1, arch_code & 1
            design = decode(genome)
            assert design.as_tuple()[1:] == corner
            assert design.architecture == Architecture(arch_code % 3 + 1)
            ev = evaluate_genome(genome)
            assert math.isfinite(ev.mass) and math.isfinite(ev.r_w)
            assert ev.r_w >= 0.0 and (ev.violations == 0) == ev.feasible


class TestParetoFilter:
    def test_documented_example(self):
        pts = [_fake_eval(1.0, 1.0, tag=0), _fake_eval(2.0, 2.0, tag=1),
               _fake_eval(2.0, 0.5, tag=2)]
        kept = pareto_filter(pts).entries
        assert {(e.mass, e.r_w) for e in kept} == {(1.0, 1.0), (2.0, 2.0)}

    def test_single_point(self):
        archive = pareto_filter([_fake_eval(5.0, 0.3)])
        assert len(archive) == 1

    def test_infeasible_dropped(self):
        archive = pareto_filter([_fake_eval(1.0, 0.0)])
        assert archive == pareto_filter([]) == ParetoArchive()

    def test_idempotent_and_matches_brute_force(self):
        rng = np.random.default_rng(31)
        mass, r_w = rng.uniform(0, 100, 1000), rng.uniform(0, 2, 1000)
        # a lattice-rounded copy whose 10 front points each recur ~33 times
        lattice = np.floor(mass / 10.0)
        for ms, ws in ((mass, r_w), (lattice, lattice + np.floor(1.5 * r_w))):
            pts = [_fake_eval(float(m), float(w), tag=i % 251)
                   for i, (m, w) in enumerate(zip(ms, ws))]
            archive = pareto_filter(pts)
            again = pareto_filter(list(archive.entries))
            assert [e.key for e in again.entries] == [e.key for e in archive.entries]
            # O(n^2) reference filter
            brute = set()
            for p in pts:
                if not any(dominates(q, p) for q in pts):
                    brute.add((p.mass, p.r_w))
            assert sorted(brute) == sorted((e.mass, e.r_w) for e in archive.entries)
            first = {}
            for p in pts:
                first.setdefault((p.mass, p.r_w), p)
            assert all(e is first[e.mass, e.r_w] for e in archive.entries)

    def test_front_sorted_and_co_monotone(self):
        rng = np.random.default_rng(37)
        pts = [_fake_eval(float(m), float(w), tag=i % 251)
               for i, (m, w) in enumerate(zip(rng.uniform(0, 100, 500),
                                              rng.uniform(0, 2, 500)))]
        entries = pareto_filter(pts).entries
        radii = [e.r_w for e in entries]
        masses = [e.mass for e in entries]
        assert all(a < b for a, b in zip(radii, radii[1:]))
        assert all(a < b for a, b in zip(masses, masses[1:]))

    def test_duplicate_genomes_collapse(self):
        a = _fake_eval(1.0, 1.0, tag=1)
        b = Evaluation(a.design, a.mass, a.r_w, None, 1.0, a.key)
        assert len(pareto_filter([a, b])) == 1
        # equal records: identity tells which one survives
        assert [id(e) for e in pareto_filter([a, b]).entries] == [id(a)]
        assert [id(e) for e in pareto_filter([b, a]).entries] == [id(b)]

    def test_duplicate_objectives_keep_the_first(self):
        # architecture codes 0 and 3 both decode to the PRR: two keys, one
        # design, so the same (mass, R_w)
        genome = encode(DESIGN_II, WIDE_BOUNDS)
        twin = genome.copy()
        twin[:ARCH_BITS] = 1
        first, second = (evaluate_genome(g, WIDE_BOUNDS) for g in (genome, twin))
        assert first.key != second.key and first.feasible and second.feasible
        assert (first.mass, first.r_w) == (second.mass, second.r_w)
        assert pareto_filter([first, second]).entries == (first,)
        assert pareto_filter([second, first]).entries == (second,)


class TestHypervolume:
    def test_rectangle(self):
        archive = pareto_filter([_fake_eval(1000.0, 1.0)])
        assert hypervolume(archive) == pytest.approx((5000 - 1000) * 1.0)

    def test_two_points(self):
        archive = pareto_filter([_fake_eval(1000.0, 1.0, tag=1),
                                 _fake_eval(2000.0, 1.5, tag=2)])
        assert hypervolume(archive) == pytest.approx(1000 * 1.0 + 3000 * 1.5)

    def test_beyond_reference_ignored(self):
        archive = pareto_filter([_fake_eval(6000.0, 2.0)])
        assert hypervolume(archive) == 0.0


@pytest.fixture(scope="module")
def tiny_run():
    return evolve(TINY)


class TestMogaConfig:
    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("population", 2.5), ("generations", True)])
    def test_value_evolve_cannot_run_rejected(self, field, value):
        # each once constructed and then failed, or ran a bool, in evolve
        with pytest.raises(InvalidValue, match=field) as exc:
            MogaConfig(**{"population": 30, "generations": 10, field: value})
        assert exc.value.field == field


class TestEvolve:
    def test_budget(self, tiny_run):
        assert len(tiny_run.evaluations) == TINY.population * TINY.generations

    def test_archive_non_dominated_and_feasible(self, tiny_run):
        entries = tiny_run.archive.entries
        assert all(e.feasible for e in entries)
        for p in entries:
            assert not any(dominates(q, p) for q in entries if q is not p)

    def test_hypervolume_monotone(self, tiny_run):
        hv = [h.hypervolume for h in tiny_run.history]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_deterministic_across_runs_and_threads(self, tiny_run):
        again = evolve(TINY)
        assert [e.key for e in again.archive.entries] == \
            [e.key for e in tiny_run.archive.entries]
        parallel = evolve(TINY, threads=2)
        assert [e.key for e in parallel.archive.entries] == \
            [e.key for e in tiny_run.archive.entries]
        assert [h.hypervolume for h in parallel.history] == \
            [h.hypervolume for h in tiny_run.history]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rotated_center_scores_configured_cylinder(self, tiny_run, threads):
        # every genome is scored over the cylinder the run was given,
        # serially and in the worker pool
        center, delta_phi = (0.0, 0.0, 0.3), math.radians(10.0)
        result = evolve(TINY, threads=threads, center=center,
                        delta_phi=delta_phi)
        assert len(result.archive) > 0
        for e in result.archive.entries:
            assert e.r_w == max_regular_workspace_detail(
                e.design, DEFAULT_GRID, DEFAULT_CONTEXT, BISECTION_TOL_DEFAULT,
                center, delta_phi).radius
        assert [e.r_w for e in result.evaluations] != \
            [e.r_w for e in tiny_run.evaluations]

    def test_seed_changes_outcome(self, tiny_run):
        other = evolve(dataclasses.replace(TINY, seed=4))
        assert [e.key for e in other.archive.entries] != \
            [e.key for e in tiny_run.archive.entries]

    def test_each_distinct_genome_scored_once(self, monkeypatch):
        # the dedup cache sits in front of the module-level evaluate_genome,
        # which the evaluation worker looks up on every call
        calls = collections.Counter()
        inner = moga.evaluate_genome

        def counting(genome, *search):
            calls[moga.genome_key(genome)] += 1
            return inner(genome, *search)

        monkeypatch.setattr(moga, "evaluate_genome", counting)
        result = evolve(MogaConfig(population=10, generations=5, seed=1))
        keys = {e.key for e in result.evaluations}
        assert (len(result.evaluations), len(keys)) == (50, 45)
        assert calls == collections.Counter(keys)

    def test_negative_threads_rejected(self):
        # the count rule of check_counts: an integer >= 0, not a bool
        for threads in (-3, 2.5, True):
            with pytest.raises(ValueError, match="threads") as err:
                evolve(MogaConfig(population=6, generations=2, seed=3),
                       threads=threads)
            assert type(err.value) is InvalidValue
            assert err.value.field == "threads"


class TestPerArchitectureFronts:
    def test_union_refilters_to_global_front(self, ):
        result = evolve(TINY)
        fronts = per_architecture_fronts(list(result.evaluations))
        union = [e for f in fronts.values() for e in f.entries]
        merged = pareto_filter(union)
        assert sorted((e.mass, e.r_w) for e in merged.entries) == \
            sorted((e.mass, e.r_w) for e in result.archive.entries)

    def test_empty_bucket(self):
        fronts = per_architecture_fronts([_fake_eval(1.0, 1.0)])
        assert len(fronts[Architecture.RRR]) == 0
