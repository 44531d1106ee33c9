"""Genetic algorithm operators and end-to-end runs.

Operator tests replay the solver's random stream on a cloned generator
and recompute the expected output with plain numpy calls, so they pin
both the arithmetic and the draw order.
"""

import numpy as np
import pytest

from helpers import small_problem, small_system_params
from uavbsc import ga
from uavbsc.common import initial_population, masked_gaussian_offsets
from uavbsc.ga import GaConfig


def small_cfg(**overrides):
    base = dict(population_size=20, generations=30, seed=5)
    base.update(overrides)
    return GaConfig(**base)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("population_size", 1),
    ("generations", 0),
    ("crossover_rate", -0.1),
    ("crossover_rate", 1.1),
    ("mutation_rate", 2.0),
    ("mutation_spread", 0.0),
    ("elite_fraction", 1.5),
    ("stall_limit", 0),
    ("init_std", -0.01),
    ("max_evaluations", 0),
])
def test_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError) as err:
        small_cfg(**{field: value})
    assert field in str(err.value)


def test_config_collects_all_problems_in_one_error():
    with pytest.raises(ValueError) as err:
        small_cfg(population_size=0, generations=0, mutation_spread=-1.0)
    msg = str(err.value)
    for field in ("population_size", "generations", "mutation_spread"):
        assert field in msg


# ----------------------------------------------------------------------
# Elites and selection
# ----------------------------------------------------------------------

def test_elite_count_floor_and_caps():
    assert ga.elite_count(small_cfg(elite_fraction=0.05), 50) == 2
    assert ga.elite_count(small_cfg(elite_fraction=0.05), 10) == 1  # floor 1
    assert ga.elite_count(small_cfg(elite_fraction=1.0), 8) == 8    # cap at size
    assert ga.elite_count(small_cfg(elite_fraction=0.33), 10) == 3


def test_selection_weights_anchor_on_worst():
    w = ga.selection_weights(np.array([-5.0, -1.0, 3.0]))
    floor = 1.0e-9 * 3.0
    assert w[0] == pytest.approx(8.0 + floor, rel=1e-12)
    assert w[1] == pytest.approx(4.0 + floor, rel=1e-12)
    assert w[2] == pytest.approx(floor, rel=1e-12)
    assert np.all(w > 0.0)
    # Lower (better) fitness always gets more weight.
    assert w[0] > w[1] > w[2]


def test_roulette_rejects_bad_weight_vectors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ga.roulette(np.array([1.0, -0.5]), 3, rng)
    with pytest.raises(ValueError):
        ga.roulette(np.array([]), 3, rng)
    with pytest.raises(ValueError):
        ga.roulette(np.ones((2, 2)), 3, rng)


def test_roulette_frequencies_match_weights():
    weights = np.array([0.5, 0.3, 0.15, 0.05])
    picks = ga.roulette(weights, 100_000, np.random.default_rng(11))
    freq = np.bincount(picks, minlength=4) / picks.size
    assert np.all(np.abs(freq - weights) < 0.01)


def test_roulette_uniform_fallback_on_degenerate_weights():
    picks = ga.roulette(np.zeros(3), 90_000, np.random.default_rng(12))
    freq = np.bincount(picks, minlength=3) / picks.size
    assert np.all(np.abs(freq - 1.0 / 3.0) < 0.01)
    # A non-finite total also falls back instead of crashing.
    picks = ga.roulette(np.array([np.inf, 1.0]), 10, np.random.default_rng(13))
    assert set(np.unique(picks)) <= {0, 1}


def test_select_puts_elites_first():
    rng = np.random.default_rng(3)
    genomes = rng.uniform(size=(10, 4))
    fitness = rng.normal(size=10)
    cfg = small_cfg(population_size=10, elite_fraction=0.3)
    pool = ga.select(genomes, fitness, cfg, np.random.default_rng(4))
    order = np.argsort(fitness, kind="stable")
    assert np.array_equal(pool[:3], genomes[order[:3]])
    assert pool.shape == genomes.shape
    # Every roulette row is one of the originals.
    for row in pool[3:]:
        assert any(np.array_equal(row, g) for g in genomes)


def test_select_with_full_elitism_is_a_sort_and_draws_nothing():
    rng = np.random.default_rng(5)
    genomes = rng.uniform(size=(6, 3))
    fitness = rng.normal(size=6)
    cfg = small_cfg(population_size=6, elite_fraction=1.0)
    r1, r2 = np.random.default_rng(6), np.random.default_rng(6)
    pool = ga.select(genomes, fitness, cfg, r1)
    assert np.array_equal(pool, genomes[np.argsort(fitness, kind="stable")])
    assert r1.uniform() == r2.uniform()  # rng untouched


def test_select_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        ga.select(np.zeros((4, 2)), np.zeros(5), small_cfg(), np.random.default_rng(0))


# ----------------------------------------------------------------------
# Crossover
# ----------------------------------------------------------------------

def test_crossover_rate_zero_copies_parents():
    rng = np.random.default_rng(7)
    a, b = rng.uniform(size=8), rng.uniform(size=8)
    ca, cb = ga.crossover(a, b, small_cfg(crossover_rate=0.0),
                          np.random.default_rng(8))
    assert np.array_equal(ca, a)
    assert np.array_equal(cb, b)


def test_crossover_conserves_gene_sums():
    rng = np.random.default_rng(9)
    cfg = small_cfg(crossover_rate=1.0)
    for trial in range(200):
        a, b = rng.uniform(size=12), rng.uniform(size=12)
        ca, cb = ga.crossover(a, b, cfg, rng)
        assert np.all(np.abs((ca + cb) - (a + b)) <= 1e-15)


def test_crossover_children_stay_between_parents():
    rng = np.random.default_rng(10)
    cfg = small_cfg(crossover_rate=0.7)
    for trial in range(50):
        a, b = rng.uniform(size=10), rng.uniform(size=10)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for child in ga.crossover(a, b, cfg, rng):
            assert np.all(child >= lo - 1e-15)
            assert np.all(child <= hi + 1e-15)


def test_crossover_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ga.crossover(np.zeros(3), np.zeros(4), small_cfg(), np.random.default_rng(0))


def test_crossover_draw_order_is_mask_then_blend():
    # One pair of genomes, then (pairs, dim) stacks, which must draw each
    # pair's mask then its blend in turn.
    cfg = small_cfg(crossover_rate=0.6)
    line = np.linspace(0.0, 1.0, 9)
    for pairs in (None, 1, 4):
        a, b = line, line[::-1]
        if pairs is not None:
            a = a + np.arange(pairs)[:, None] * 0.01
            b = b * np.linspace(0.5, 1.0, pairs)[:, None]
        solver_rng = np.random.default_rng(21)
        replay = np.random.default_rng(21)
        ca, cb = ga.crossover(a, b, cfg, solver_rng)
        assert ca.shape == cb.shape == a.shape
        for row in np.ndindex(a.shape[:-1]):
            mask = replay.uniform(size=a.shape[-1]) < cfg.crossover_rate
            blend = replay.uniform(size=a.shape[-1])
            ra, rb = a[row], b[row]
            assert np.array_equal(
                ca[row], np.where(mask, blend * ra + (1 - blend) * rb, ra))
            assert np.array_equal(
                cb[row], np.where(mask, blend * rb + (1 - blend) * ra, rb))
        # Both generators are now at the same point in the stream.
        assert solver_rng.uniform() == replay.uniform()


def crossover_pair_loop(parents_a, parents_b, cfg, rng):
    """Reference: cross each pair in turn with the one-pair operator."""
    out_a = np.empty_like(parents_a)
    out_b = np.empty_like(parents_b)
    for j in range(parents_a.shape[0]):
        out_a[j], out_b[j] = ga.crossover(parents_a[j], parents_b[j], cfg, rng)
    return out_a, out_b


@pytest.mark.parametrize("rate", [0.0, 0.8, 1.0])
@pytest.mark.parametrize("pairs,dim", [(1, 5), (25, 29), (7, 1)])
def test_stacked_crossover_equals_pair_loop_bitwise(rate, pairs, dim):
    cfg = small_cfg(crossover_rate=rate)
    rng = np.random.default_rng(dim * 100 + pairs)
    a, b = rng.uniform(size=(2, pairs, dim))
    stack_rng = np.random.default_rng(77)
    loop_rng = np.random.default_rng(77)
    got = ga.crossover(a, b, cfg, stack_rng)
    want = crossover_pair_loop(a, b, cfg, loop_rng)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert stack_rng.uniform() == loop_rng.uniform()


# ----------------------------------------------------------------------
# Mutation
# ----------------------------------------------------------------------

def test_mutate_replays_masked_gaussian_offsets():
    cfg = small_cfg(mutation_rate=0.3, mutation_spread=8.0)
    genes = np.random.default_rng(30).uniform(size=(5, 7))
    solver_rng = np.random.default_rng(31)
    replay = np.random.default_rng(31)
    out = ga.mutate(genes, cfg, solver_rng)
    mask = replay.uniform(size=genes.shape) < cfg.mutation_rate
    offsets = replay.normal(0.0, 1.0 / cfg.mutation_spread, size=genes.shape)
    expected = genes + np.where(mask, offsets, 0.0)
    assert np.array_equal(out, expected)
    assert solver_rng.uniform() == replay.uniform()


def test_mutate_consumes_fixed_stream_regardless_of_rate():
    genes = np.full((4, 6), 0.5)
    r0 = np.random.default_rng(32)
    r1 = np.random.default_rng(32)
    ga.mutate(genes, small_cfg(mutation_rate=0.0), r0)
    ga.mutate(genes, small_cfg(mutation_rate=1.0), r1)
    assert r0.uniform() == r1.uniform()


def test_masked_offsets_variance_tracks_spread():
    rng = np.random.default_rng(33)
    for spread in (10.0, 4.0):
        offs = masked_gaussian_offsets(rng, (100_000,), 1.0, 1.0 / spread)
        assert np.var(offs) == pytest.approx(1.0 / spread**2, rel=0.05)


def test_adjusted_mutation_lies_in_the_box():
    problem = small_problem()
    dim = problem.genome_size
    genes = np.concatenate([np.zeros((25, dim)), np.ones((25, dim))])
    out = ga.mutate(genes, small_cfg(mutation_rate=1.0, mutation_spread=1.0),
                    np.random.default_rng(34))
    assert np.any(out < 0.0) and np.any(out > 1.0)  # mutate leaves it to adjust
    adjusted = problem.adjust(out)
    assert np.all(adjusted >= 0.0) and np.all(adjusted <= 1.0)
    assert np.array_equal(adjusted, problem.adjust(np.clip(out, 0.0, 1.0)))


# ----------------------------------------------------------------------
# Full runs
# ----------------------------------------------------------------------

def test_init_population_with_zero_std_repeats_the_mean():
    problem = small_problem()
    pop = initial_population(problem, 6, 0.0, np.random.default_rng(0))
    assert np.array_equal(pop, np.tile(problem.heuristic_mean(), (6, 1)))


def test_run_is_deterministic_per_seed():
    problem = small_problem()
    cfg = small_cfg(population_size=12, generations=15, seed=101)
    r1 = ga.run(cfg, problem)
    r2 = ga.run(cfg, problem)
    assert np.array_equal(r1.best.genome, r2.best.genome)
    assert r1.best.fitness == r2.best.fitness
    assert [t.to_dict() for t in r1.trace] == [t.to_dict() for t in r2.trace]
    r3 = ga.run(small_cfg(population_size=12, generations=15, seed=102), problem)
    assert not np.array_equal(r1.best.genome, r3.best.genome)


def test_run_best_trace_is_monotone_and_counts_evaluations():
    problem = small_problem()
    cfg = small_cfg(population_size=10, generations=20, seed=2)
    report = ga.run(cfg, problem)
    best = [rec.best_fitness for rec in report.trace]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert report.trace[-1].evaluations == report.evaluations
    assert report.evaluations == 10 * (len(report.trace) + 1)
    assert report.solver == "ga"
    assert report.config["population_size"] == 10


def test_run_respects_evaluation_budget():
    problem = small_problem()
    cfg = small_cfg(population_size=50, generations=400, seed=3,
                    max_evaluations=237)
    report = ga.run(cfg, problem)
    assert report.evaluations <= 237
    assert report.evaluations == 200  # 50 init + 3 full generations
    assert len(report.trace) == 3
    assert report.budget == 237


def test_run_rejects_budget_below_one_population():
    problem = small_problem()
    with pytest.raises(ValueError):
        ga.run(small_cfg(population_size=50, max_evaluations=49), problem)


def test_run_stops_after_stall_limit_without_improvement():
    # A demanded rate no mission can meet makes every genome infeasible;
    # in constant-penalty mode every fitness is -1, so the best value can
    # never improve and the stall counter must stop the run.
    problem = small_problem(small_system_params(demanded_rate_bps=1e15),
                            penalty_mode="paper")
    cfg = small_cfg(population_size=8, generations=500, stall_limit=12, seed=4)
    report = ga.run(cfg, problem)
    assert len(report.trace) == 12
    assert report.last_improvement_generation == 0
    assert report.best.fitness == -1.0


def test_run_improves_on_random_start():
    # Generous charging power and slack mission time keep a broad
    # feasible region, so a wide random start must both improve and land
    # feasible.  (The default compact problem leaves zero speed slack:
    # its start-goal span equals the sum of both maximum hops.)
    problem = small_problem(
        small_system_params(wpt_power_w=10_000.0, mission_time_s=16.0))
    cfg = small_cfg(population_size=15, generations=40, seed=6, init_std=0.5)
    report = ga.run(cfg, problem)
    assert report.trace[-1].best_fitness <= report.trace[0].best_fitness
    assert report.feasible
    assert report.best_objective_bps > 0.0
