"""Property tests: the genome repair map, the genome codec, the one
best-so-far rule, the sign conventions of the constraint margins, the
stacked random draws and the JSON writer, each checked on inputs
Hypothesis draws.

Every test is derandomized, so a run of the suite draws the same cases.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (REFERENCE_CONFIG, TINY_CONFIG, encode, evaluate_blocks,
                     frozen_gene_indices, small_problem)
from oracles import ReferenceHolder, offer_reference
from uavbsc import ga
from uavbsc.common import STALL_TOL, Incumbent, draw
from uavbsc.config import ScenarioConfig
from uavbsc.encoding import _PASS_ROWS, LinkProblem, _slot_sum, normalize
from uavbsc.harness import write_json

PROBLEMS = {
    "tiny": ScenarioConfig.load(TINY_CONFIG).build_problem(),
    "reference": ScenarioConfig.load(REFERENCE_CONFIG).build_problem(),
    "full_3d": small_problem(fixed_altitude=False),
}

checked = settings(derandomize=True, deadline=None, database=None,
                   max_examples=60)


def raw_genes(problem):
    """Any finite genes, far outside [0, 1] included."""
    return arrays(np.float64, problem.genome_size,
                  elements=st.floats(-1e6, 1e6, allow_nan=False))


def any_genes(problem):
    """Any float64 genes, with NaN and infinities planted often."""
    return arrays(np.float64, problem.genome_size, elements=st.floats()
                  | st.sampled_from([np.nan, np.inf, -np.inf]))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_adjust_is_an_idempotent_repair(name):
    # adjust is the one gate for solver blocks: what it returns is a block
    # that evaluate_batch accepts, and a non-finite gene is refused.
    problem = PROBLEMS[name]
    frozen = frozen_gene_indices(problem)
    pinned = normalize(problem.params.altitude_m, *problem.params.bounds_m[2])

    @checked
    @given(st.one_of(raw_genes(problem), any_genes(problem)))
    def check(genes):
        if not np.isfinite(genes).all():
            with pytest.raises(ValueError, match="must be finite"):
                problem.adjust(genes)
            return
        once = problem.adjust(genes)
        problem.evaluate_batch(once[None])
        assert np.all((once >= 0.0) & (once <= 1.0))
        assert np.array_equal(problem.adjust(once), once)
        assert np.all(once[frozen] == pinned)
        free = np.setdiff1d(np.arange(problem.genome_size), frozen)
        inside = (genes[free] >= 0.0) & (genes[free] <= 1.0)
        assert np.array_equal(once[free][inside], genes[free][inside])

    check()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_encode_inverts_decode_on_adjusted_genomes(name):
    problem = PROBLEMS[name]

    @checked
    @given(raw_genes(problem))
    def check(genes):
        genome = problem.adjust(genes)
        traj, split = problem.decode(genome)
        assert np.array_equal(traj.waypoints[0], problem.start)
        assert np.array_equal(traj.waypoints[-1], problem.goal)
        back = encode(problem, traj, split)
        assert np.allclose(back, genome, rtol=0.0, atol=1e-12)
        assert np.array_equal(back[problem.split_offset:],
                              genome[problem.split_offset:])

    check()


# Few distinct levels, so that exact ties are common.
_LEVEL = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
# Fitness steps just inside, at and just past STALL_TOL from two levels.
_NEAR_LEVEL = st.builds(lambda level, steps: level - steps * STALL_TOL,
                        st.sampled_from([0.0, 1.0]),
                        st.sampled_from([0.0, 0.5, 1.5]))


@st.composite
def _seed_offers(pick, fitness=_NEAR_LEVEL):
    """A seed count, then offers of (distinct seeds, (rows, size) fitness
    and worst-violation blocks, generation or None)."""
    n_seeds = pick(st.integers(1, 4))
    offers = []
    for _ in range(pick(st.integers(1, 6))):
        seeds = pick(st.lists(st.integers(0, n_seeds - 1), min_size=1,
                              max_size=n_seeds, unique=True))
        size = pick(st.integers(1, 4))
        cells = pick(st.lists(st.tuples(fitness, _LEVEL),
                              min_size=len(seeds) * size,
                              max_size=len(seeds) * size))
        block = np.array(cells).reshape(len(seeds), size, 2)
        offers.append((seeds, block[..., 0], block[..., 1],
                       pick(st.none() | st.integers(0, 9))))
    return n_seeds, offers


@checked
@given(_seed_offers(fitness=_LEVEL))
def test_incumbent_ranks_by_fitness_alone_as_the_ga_does(case):
    # Each row's genome carries its worst violation, as a BatchEvaluation
    # carries it beside the fitness; it decides nothing.  An offer picks
    # the GA's top-ranked row, and an equal-fitness row never displaces
    # the holder.
    n_seeds, offers = case
    best, tag = Incumbent(n_seeds), 0
    for seeds, fitness, worst, generation in offers:
        rows = np.arange(len(seeds))
        tags = np.arange(tag, tag + fitness.size).reshape(fitness.shape)
        tag += fitness.size
        genomes = np.stack([tags, worst], axis=-1).astype(np.float64)
        picks = np.argsort(fitness, axis=1, kind="stable")[:, 0]
        fit = fitness[rows, picks]
        held, index = best.fitness[seeds], best.index[seeds]
        before = None if best.genome is None else best.genome[seeds]
        best.offer(np.array(seeds), genomes, fitness, generation)
        take = (index < 0) | (fit < held)
        assert best.index[seeds].tolist() == np.where(take, picks, index).tolist()
        assert best.fitness[seeds].tolist() == np.where(take, fit, held).tolist()
        want = genomes[rows, picks]
        if before is not None:
            want = np.where(take[:, None], want, before)
        assert best.genome[seeds].tolist() == want.tolist()


@checked
@given(_seed_offers())
def test_stacked_incumbent_offers_as_one_holder_per_seed(case):
    n_seeds, offers = case
    best, holders = Incumbent(n_seeds), [ReferenceHolder() for _ in range(n_seeds)]
    tag = 0
    for seeds, fitness, _, generation in offers:
        genomes = np.arange(tag, tag + fitness.size, dtype=np.float64).reshape(
            fitness.shape)[..., None] * np.ones(2)
        tag += fitness.size
        improved = best.offer(np.array(seeds), genomes, fitness, generation)
        assert improved.tolist() == offer_reference(
            [holders[k] for k in seeds], genomes, fitness, generation)
        assert [(b.fitness, b.index, b.last_improvement)
                for b in holders] == list(zip(
                    best.fitness.tolist(), best.index.tolist(),
                    best.last_improvement.tolist()))
        for k, b in enumerate(holders):
            if b.genome is not None:
                assert best.genome[k].tobytes() == b.genome.tobytes()


def _constraints_hold(problem, t) -> dict:
    """Each mission constraint, stated as the inequality it imposes on the
    slot table ``t``."""
    p = problem.params
    up, down = np.sum(t.weighted_rate_up_bps), np.sum(t.weighted_rate_down_bps)
    return {
        "cache_balance": p.cached_fraction * p.demanded_rate_bps + up >= down,
        "rate_demand": down >= p.demanded_rate_bps,
        "energy": np.sum(t.harvested_j)
        >= np.sum(t.fly_j + t.backscatter_j + t.cache_j),
        "speed": bool(np.all(t.hop_m <= p.max_speed_mps * p.slot_duration_s)),
    }


def _tolerances(problem, t) -> dict:
    """How far below zero each margin may fall in a feasible mission with
    the slot table ``t``."""
    p = problem.params
    up, down = np.sum(t.weighted_rate_up_bps), np.sum(t.weighted_rate_down_bps)
    consumed = np.sum(t.fly_j + t.backscatter_j + t.cache_j)
    credit = p.cached_fraction * p.demanded_rate_bps
    return {
        "cache_balance": 1e-9 * max(1.0, credit + up + abs(down)),
        "rate_demand": 1e-9 * max(1.0, abs(down) + p.demanded_rate_bps),
        "energy": 1e-9 * max(1.0, np.sum(t.harvested_j) + consumed),
        "speed": 1e-12,
    }


# How far a genome strays from the heuristic mission (0: not at all).
_PULL = st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0])
# User demands, cached shares and tag powers (as multiples of the
# scenario's), so that the rate constraints bind too.
_LINK = st.tuples(st.sampled_from([0.0, 1e6, 2e7, 1e9]),
                  st.sampled_from([0.0, 0.5, 1.0]),
                  st.sampled_from([1.0, 1e5]))


def _with_link(problem, demand, cached, tag_power):
    params = dataclasses.replace(
        problem.params, demanded_rate_bps=demand, cached_fraction=cached,
        ub_tx_power_w=tag_power * problem.params.ub_tx_power_w)
    return LinkProblem(params, problem.propulsion, problem.source,
                       problem.user, problem.start, problem.goal,
                       penalty_mode=problem.penalty_mode,
                       rate_weighting=problem.rate_weighting,
                       fixed_altitude=problem.fixed_altitude)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_margins_are_nonnegative_exactly_when_constraints_hold(name):
    heuristic = PROBLEMS[name].heuristic_mean()
    seen = set()

    @checked
    @given(raw_genes(PROBLEMS[name]), _PULL, _LINK)
    def check(genes, pull, link):
        problem = _with_link(PROBLEMS[name], *link)
        sol = problem.evaluate(problem.adjust(heuristic + pull * genes / 1e6))
        report = sol.report
        holds = _constraints_hold(problem, sol.table)
        tolerance = _tolerances(problem, sol.table)
        for key, margin in report.margins.items():
            assert (margin >= 0.0) == holds[key], (key, margin)
            seen.add((key, bool(holds[key])))
        assert report.feasible == all(
            margin >= -tolerance[key] for key, margin in report.margins.items())
        seen.add(("feasible", report.feasible))

    check()
    # Every constraint was seen both holding and broken, and so was
    # feasibility as a whole.
    report_keys = ("cache_balance", "rate_demand", "energy", "speed")
    assert seen == {(key, ok) for key in (*report_keys, "feasible")
                    for ok in (True, False)}, seen


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_scalar_and_batch_evaluation_agree_bit_for_bit(name):
    problem = PROBLEMS[name]
    heuristic = problem.heuristic_mean()

    @checked
    @given(st.lists(st.tuples(raw_genes(problem), _PULL), min_size=1,
                    max_size=5))
    def check(draws):
        genomes = np.array([problem.adjust(heuristic + pull * genes / 1e6)
                            for genes, pull in draws])
        batch = problem.evaluate_batch(genomes)
        for row, genome in enumerate(genomes):
            one = problem.evaluate(genome)
            assert np.float64(one.objective_bps).tobytes() == \
                batch.objectives[row].tobytes()
            assert np.float64(one.fitness).tobytes() == \
                batch.fitness[row].tobytes()
            assert one.report.feasible == bool(batch.feasible[row])
            assert np.float64(one.report.worst_violation).tobytes() == \
                batch.worst_violation[row].tobytes()

    check()


def _field_values(bundle, f):
    """Values a problem may take for a numeric parameter field: the
    reference value scaled, zero and one, and a few the evaluation treats
    specially, each kept only where the field's range rule accepts it."""
    accepts = f.metadata["rule"][1]
    special = {"path_loss_exp": [2.0, 0.5, 1.0], "cached_fraction": [0.0, 0.5]}
    base = getattr(bundle, f.name)
    return st.one_of(st.floats(0.25, 4.0).map(lambda k: base * k),
                     st.sampled_from([0.0, 1.0, *special.get(f.name, [])])
                     ).filter(accepts)


def _overrides(attr):
    """Field overrides for a copy of the reference problem's ``attr``."""
    bundle = getattr(PROBLEMS["reference"], attr)
    return st.fixed_dictionaries({}, optional={
        f.name: _field_values(bundle, f) for f in dataclasses.fields(bundle)
        if "rule" in f.metadata})


def _variant(system, propulsion, modes):
    """The reference problem with other parameter values, same geometry."""
    base = PROBLEMS["reference"]
    return LinkProblem(dataclasses.replace(base.params, **system),
                       dataclasses.replace(base.propulsion, **propulsion),
                       base.source, base.user, base.start, base.goal, *modes)


@checked
@given(st.sampled_from([("safe", "literal"), ("paper", "delta")]),
       st.lists(st.tuples(_overrides("params"), _overrides("propulsion")),
                min_size=1, max_size=3),
       st.sampled_from([3, _PASS_ROWS - 1, _PASS_ROWS + 5]),
       st.lists(st.integers(1, 400), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_columned_evaluation_equals_each_problems_own_bit_for_bit(
        modes, variants, first_rows, rows, seed):
    # One pass evaluates every block on the first problem, the fields that
    # differ passed as per-row columns.  The second problem has no cached
    # data, a path-loss exponent of 2 (numpy squares for a scalar 2), and
    # an estimation noise whose square by ** is not its product by *, with
    # a source power that makes the square count in the rates.  A first
    # block of about _PASS_ROWS rows makes the next block straddle a pass
    # boundary.
    odd = {"path_loss_exp": 2.0, "cached_fraction": 0.0, "source_power_w": 1e10,
           "noise_var_estimation_w": 0.7658294888050159}
    noise = odd["noise_var_estimation_w"]
    assert noise ** 2 != noise * noise
    problems = [_variant({}, {}, modes), _variant(odd, {}, modes),
                *(_variant(system, prop, modes) for system, prop in variants)]
    rng = np.random.default_rng(seed)
    blocks = []
    for problem, n in zip(problems, [first_rows, *rows]):
        dim = problem.genome_size
        near = problem.heuristic_mean() + rng.normal(0.0, 0.05, (n // 2, dim))
        blocks.append(problem.adjust(
            np.concatenate([rng.uniform(size=(n - n // 2, dim)), near])))
    fused = evaluate_blocks(problems, blocks)
    start = 0
    for problem, block in zip(problems, blocks):
        alone = problem.evaluate_batch(block)
        for name in ("objectives", "fitness", "feasible", "worst_violation"):
            got = getattr(fused, name)[start:start + len(block)]
            assert got.tobytes() == getattr(alone, name).tobytes(), name
        start += len(block)


@checked
@given(st.integers(1, 3), st.integers(1, 300), st.data())
def test_slot_sums_equal_numpy_sums_over_each_mission(missions, slots, data):
    # The slot-major pass folds its per-mission sums over whole rows in
    # the order numpy's pairwise sum adds one mission's slots.
    values = st.one_of(st.just(-0.0), st.floats(-1e9, 1e9, allow_nan=False))
    table = data.draw(arrays(np.float64, (missions, slots), elements=values))
    want = np.sum(table, axis=1)
    assert _slot_sum(np.ascontiguousarray(table.T)).tobytes() == want.tobytes()


# Seeds of a stack, duplicates included.
_SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4)


@checked
@given(_SEEDS, st.integers(0, 6), st.integers(1, 5), st.floats(-5.0, 5.0),
       st.floats(0.0, 3.0), st.booleans())
def test_stacked_draws_equal_each_seed_alone(seeds, count, dim, loc, scale,
                                             genome_loc):
    if genome_loc:  # as initial_population draws around a mean genome
        loc = np.linspace(loc, -loc, dim)
    for method, args in (("random", ()), ("normal", (loc, scale))):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        stack = draw(rngs, method, (len(seeds), count, dim), *args)
        for layer, rng, seed in zip(stack, rngs, seeds):
            alone = np.random.default_rng(seed)
            want = (alone.random((count, dim)) if method == "random"
                    else alone.normal(loc, scale, (count, dim)))
            assert layer.tobytes() == want.tobytes()
            assert rng.bit_generator.state == alone.bit_generator.state


def _choice(seed, weights, n_picks):
    """``Generator.choice(p=...)`` picks, with roulette's uniform fallback."""
    total = float(np.sum(weights))
    p = (np.full(weights.size, 1.0 / weights.size)
         if not np.isfinite(total) or total <= 0.0 else weights / total)
    return np.random.default_rng(seed).choice(weights.size, n_picks, p=p)


# Fitness levels with ties; a row of one level weighs zero everywhere.
_FITNESS = st.sampled_from([-3.0, -1.0, 0.0, 0.0, 2.0, 1e12])


@checked
@given(_SEEDS, st.integers(2, 12), st.floats(0.0, 1.0), st.data())
def test_stacked_select_picks_equal_generator_choice(seeds, size,
                                                     elite_fraction, data):
    fitness = np.array(data.draw(st.lists(
        st.one_of(st.lists(_FITNESS, min_size=size, max_size=size),
                  st.just([0.0] * size)),
        min_size=len(seeds), max_size=len(seeds))))
    genomes = np.arange(len(seeds) * size, dtype=np.float64).reshape(
        len(seeds), size, 1)
    cfg = ga.GaConfig(population_size=size, elite_fraction=elite_fraction)
    pool = ga.select(genomes, fitness, cfg,
                     [np.random.default_rng(seed) for seed in seeds])
    n_elite = ga.elite_count(cfg, size)
    for row, seed in enumerate(seeds):
        order = np.argsort(fitness[row], kind="stable")
        picks = np.concatenate([order[:n_elite], _choice(
            seed, ga.selection_weights(fitness[row]), size - n_elite)])
        assert np.array_equal(pool[row], genomes[row][picks])
    weights = ga.selection_weights(fitness)
    picks = ga.roulette(weights, 7, [np.random.default_rng(s) for s in seeds])
    for row, seed in enumerate(seeds):
        assert np.array_equal(picks[row], _choice(seed, weights[row], 7))


# JSON scalars: None, bools, large ints, floats with NaN, +-inf and -0.0
# (numpy's too), and text with non-ASCII and control characters.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**256, 2**256),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, np.float64(-math.inf)]),
    st.floats(), st.floats().map(np.float64), st.text())
# Containers, empty ones included; the keys of one dict share a type, so
# that they sort.
_JSON = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    *(st.dictionaries(keys, children, max_size=4) for keys in (
        st.text(), st.integers(-2**70, 2**70), st.floats(allow_nan=False),
        st.booleans(), st.none()))), max_leaves=25)


@settings(checked, max_examples=300)
@given(_JSON)
def test_write_json_writes_what_json_dumps_writes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "payload.json"
    write_json(path, payload)
    assert path.read_text(encoding="utf-8") == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}}, [np.int64(3)], {"a": [object()]}, {(1, 2): 0},
    {1: 0, "a": 1}, {"a": {np.int64(1): 0}}])
def test_write_json_rejects_what_json_rejects(tmp_path, payload):
    with pytest.raises(TypeError) as want:
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        write_json(tmp_path / "payload.json", payload)
