"""Particle swarm operators, the inertia schedule, and end-to-end runs."""

import copy
import math

import numpy as np
import pytest

from helpers import frozen_gene_indices, small_problem, small_system_params
from uavbsc import pso
from uavbsc.common import Incumbent, run_alone
from uavbsc.encoding import BatchEvaluation, LinkProblem
from uavbsc.harness import run_single
from uavbsc.pso import IPSO_MUTATION_VARIANCE, PsoConfig


# The seed of each run below that names none.
SEED = 9


def small_cfg(**overrides):
    base = dict(variant="ipso", swarm_size=12, iterations=20)
    base.update(overrides)
    return PsoConfig(**base)


def roomy_problem(**param_overrides):
    """Compact problem with slack in every constraint."""
    return small_problem(small_system_params(
        wpt_power_w=10_000.0, mission_time_s=16.0, **param_overrides))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("variant", "annealing"),
    ("swarm_size", 1),
    ("iterations", 0),
    ("cognitive_coeff", -0.1),
    ("social_coeff", -1.0),
    ("inertia_exponent", 0.0),
    ("mutation_prob", 1.5),
    ("velocity_clamp", 0.0),
    ("init_std", -0.2),
])
def test_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError) as err:
        small_cfg(**{field: value})
    assert field in str(err.value)


def test_config_rejects_inverted_inertia_range():
    with pytest.raises(ValueError) as err:
        small_cfg(inertia_max=0.1, inertia_min=0.9)
    assert "inertia_max" in str(err.value)


def test_config_collects_all_problems_in_one_error():
    with pytest.raises(ValueError) as err:
        small_cfg(swarm_size=0, iterations=0, mutation_prob=-1.0)
    msg = str(err.value)
    for field in ("swarm_size", "iterations", "mutation_prob"):
        assert field in msg


def test_mutation_active_requires_improved_variant_and_probability():
    assert small_cfg(variant="ipso", mutation_prob=0.1).mutation_active
    assert not small_cfg(variant="ipso", mutation_prob=0.0).mutation_active
    assert not small_cfg(variant="pso", mutation_prob=0.1).mutation_active


# ----------------------------------------------------------------------
# Inertia schedule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("w_max,w_min,total", [
    (0.9, 0.1, 150),
    (0.9, 0.4, 300),
    (0.7, 0.7, 10),
    (1.2, 0.05, 7),
])
def test_inertia_endpoints_are_exact(w_max, w_min, total):
    cfg = small_cfg(inertia_max=w_max, inertia_min=w_min)
    assert pso.inertia_at(0, total, cfg) == w_max
    assert pso.inertia_at(total, total, cfg) == w_min


def test_inertia_quarter_point_with_square_root_schedule():
    cfg = small_cfg(inertia_max=0.9, inertia_min=0.1, inertia_exponent=0.5)
    # (1/4)^0.5 is exactly 1/2, so the weight sits halfway down the range.
    assert pso.inertia_at(25, 100, cfg) == pytest.approx(0.5, rel=1e-12)


def test_inertia_schedule_is_monotone_nonincreasing():
    cfg = small_cfg(inertia_max=0.9, inertia_min=0.1, inertia_exponent=0.5)
    values = [pso.inertia_at(s, 40, cfg) for s in range(41)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(0.1 <= v <= 0.9 for v in values)


def test_plain_variant_keeps_constant_inertia():
    # The plain variant holds the schedule's start, inertia_max, throughout.
    cfg = small_cfg(variant="pso", inertia_max=0.73, inertia_min=0.1)
    assert [pso.inertia_at(s, 50, cfg) for s in range(51)] == [0.73] * 51


def test_inertia_rejects_out_of_range_steps():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        pso.inertia_at(0, 0, cfg)
    with pytest.raises(ValueError):
        pso.inertia_at(-1, 10, cfg)
    with pytest.raises(ValueError):
        pso.inertia_at(11, 10, cfg)


# ----------------------------------------------------------------------
# Velocity and position updates
# ----------------------------------------------------------------------

def test_update_velocity_replays_the_rng_stream():
    cfg = small_cfg(cognitive_coeff=1.3, social_coeff=1.7)
    rng = np.random.default_rng(50)
    x = rng.uniform(size=(5, 4))
    v = rng.normal(0, 0.1, size=(5, 4))
    p = rng.uniform(size=(5, 4))
    g = rng.uniform(size=4)
    solver_rng = np.random.default_rng(51)
    replay = np.random.default_rng(51)
    out = pso.update_velocity(x, v, p, g, 0.6, cfg, solver_rng)
    r1 = replay.uniform(size=x.shape)
    r2 = replay.uniform(size=x.shape)
    expected = 0.6 * v + 1.3 * r1 * (p - x) + 1.7 * r2 * (g - x)
    assert np.array_equal(out, expected)
    assert solver_rng.uniform() == replay.uniform()


def test_update_velocity_fixed_point_is_zero():
    cfg = small_cfg()
    x = np.full(6, 0.4)
    out = pso.update_velocity(x, np.zeros(6), x, x, 0.9, cfg,
                              np.random.default_rng(0))
    assert np.array_equal(out, np.zeros(6))


def test_update_velocity_applies_clamp():
    cfg = small_cfg(cognitive_coeff=50.0, social_coeff=50.0,
                    velocity_clamp=0.2)
    rng = np.random.default_rng(52)
    x = np.zeros(8)
    out = pso.update_velocity(x, np.zeros(8), np.ones(8), np.ones(8),
                              0.9, cfg, rng)
    assert np.all(np.abs(out) <= 0.2)
    assert np.any(out == 0.2)  # the cap actually binds


def test_update_position_moves_and_clamps():
    problem = small_problem()
    frozen = frozen_gene_indices(problem)
    free = np.setdiff1d(np.arange(problem.genome_size), frozen)[:3]
    assert frozen.size
    x, v = np.full((2, problem.genome_size), 0.5), np.zeros((2, problem.genome_size))
    x[:, free], v[:, free] = [0.1, 0.5, 0.95], [-0.3, 0.2, 0.2]
    x = problem.adjust(x)
    v[:, frozen] = 0.3  # frozen z genes are re-pinned, not moved
    moved = pso.update_position(problem, x, v)
    assert np.allclose(moved[:, free], [0.0, 0.7, 1.0], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(moved[:, frozen], x[:, frozen])
    v[0, free[0]] = np.inf
    with pytest.raises(ValueError, match="finite"):
        pso.update_position(problem, x, v)


# ----------------------------------------------------------------------
# Mutation pass
# ----------------------------------------------------------------------

def _solver_rng(loop):
    """The generator a suspended one-seed ``pso.steps`` loop draws from."""
    return loop.gi_frame.f_locals["stack"].rngs[0]


def _reply(problem, block):
    """The evaluation ``drive`` sends a one-seed loop for its (1, rows, dim)
    ``block``: (1, rows) arrays."""
    ev = problem.evaluate_batch(block[0])
    return BatchEvaluation(block, *(values[None] for values in (
        ev.objectives, ev.fitness, ev.feasible, ev.worst_violation)))


def _first_iteration(cfg, problem):
    """Step ``pso.steps`` by hand up to its iteration-1 block.

    Returns the loop, that block, a copy of the generator taken before the
    block's draws, and the row of the incumbent after the personal-best
    refresh, recomputed outside.
    """
    loop = pso.steps(cfg, problem, [SEED])
    start, _ = next(loop)
    ev0 = problem.evaluate_batch(start[0])
    replay = copy.deepcopy(_solver_rng(loop))
    block, _ = loop.send(_reply(problem, start))
    positions = block[0, :cfg.swarm_size]
    ev1 = problem.evaluate_batch(positions)
    better = ev1.fitness < ev0.fitness
    best = Incumbent(1)
    best.offer([0], start, ev0.fitness[None])
    best.offer([0], np.where(better[:, None], positions, start[0])[None],
               np.where(better, ev1.fitness, ev0.fitness)[None])
    return loop, block, replay, int(best.index[0])


def test_ipso_mutate_replays_masked_offsets():
    # The block's second half is adjust(positions + offsets) for every row,
    # the offsets drawn before the best row is known.  Of its mutants, only
    # the rows an offset moved, the best row's aside, are counted.
    problem = roomy_problem()
    cfg = small_cfg(mutation_prob=0.4, swarm_size=7)
    size = cfg.swarm_size
    loop, block, replay, best_row = _first_iteration(cfg, problem)
    assert block.shape == (1, 2 * size, problem.genome_size)
    positions = block[0, :size]
    replay.uniform(size=positions.shape)  # the two velocity pulls
    replay.uniform(size=positions.shape)
    mask = replay.uniform(size=positions.shape) < cfg.mutation_prob
    offsets = replay.normal(0.0, math.sqrt(IPSO_MUTATION_VARIANCE),
                            size=positions.shape)
    offsets = np.where(mask, offsets, 0.0)
    assert _solver_rng(loop).bit_generator.state == replay.bit_generator.state
    expected = problem.adjust(positions + offsets)
    assert block[0, size:].tobytes() == expected.tobytes()

    assert np.any(offsets[best_row] != 0.0)  # the best row's mutant is dropped
    offsets[best_row] = 0.0
    moved = np.count_nonzero(np.any(offsets != 0.0, axis=1))
    assert 0 < moved < size
    spent = loop.gi_frame.f_locals["stack"].spent
    before = int(spent[0])
    loop.send(_reply(problem, block))
    assert int(spent[0]) == before + size + moved


def test_ipso_mutate_is_inert_for_plain_variant():
    # Without the mutation pass every iteration yields one swarm block
    # and draws nothing beyond its two velocity pulls.
    problem = roomy_problem()
    for cfg in (small_cfg(variant="pso", iterations=5),
                small_cfg(mutation_prob=0.0, iterations=5)):
        loop = pso.steps(cfg, problem, [SEED])
        block, _ = next(loop)
        blocks = 1
        while True:
            replay = copy.deepcopy(_solver_rng(loop))
            try:
                block, _ = loop.send(_reply(problem, block))
            except StopIteration as stop:
                [report] = stop.value
                break
            blocks += 1
            assert block.shape == (1, cfg.swarm_size, problem.genome_size)
            replay.uniform(size=block.shape[1:])
            replay.uniform(size=block.shape[1:])
            assert (_solver_rng(loop).bit_generator.state
                    == replay.bit_generator.state)
        assert blocks == cfg.iterations + 1
        assert report.evaluations == blocks * cfg.swarm_size


# ----------------------------------------------------------------------
# Full runs
# ----------------------------------------------------------------------

def test_run_is_deterministic_per_seed():
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=10, iterations=12)
    r1 = run_alone(pso.steps(cfg, problem, [77]), problem)
    r2 = run_alone(pso.steps(cfg, problem, [77]), problem)
    assert np.array_equal(r1.best.genome, r2.best.genome)
    assert r1.best.fitness == r2.best.fitness
    assert [t.to_dict() for t in r1.trace] == [t.to_dict() for t in r2.trace]
    r3 = run_alone(pso.steps(cfg, problem, [78]), problem)
    assert not np.array_equal(r1.best.genome, r3.best.genome)


@pytest.mark.parametrize("solver, calls, rows, evaluations", [
    ("ipso", 151, 15_050, 14_551),
    ("pso", 300, 15_000, 15_000),
])
def test_one_evaluation_call_per_iteration(reference_scenario, monkeypatch,
                                           solver, calls, rows, evaluations):
    # IPSO evaluates its moved swarm and its mutants in one block; the
    # holder's mutant and the rows drawn no offset are evaluated uncounted.
    sizes = []
    evaluate_batch = LinkProblem.evaluate_batch

    def counting(self, genomes):
        sizes.append(len(genomes))
        return evaluate_batch(self, genomes)

    monkeypatch.setattr(LinkProblem, "evaluate_batch", counting)
    report = run_single(reference_scenario, solver, 7, budget=15000).report
    assert (len(sizes), sum(sizes), report.evaluations) == (calls, rows, evaluations)
    assert len(sizes) == len(report.trace) + 1


def test_improved_variant_with_flat_schedule_equals_plain_variant():
    # Freeze the schedule at the plain variant's weight, inertia_max, and
    # disable the mutation pass: both variants must then take identical steps.
    problem = roomy_problem()
    flat = small_cfg(variant="ipso", inertia_max=0.9, inertia_min=0.9,
                     mutation_prob=0.0, swarm_size=10, iterations=15)
    plain = small_cfg(variant="pso", swarm_size=10, iterations=15)
    a = run_alone(pso.steps(flat, problem, [SEED]), problem)
    b = run_alone(pso.steps(plain, problem, [SEED]), problem)
    assert a.solver == "ipso" and b.solver == "pso"
    assert np.array_equal(a.best.genome, b.best.genome)
    assert a.best.fitness == b.best.fitness
    assert [t.to_dict() for t in a.trace] == [t.to_dict() for t in b.trace]
    assert a.evaluations == b.evaluations


def test_run_best_trace_is_monotone():
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=10, iterations=25)
    report = run_alone(pso.steps(cfg, problem, [1]), problem)
    best = [rec.best_fitness for rec in report.trace]
    assert all(b <= a for a, b in zip(best, best[1:]))
    # The final iteration's mutation pass books its evaluations after the
    # last record is written, so the total may exceed it by at most the
    # number of mutated particles.
    assert report.trace[-1].evaluations <= report.evaluations
    assert report.evaluations <= report.trace[-1].evaluations + 9


def test_run_respects_budget_with_mutation_accounting():
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=10, iterations=400, mutation_prob=0.5)
    report = run_alone(pso.steps(cfg, problem, [2], 72), problem)
    assert report.evaluations <= 72
    assert report.budget == 72
    assert len(report.trace) >= 3


def test_run_budget_counts_only_moved_mutants():
    # With mutation active each iteration books the swarm re-evaluation
    # plus one evaluation per actually-perturbed particle, never more
    # than swarm_size - 1 of them.
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=8, iterations=5, mutation_prob=0.3)
    report = run_alone(pso.steps(cfg, problem, [3]), problem)
    assert report.evaluations <= 8 + 5 * (8 + 7)
    assert report.evaluations >= 8 + 5 * 8


def test_run_rejects_budget_below_one_swarm():
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=10)
    with pytest.raises(ValueError):
        run_alone(pso.steps(cfg, problem, [SEED], 9), problem)


def test_run_single_iteration_and_solver_naming():
    problem = roomy_problem()
    for variant in ("ipso", "pso"):
        cfg = small_cfg(variant=variant, swarm_size=6, iterations=1)
        report = run_alone(pso.steps(cfg, problem, [4]), problem)
        assert report.solver == variant
        assert len(report.trace) == 1
        assert report.config["variant"] == variant


def test_run_with_degenerate_start_stays_at_the_mean():
    # Zero spread puts every particle on the heuristic genome; with no
    # mutation there is no force to move anyone, so the best never
    # changes and the trace stays flat.
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=6, iterations=8, init_std=0.0,
                    mutation_prob=0.0)
    report = run_alone(pso.steps(cfg, problem, [SEED]), problem)
    heuristic = problem.evaluate(problem.heuristic_mean())
    assert np.array_equal(report.best.genome, heuristic.genome)
    assert report.best.fitness == heuristic.fitness
    assert all(rec.best_fitness == heuristic.fitness for rec in report.trace)


def test_run_finds_feasible_improvement():
    problem = roomy_problem()
    cfg = small_cfg(swarm_size=15, iterations=40, init_std=0.5)
    report = run_alone(pso.steps(cfg, problem, [6]), problem)
    assert report.feasible
    assert report.trace[-1].best_fitness <= report.trace[0].best_fitness
    assert report.best_objective_bps > 0.0
