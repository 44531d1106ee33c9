"""The one best-so-far rule shared by every solver, the one initializer
of both population-based solvers, the per-seed draws of a stacked solver
loop, and the one driver of solver loops."""

import dataclasses

import numpy as np
import pytest

from uavbsc import ga, pso
from uavbsc.common import (
    STALL_TOL,
    GenerationRecord,
    Incumbent,
    SeedStack,
    SolverReport,
    draw,
    drive,
    initial_population,
    run_alone,
)
from uavbsc.encoding import LinkProblem


def _block(*fits):
    """One seed's (1, rows) block: genomes tagged by row number, plus
    their fitness."""
    genomes = np.arange(len(fits), dtype=np.float64)[None, :, None] * np.ones(3)
    return [0], genomes, np.array([fits], dtype=np.float64)


def test_equal_fitness_never_displaces_the_earlier_row():
    best = Incumbent(1)
    best.offer(*_block(5.0, 5.0, 5.0))
    assert (best.fitness[0], best.index[0]) == (5.0, 0)
    # A later offer at equal fitness never replaces the holder.
    best.offer(*_block(6.0, 5.0))
    assert (best.fitness[0], best.index[0]) == (5.0, 0)
    best.offer(*_block(5.0))
    assert best.index[0] == 0
    np.testing.assert_array_equal(best.genome[0], np.zeros(3))


def test_full_ties_go_to_the_earliest_row_and_the_earliest_offer():
    best = Incumbent(1)
    seeds, genomes, fit = _block(2.0, 1.0, 1.0)
    best.offer(seeds, genomes, fit)
    assert best.index[0] == 1
    np.testing.assert_array_equal(best.genome[0], genomes[0, 1])
    later = np.full_like(genomes, 9.0)
    best.offer(seeds, later, fit)
    assert best.index[0] == 1
    np.testing.assert_array_equal(best.genome[0], genomes[0, 1])


def test_offer_reports_improvement_only_past_the_stall_tolerance():
    best = Incumbent(1)
    assert best.offer(*_block(1.0))          # the first offer counts
    assert not best.offer(*_block(1.0 - STALL_TOL / 2))
    assert best.fitness[0] == 1.0 - STALL_TOL / 2  # still replaced
    assert not best.offer(*_block(best.fitness[0]))
    assert best.offer(*_block(best.fitness[0] - 4 * STALL_TOL))
    assert not best.offer(*_block(2.0))


def test_offer_without_a_generation_keeps_last_improvement():
    best = Incumbent(1)
    best.offer(*_block(3.0), generation=4)
    assert best.last_improvement[0] == 4
    assert best.offer(*_block(1.0))
    assert best.last_improvement[0] == 4
    assert best.fitness[0] == 1.0
    best.offer(*_block(3.0), generation=6)   # no improvement
    assert best.last_improvement[0] == 4
    best.offer(*_block(0.5), generation=7)
    assert best.last_improvement[0] == 7


def test_index_names_the_row_of_the_last_replacement():
    best = Incumbent(1)
    best.offer(*_block(4.0, 3.0))
    assert best.index[0] == 1
    best.offer(*_block(3.5, 9.0, 9.0))
    assert best.index[0] == 1                       # no replacement
    best.offer(*_block(9.0, 9.0, 2.0))
    assert best.index[0] == 2


def test_stored_genome_is_a_copy_of_the_winning_row():
    best = Incumbent(1)
    seeds, genomes, fit = _block(1.0)
    best.offer(seeds, genomes, fit)
    genomes[0, 0] = -1.0
    np.testing.assert_array_equal(best.genome[0], np.zeros(3))


def test_one_offer_over_seeds_is_one_offer_per_seed():
    rng = np.random.default_rng(8)
    fit = rng.integers(0, 3, (4, 6)).astype(float)  # many full ties
    genomes = rng.random((4, 6, 3))
    rows, alone = Incumbent(4), [Incumbent(1) for _ in range(4)]
    for gen in range(3):
        got = rows.offer(np.arange(4), genomes, fit - gen, gen)
        want = [b.offer([0], genomes[r, None], fit[r, None] - gen, gen)[0]
                for r, b in enumerate(alone)]
        assert got.tolist() == want
        assert list(zip(rows.fitness, rows.index, rows.last_improvement)) == [
            (b.fitness[0], b.index[0], b.last_improvement[0]) for b in alone]
        assert all(np.array_equal(a, b.genome[0])
                   for a, b in zip(rows.genome, alone))
    # The seeds left out of an offer keep their incumbents.
    genome, last = rows.genome.copy(), rows.last_improvement.copy()
    rows.offer([3, 1], genomes[:2], fit[:2] - 9.0, 9)
    np.testing.assert_array_equal(rows.genome[[0, 2]], genome[[0, 2]])
    assert rows.last_improvement.tolist() == [last[0], 9, last[2], 9]


def test_record_traces_the_current_best():
    best = Incumbent(2)
    best.offer([0, 1], np.zeros((2, 1, 3)), np.array([[2.0], [4.0]]))
    best.record([0, 1], 1, np.array([7.5, 8.0]), [10, 12])
    best.offer(*_block(1.0))
    best.record([0], 2, np.array([3.0]), [20])
    assert [[r.to_dict() for r in trace] for trace in best.trace] == [
        [GenerationRecord(1, 2.0, 7.5, 10).to_dict(),
         GenerationRecord(2, 1.0, 3.0, 20).to_dict()],
        [GenerationRecord(1, 4.0, 8.0, 12).to_dict()],
    ]


def test_report_evaluates_the_incumbent_once(tiny_problem):
    stack = SeedStack("x", tiny_problem, [3], 1, None, {"k": 1})
    genome = tiny_problem.heuristic_mean()
    ev = tiny_problem.evaluate_batch(genome[None, :])
    stack.best.offer([0], ev.genomes[None], ev.fitness[None], 0)
    (report,) = stack.reports()
    assert (report.solver, report.seed, report.evaluations) == ("x", 3, 1)
    assert report.best.fitness == float(ev.fitness[0])
    assert report.last_improvement_generation == 0
    assert report.trace is stack.best.trace[0]
    assert report.config == {"k": 1}


@pytest.mark.parametrize("module, config, unit", [
    (ga, ga.GaConfig(population_size=6, max_evaluations=5), "population"),
    (pso, pso.PsoConfig(swarm_size=6, max_evaluations=5), "swarm"),
], ids=["ga", "pso"])
def test_a_budget_below_the_first_generation_names_what_cannot_fit(
        tiny_problem, module, config, unit):
    with pytest.raises(ValueError,
                       match=f"^evaluation budget 5 cannot fit one {unit} of 6$"):
        next(module.steps(config, tiny_problem))


def test_achieved_rate_counts_an_infeasible_run_as_zero(tiny_problem):
    sol = tiny_problem.evaluate(tiny_problem.heuristic_mean())

    def report(feasible):
        flagged = dataclasses.replace(sol.report, feasible=feasible)
        return SolverReport("x", 0, dataclasses.replace(sol, report=flagged),
                            [], 1, 0)

    assert report(True).achieved_rate_bps == sol.objective_bps > 0.0
    assert report(False).achieved_rate_bps == 0.0


def test_initial_population_is_one_normal_draw_then_adjust(tiny_problem):
    dim = tiny_problem.genome_size
    got = initial_population(tiny_problem, 5, 0.2, np.random.default_rng(8))
    want = tiny_problem.adjust(np.random.default_rng(8).normal(
        tiny_problem.heuristic_mean(), 0.2, size=(5, dim)))
    assert got.tobytes() == want.tobytes()


def test_both_solvers_start_from_the_shared_initializer(tiny_problem):
    want = initial_population(tiny_problem, 6, 0.2, np.random.default_rng(4))
    first_ga, ga_seeds = next(ga.steps(ga.GaConfig(population_size=6, seed=4),
                                       tiny_problem))
    first_pso, pso_seeds = next(pso.steps(pso.PsoConfig(swarm_size=6, seed=4),
                                          tiny_problem))
    assert first_ga.shape == first_pso.shape == (1, *want.shape)
    assert first_ga.tobytes() == want.tobytes()
    assert first_pso.tobytes() == want.tobytes()
    assert ga_seeds.tolist() == pso_seeds.tolist() == [0]


def test_draw_fills_each_layer_of_a_stack_from_its_own_generator():
    seeds = (7, 8, 7)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stacked = draw(rngs, "normal", (3, 4, 5), 0.0, 2.0)
    for layer, rng, seed in zip(stacked, rngs, seeds):
        alone = np.random.default_rng(seed)
        assert layer.tobytes() == alone.normal(0.0, 2.0, size=(4, 5)).tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state
    # The solvers draw their uniforms with ``random``: the same values and
    # stream as ``uniform()``.
    assert draw(np.random.default_rng(3), "random", (6, 5)).tobytes() == \
        np.random.default_rng(3).uniform(size=(6, 5)).tobytes()


def test_initial_population_of_a_stack_is_each_seed_alone(tiny_problem):
    stacked = initial_population(tiny_problem, 5, 0.2,
                                 [np.random.default_rng(s) for s in (2, 9)])
    for layer, seed in zip(stacked, (2, 9)):
        alone = initial_population(tiny_problem, 5, 0.2,
                                   np.random.default_rng(seed))
        assert layer.tobytes() == alone.tobytes()


def _loop(problem, ticks, bad=None, seen=None, raw=False):
    """A one-seed solver loop of ``ticks`` (1, 1, dim) stacks; ``bad`` maps a
    tick to the gene value that spoils its stack, or to an exception to raise.

    A spoiled stack passes through ``adjust``, as every solver stack does,
    unless ``raw``: then it is yielded as it is."""
    genome = problem.heuristic_mean()
    for tick in range(ticks):
        spoil = (bad or {}).get(tick)
        if isinstance(spoil, Exception):
            raise spoil
        block = genome[None, None].copy()
        if spoil is not None:
            block[0, 0, 0] = spoil
            if not raw:
                block = problem.adjust(block)
        ev = yield block, np.zeros(1, dtype=int)
        if seen is not None:
            seen.append((tick, float(ev.fitness[0, 0])))
    return [ticks]


def _with_wpt_power(problem, wpt_power_w):
    """``problem`` with another charging power: the same geometry."""
    return LinkProblem(dataclasses.replace(problem.params, wpt_power_w=wpt_power_w),
                       problem.propulsion, problem.source, problem.user,
                       problem.start, problem.goal)


def test_each_loop_is_sent_its_stack_evaluated_on_its_seeds_problems(
        tiny_problem):
    # Two loops of different shapes, whose three seeds have three charging
    # powers, share one evaluation; each reply has its stack's shape and
    # the bits of each seed's rows on that seed's own problem alone.
    own = [[_with_wpt_power(tiny_problem, w) for w in (0.5, 2.0)],
           [_with_wpt_power(tiny_problem, 8.0)]]
    rng = np.random.default_rng(3)
    stacks = [tiny_problem.adjust(rng.random((seeds, rows, tiny_problem.genome_size)))
              for seeds, rows in ((2, 3), (1, 5))]
    replies = []

    def loop(stack):
        replies.append((yield stack, np.arange(len(stack))))
        return []

    assert [outcome for outcome, _ in drive(map(loop, stacks), own)] == [[], []]
    fields = ("objectives", "fitness", "feasible", "worst_violation")
    for stack, problems, reply in zip(stacks, own, replies):
        assert reply.genomes is stack
        for name in fields:
            assert getattr(reply, name).shape == stack.shape[:2]
        for k, problem in enumerate(problems):
            alone = problem.evaluate_batch(stack[k])
            for name in fields:
                assert getattr(reply, name)[k].tobytes() == \
                    getattr(alone, name).tobytes(), name
    # The charging power moves the evaluation of these rows.
    assert own[0][0].evaluate_batch(stacks[0][0]).worst_violation.tobytes() != \
        own[0][1].evaluate_batch(stacks[0][0]).worst_violation.tobytes()


def test_drive_steps_every_loop_with_one_evaluation_per_tick(tiny_problem):
    seen = [[], [], []]
    loops = [_loop(tiny_problem, n, seen=log) for n, log in zip((3, 5, 1), seen)]
    driven = drive(loops, [tiny_problem] * 3)
    assert [reports for reports, _ in driven] == [[3], [5], [1]]
    assert all(busy > 0.0 for _, busy in driven)
    fitness = tiny_problem.evaluate(tiny_problem.heuristic_mean()).fitness
    assert seen == [[(t, fitness) for t in range(n)] for n in (3, 5, 1)]


def test_drive_raises_the_evaluation_error_of_a_raw_invalid_block(
        tiny_problem):
    # Solver blocks come out of adjust; a block that skips it and fails
    # the evaluation fails the whole drive at once.
    seen = [[], [], []]
    loops = [_loop(tiny_problem, 5, seen=seen[0]),
             _loop(tiny_problem, 3, {1: 2.0}, seen[1], raw=True),
             _loop(tiny_problem, 5, seen=seen[2])]
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        drive(loops, [tiny_problem] * 3)
    assert [len(log) for log in seen] == [1, 1, 1]


def test_drive_charges_a_failed_step_to_its_own_loop(tiny_problem):
    seen = [[], [], []]
    loops = [_loop(tiny_problem, 5, seen=seen[0]),
             _loop(tiny_problem, 3, {2: np.inf}, seen[1]),
             _loop(tiny_problem, 5, seen=seen[2])]
    (first, _), (failed, busy), (last, _) = drive(loops, [tiny_problem] * 3)
    assert isinstance(failed, ValueError) and "must be finite" in str(failed)
    assert busy > 0.0
    # The loops on either side of the failed one ran to their ends.
    assert (first, last) == ([5], [5])
    assert [len(log) for log in seen] == [5, 2, 5]


def test_each_loop_outcome_holds_its_own_error(tiny_problem):
    loops = [_loop(tiny_problem, 5, {3: np.nan}),
             _loop(tiny_problem, 5, {1: ValueError("second loop")}),
             _loop(tiny_problem, 2)]
    outcomes = [outcome for outcome, _ in drive(loops, [tiny_problem] * 3)]
    assert [str(error) for error in outcomes[:2]] == [
        "genome genes must be finite", "second loop"]
    assert outcomes[2] == [2]


def test_drive_takes_every_loop(tiny_problem):
    taken = []

    def loops():
        for n, bad in ((2, None), (2, {0: ValueError("first block")}), (2, None)):
            taken.append(n)
            yield _loop(tiny_problem, n, bad)

    outcomes = [outcome for outcome, _ in drive(loops(), [tiny_problem] * 3)]
    assert taken == [2, 2, 2]
    assert outcomes[0] == outcomes[2] == [2]
    assert str(outcomes[1]) == "first block"


def test_run_alone_returns_the_report_or_raises_the_error(tiny_problem):
    assert run_alone(_loop(tiny_problem, 3), tiny_problem) == 3
    with pytest.raises(ValueError, match="own step"):
        run_alone(_loop(tiny_problem, 3, {1: ValueError("own step")}), tiny_problem)
