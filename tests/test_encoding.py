"""Genome encoding, decoding, constraint margins, and fitness mapping.

The heavy checks replay whole missions through the pure-Python audit in
``oracles.py`` (an independent decode + per-slot physics + margin route)
and require agreement at 1e-12 of each margin's normalization scale.
"""

import json
import math
import platform
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    REFERENCE_CONFIG,
    TINY_CONFIG,
    audit_genome,
    encode,
    evaluate_blocks,
    frozen_gene_indices,
    random_genomes,
    small_problem,
    small_system_params,
)
from oracles import (
    PENALTY_SCALE_REF,
    fitness_reference,
    hop_lengths,
    per_point_evaluate,
)
from uavbsc.config import ScenarioConfig
from uavbsc.encoding import PENALTY_SCALE, LinkProblem, normalize
from uavbsc.harness import run_single

MARGIN_NAMES = ("cache_balance", "rate_demand", "energy", "speed")


def assert_matches_audit(problem, genome, rel=1e-12):
    """Compare every margin, the flag, worst violation and objective."""
    audit = audit_genome(problem, genome)
    report = problem.evaluate(genome).report
    assert tuple(report.margins) == MARGIN_NAMES
    for name in MARGIN_NAMES:
        scale = max(1.0, audit["scales"][name])
        got = report.margins[name]
        want = audit["margins"][name]
        assert abs(got - want) <= rel * scale, (name, got, want)
    assert report.feasible == audit["feasible"]
    assert abs(report.worst_violation - audit["worst"]) <= rel
    obj = problem.evaluate(genome).objective_bps
    assert abs(obj - audit["objective"]) <= rel * max(1.0, abs(audit["objective"]))
    return report, audit


# ----------------------------------------------------------------------
# Gene mapping
# ----------------------------------------------------------------------

def test_normalize_denormalize_round_trip_and_clamp():
    # Decoding maps a gene g back to lo + g * (hi - lo).
    assert normalize(5.0, 0.0, 10.0) == 0.5
    assert normalize(-3.0, 0.0, 10.0) == 0.0
    assert normalize(42.0, 0.0, 10.0) == 1.0
    for value in (0.0, 1.7, 9.99):
        assert math.isclose(
            -1.0 + normalize(value, -1.0, 10.0) * 11.0, value,
            rel_tol=1e-12, abs_tol=1e-12)
    with pytest.raises(ValueError):
        normalize(1.0, 2.0, 2.0)


def test_genome_layout_counts(reference_problem):
    n = reference_problem.n_slots
    assert n == 8
    assert reference_problem.n_interior == 7
    assert reference_problem.genome_size == 3 * 7 + 8
    assert reference_problem.split_offset == 21
    frozen = frozen_gene_indices(reference_problem)
    assert frozen.tolist() == [2, 5, 8, 11, 14, 17, 20]


def test_adjust_clamps_and_pins_altitude_genes(reference_problem):
    rng = np.random.default_rng(0)
    raw = rng.normal(0.5, 1.0, size=reference_problem.genome_size)
    out = reference_problem.adjust(raw)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    z_lo, z_hi = reference_problem.params.bounds_m[2]
    pinned = normalize(reference_problem.params.altitude_m, z_lo, z_hi)
    assert np.all(out[frozen_gene_indices(reference_problem)] == pinned)
    # Stacked input keeps its shape.
    stack = reference_problem.adjust(np.tile(raw, (4, 1)))
    assert stack.shape == (4, reference_problem.genome_size)
    assert np.array_equal(stack[0], out)


def test_full_3d_mode_leaves_altitude_genes_free():
    problem = small_problem(fixed_altitude=False)
    assert frozen_gene_indices(problem).size == 0
    genes = np.full(problem.genome_size, 0.25)
    assert np.array_equal(problem.adjust(genes), genes)


def test_heuristic_mean_is_straight_path_with_half_splits(reference_problem):
    genome = reference_problem.heuristic_mean()
    traj, split = reference_problem.decode(genome)
    assert np.all(split == 0.5)
    n = reference_problem.n_slots
    for k in range(n + 1):
        expected = reference_problem.start + (
            reference_problem.goal - reference_problem.start) * (k / n)
        assert np.allclose(traj.waypoints[k], expected, rtol=0, atol=1e-9)


def test_decode_pins_endpoints_and_encode_round_trips(reference_problem):
    rng = np.random.default_rng(1)
    genome = reference_problem.adjust(
        rng.uniform(size=reference_problem.genome_size))
    traj, split = reference_problem.decode(genome)
    assert np.array_equal(traj.waypoints[0], reference_problem.start)
    assert np.array_equal(traj.waypoints[-1], reference_problem.goal)
    back = encode(reference_problem, traj, split)
    assert np.allclose(back, genome, rtol=0, atol=1e-12)


def test_decode_rejects_bad_genomes(reference_problem):
    with pytest.raises(ValueError):
        reference_problem.decode(np.zeros(3))
    bad = np.zeros(reference_problem.genome_size)
    bad[0] = 1.5
    with pytest.raises(ValueError):
        reference_problem.decode(bad)
    bad[0] = -0.1
    with pytest.raises(ValueError):
        reference_problem.decode(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_and_evaluate_reject_non_finite_genes(tiny_problem, bad):
    # One waypoint gene and one split gene.
    for index in (0, tiny_problem.genome_size - 1):
        genome = tiny_problem.heuristic_mean()
        genome[index] = bad
        for entry in (tiny_problem.decode, tiny_problem.evaluate):
            with pytest.raises(ValueError, match="genome genes must be finite"):
                entry(genome)


def test_random_genomes_are_valid_and_seeded(reference_problem):
    a = random_genomes(reference_problem, np.random.default_rng(7), 5)
    b = random_genomes(reference_problem, np.random.default_rng(7), 5)
    assert a.shape == (5, reference_problem.genome_size)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_problem_rejects_unknown_modes_and_outside_endpoints():
    with pytest.raises(ValueError):
        small_problem(penalty_mode="bogus")
    with pytest.raises(ValueError):
        small_problem(rate_weighting="bogus")
    params = small_system_params()
    with pytest.raises(ValueError) as err:
        LinkProblem(
            params=params, propulsion=None or small_problem().propulsion,
            source=(0, 0, 0), user=(60, 0, 0),
            start=(-500.0, 0.0, 5.0), goal=(55.0, 0.0, 5.0))
    assert "outside the arena" in str(err.value)


# ----------------------------------------------------------------------
# Whole-mission agreement with the independent audit
# ----------------------------------------------------------------------

def test_reference_heuristic_matches_audit(reference_problem):
    report, audit = assert_matches_audit(
        reference_problem, reference_problem.heuristic_mean())
    assert report.feasible
    assert report.worst_violation == 0.0


def test_reference_random_genomes_match_audit(reference_problem):
    rng = np.random.default_rng(42)
    for _ in range(8):
        genome = reference_problem.adjust(
            rng.uniform(size=reference_problem.genome_size))
        assert_matches_audit(reference_problem, genome)


def test_tiny_random_genomes_match_audit(tiny_problem):
    rng = np.random.default_rng(43)
    for _ in range(8):
        genome = tiny_problem.adjust(
            rng.uniform(size=tiny_problem.genome_size))
        assert_matches_audit(tiny_problem, genome)


def test_delta_weighting_matches_audit_and_scales_rates():
    literal = small_problem(rate_weighting="literal")
    delta = small_problem(rate_weighting="delta")
    rng = np.random.default_rng(2)
    genome = literal.adjust(rng.uniform(size=literal.genome_size))
    assert_matches_audit(delta, genome)
    split = genome[literal.split_offset:]
    lit_table = literal.evaluate(genome).table
    del_table = delta.evaluate(genome).table
    assert np.array_equal(lit_table.rate_down_bps, del_table.rate_down_bps)
    assert np.allclose(
        del_table.weighted_rate_down_bps,
        lit_table.rate_down_bps * split, rtol=1e-15, atol=0)
    assert np.allclose(
        del_table.weighted_rate_up_bps,
        lit_table.rate_up_bps * split, rtol=1e-15, atol=0)


def test_slot_table_matches_audit_per_slot(reference_problem):
    genome = reference_problem.adjust(
        np.random.default_rng(3).uniform(size=reference_problem.genome_size))
    audit = audit_genome(reference_problem, genome)
    table = reference_problem.evaluate(genome).table
    for i, slot in enumerate(audit["slots"]):
        assert math.isclose(table.d_su_m[i], slot["d_su"], rel_tol=1e-12)
        assert math.isclose(table.d_du_m[i], slot["d_du"], rel_tol=1e-12)
        assert math.isclose(table.speed_mps[i], slot["speed"],
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(table.correlation[i], slot["correlation"],
                            rel_tol=0, abs_tol=1e-12)
        assert math.isclose(table.rate_up_bps[i], slot["rate_up"], rel_tol=1e-11)
        assert math.isclose(table.rate_down_bps[i], slot["rate_down"],
                            rel_tol=1e-11)
        assert math.isclose(table.harvested_j[i], slot["harvest"], rel_tol=1e-11)
        assert math.isclose(table.fly_j[i], slot["fly"], rel_tol=1e-11)
        assert math.isclose(table.backscatter_j[i], slot["backscatter"],
                            rel_tol=1e-12, abs_tol=1e-18)
        assert math.isclose(table.cache_j[i], slot["cache"],
                            rel_tol=1e-12, abs_tol=1e-18)


def test_always_active_split_breaks_energy_balance(reference_problem):
    # With the tag active the whole mission nothing is harvested, so the
    # energy margin must go negative and flip feasibility.
    genome = reference_problem.heuristic_mean()
    genome[reference_problem.split_offset:] = 1.0
    report, audit = assert_matches_audit(reference_problem, genome)
    assert not report.feasible
    assert report.margins["energy"] < 0.0
    assert report.worst_violation > 0.0


@pytest.mark.parametrize("name", ["tiny_problem", "reference_problem"])
def test_literal_mode_makes_a_zero_split_optimal(request, name):
    # Under literal weighting the split reads only into the energy
    # balance, where it costs harvest and adds consumption, so zeroing
    # every split gene keeps the rate and never loses feasibility.
    problem = request.getfixturevalue(name)
    assert problem.rate_weighting == "literal"
    rng = np.random.default_rng(20261018)
    near = problem.heuristic_mean() + rng.normal(
        0.0, 0.03, size=(40, problem.genome_size))
    near[:, problem.split_offset:] = rng.uniform(size=(40, problem.n_slots))
    genomes = np.vstack([problem.adjust(near),
                         random_genomes(problem, rng, 40)])
    feasible = 0
    for genome in genomes:
        zeroed = genome.copy()
        zeroed[problem.split_offset:] = 0.0
        before, after = problem.evaluate(genome), problem.evaluate(zeroed)
        assert after.objective_bps == before.objective_bps
        assert after.report.margins["energy"] >= \
            before.report.margins["energy"]
        assert after.report.feasible or not before.report.feasible
        feasible += before.report.feasible
    assert feasible >= 10


def test_speed_margin_reflects_longest_hop(reference_problem):
    genome = reference_problem.heuristic_mean()
    sol = reference_problem.evaluate(genome)
    hops = hop_lengths(sol.trajectory)
    max_hop = (reference_problem.params.max_speed_mps
               * reference_problem.params.slot_duration_s)
    report = sol.report
    assert math.isclose(report.margins["speed"],
                        float(np.min(max_hop - hops)), rel_tol=1e-12)


# ----------------------------------------------------------------------
# Fitness mapping
# ----------------------------------------------------------------------

def test_fitness_of_feasible_solution_is_negated_objective():
    assert fitness_reference(123.5, True, 0.0) == -123.5
    assert fitness_reference(0.0, True, 0.0) == 0.0


def test_fitness_safe_mode_penalizes_by_violation():
    assert PENALTY_SCALE_REF == PENALTY_SCALE
    assert fitness_reference(500.0, False, 0.25) == PENALTY_SCALE * 1.25
    # Worse violations sort strictly worse.
    assert fitness_reference(0.0, False, 0.3) > \
        fitness_reference(0.0, False, 0.2)


def test_fitness_paper_mode_is_constant_for_infeasible():
    assert fitness_reference(500.0, False, 0.25, "paper") == -1.0
    assert fitness_reference(0.0, False, 99.0, "paper") == -1.0


def test_fitness_rejects_unknown_mode():
    with pytest.raises(ValueError):
        fitness_reference(1.0, False, 0.0, "bogus")


def test_safe_penalty_always_loses_to_feasible(reference_problem):
    genome = reference_problem.heuristic_mean()
    feasible = reference_problem.evaluate(genome)
    bad = genome.copy()
    bad[reference_problem.split_offset:] = 1.0
    infeasible = reference_problem.evaluate(bad)
    assert feasible.fitness < infeasible.fitness
    assert infeasible.fitness >= PENALTY_SCALE

    # Scalar and batch fitness both follow the reference map, in each mode.
    p = reference_problem
    for mode in ("safe", "paper"):
        problem = LinkProblem(p.params, p.propulsion, p.source, p.user,
                              p.start, p.goal, penalty_mode=mode)
        batch = problem.evaluate_batch(np.stack([genome, bad]))
        for k, g in enumerate((genome, bad)):
            ev = problem.evaluate(g)
            assert ev.report.feasible == (k == 0)
            want = fitness_reference(ev.objective_bps, ev.report.feasible,
                                     ev.report.worst_violation, mode)
            assert ev.fitness == want
            assert batch.fitness[k] == want


# ----------------------------------------------------------------------
# Evaluation entry points
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.2, -0.1])
def test_evaluate_batch_rejects_non_finite_genes(tiny_problem, bad):
    # Finite genes outside the box fail the same shared check.
    message = ("genome genes must be finite" if not np.isfinite(bad)
               else r"genome genes must lie in \[0, 1\]")
    genome = tiny_problem.heuristic_mean()
    stack = np.stack([genome, genome])
    stack[1, tiny_problem.split_offset - 2] = bad
    with pytest.raises(ValueError, match=message):
        tiny_problem.evaluate_batch(stack)
    stack[1] = genome
    stack[0, -1] = bad
    with pytest.raises(ValueError, match=message):
        tiny_problem.evaluate_batch(stack)
    # The scalar entry point rejects the same genome.
    with pytest.raises(ValueError):
        tiny_problem.evaluate(stack[0])


def test_evaluate_batch_agrees_with_scalar_evaluate(reference_problem):
    rng = np.random.default_rng(5)
    genomes = reference_problem.adjust(
        rng.uniform(size=(6, reference_problem.genome_size)))
    batch = reference_problem.evaluate_batch(genomes)
    assert batch.genomes.shape == genomes.shape
    for i in range(genomes.shape[0]):
        single = reference_problem.evaluate(genomes[i])
        assert batch.fitness[i] == single.fitness
        assert batch.objectives[i] == single.objective_bps
        assert batch.feasible[i] == single.report.feasible
        assert batch.worst_violation[i] == single.report.worst_violation


FAULTS_PER_CALL = """
import resource, sys
import numpy as np
from uavbsc.config import ScenarioConfig
problem = ScenarioConfig.load(sys.argv[1]).build_problem()
rows = problem.adjust(np.random.default_rng(0).random((1024, problem.genome_size)))
for _ in range(3):
    problem.evaluate_batch(rows)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    problem.evaluate_batch(rows)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's heap trimming")
def test_warm_evaluate_batch_calls_fault_no_memory_in():
    # In a fresh interpreter, so that no earlier free has raised glibc's trim
    # threshold: building the problem must raise it.  Without that, each call
    # of 1,024 reference rows faults in about a hundred freed pages again.
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_CALL, str(REFERENCE_CONFIG)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 10


BATCH_FIELDS = ("genomes", "objectives", "fitness", "feasible",
                "worst_violation")


@pytest.mark.parametrize("problem_name", ["tiny_problem", "reference_problem"])
@pytest.mark.parametrize("near_heuristic", [False, True])
def test_stacked_evaluate_batch_equals_separate_calls_bitwise(
        request, problem_name, near_heuristic):
    # Stacked solver loops evaluate several seeds' blocks in one call;
    # this is only sound if every row's result is independent of its stack.
    problem = request.getfixturevalue(problem_name)
    rng = np.random.default_rng(41)
    for trial in range(5):
        sizes = [int(n) for n in rng.integers(1, 121, size=4)] + [1]
        if near_heuristic:
            blocks = [problem.adjust(problem.heuristic_mean()
                                     + rng.normal(0.0, 0.05, size=(n, problem.genome_size)))
                      for n in sizes]
        else:
            blocks = [random_genomes(problem, rng, n) for n in sizes]
        stacked = problem.evaluate_batch(np.vstack(blocks))
        ends = np.cumsum(sizes)
        for block, end in zip(blocks, ends):
            alone = problem.evaluate_batch(block)
            rows = slice(end - len(block), end)
            for name in BATCH_FIELDS:
                got, want = getattr(stacked, name)[rows], getattr(alone, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (trial, name)


def _variant(problem, **modes):
    """``problem`` with its penalty / weighting / altitude modes replaced."""
    return LinkProblem(problem.params, problem.propulsion, problem.source,
                       problem.user, problem.start, problem.goal, **modes)


@pytest.mark.parametrize("modes", [{"penalty_mode": "paper"},
                                   {"rate_weighting": "delta"}])
def test_blocks_of_problems_with_another_geometry_are_refused(tiny_problem,
                                                              modes):
    other = _variant(tiny_problem, **modes)
    block = tiny_problem.heuristic_mean()[None]
    with pytest.raises(ValueError, match="share a geometry"):
        evaluate_blocks([tiny_problem, other], [block, block])
    moved = LinkProblem(tiny_problem.params, tiny_problem.propulsion,
                        tiny_problem.source, tiny_problem.user,
                        tiny_problem.start + [1.0, 0.0, 0.0], tiny_problem.goal)
    with pytest.raises(ValueError, match="share a geometry"):
        evaluate_blocks([tiny_problem, moved], [block, block])


def _probe_stacks(problem, rng):
    """Genome stacks of ragged size: uniform, 0/1-edge, near-heuristic
    with genes clamped to exactly 0.0 and 1.0, and a repeated heuristic."""
    dim = problem.genome_size
    mean = problem.heuristic_mean()
    for b in (1, 2, 3, 17, 128, 311, 1000):
        yield random_genomes(problem, rng, b)
        yield problem.adjust(rng.integers(0, 2, size=(b, dim)).astype(float))
        yield problem.adjust(mean + rng.normal(0.0, 0.6, size=(b, dim)))
        yield np.tile(mean, (b, 1))


@pytest.mark.parametrize("problem_name", ["tiny_problem", "reference_problem"])
@pytest.mark.parametrize("penalty_mode", ["safe", "paper"])
@pytest.mark.parametrize("rate_weighting", ["literal", "delta"])
@pytest.mark.parametrize("fixed_altitude", [True, False])
def test_axis_layout_matches_per_point_reference_bitwise(
        request, problem_name, penalty_mode, rate_weighting, fixed_altitude):
    # Evaluation decodes waypoints axis by axis; it must give the bits of
    # the (B, N+1, 3) layout it replaced, kept in oracles.py.
    problem = _variant(request.getfixturevalue(problem_name),
                       penalty_mode=penalty_mode,
                       rate_weighting=rate_weighting,
                       fixed_altitude=fixed_altitude)
    rng = np.random.default_rng(2024)
    for genomes in _probe_stacks(problem, rng):
        got = problem.evaluate_batch(genomes)
        want = per_point_evaluate(problem, genomes)
        for name, key in (("objectives", "objective"), ("fitness", "fitness"),
                          ("feasible", "feasible"),
                          ("worst_violation", "worst")):
            field = getattr(got, name)
            assert field.dtype == want[key].dtype, name
            assert field.tobytes() == want[key].tobytes(), (len(genomes), name)
        # Scalar evaluate, slot table included, shares the same pass;
        # spot-check the first and last rows.
        for row in {0, len(genomes) - 1}:
            sol = problem.evaluate(genomes[row])
            assert sol.trajectory.waypoints.tobytes() == \
                want["waypoints"][row].tobytes()
            assert sol.fitness == want["fitness"][row]
            assert sol.objective_bps == want["objective"][row]
            assert sol.report.feasible == want["feasible"][row]
            assert sol.report.worst_violation == want["worst"][row]
            for name in MARGIN_NAMES:
                assert np.float64(sol.report.margins[name]).tobytes() == \
                    want[name][row].tobytes(), name
            table = sol.table
            for attr, key in (("d_su_m", "d_su"), ("d_du_m", "d_du"),
                              ("hop_m", "hops"), ("speed_mps", "speeds"),
                              ("correlation", "correlation"),
                              ("rate_up_bps", "rate_up"),
                              ("rate_down_bps", "rate_down"),
                              ("weighted_rate_up_bps", "weighted_up"),
                              ("weighted_rate_down_bps", "weighted_down"),
                              ("harvested_j", "harvest"), ("fly_j", "fly"),
                              ("backscatter_j", "backscatter"),
                              ("cache_j", "cache")):
                assert getattr(table, attr).tobytes() == \
                    want["tables"][key][row].tobytes(), attr


def test_evaluate_returns_full_solution(reference_problem):
    genome = reference_problem.heuristic_mean()
    sol = reference_problem.evaluate(genome)
    assert sol.genome is not genome  # defensive copy
    assert np.array_equal(sol.genome, genome)
    assert sol.trajectory.n_slots == reference_problem.n_slots
    assert sol.fitness == -sol.objective_bps
    assert set(sol.report.margins) == set(MARGIN_NAMES)


def test_feasibility_report_to_dict_round_trip(reference_problem):
    genome = reference_problem.heuristic_mean()
    report = reference_problem.evaluate(genome).report
    d = report.to_dict()
    assert d["feasible"] is True
    assert set(d["margins"]) == set(MARGIN_NAMES)
    assert isinstance(d["worst_violation"], float)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key, value", [("reference_gain_db", 3000),
                                        ("path_loss_exponent", 300),
                                        ("bandwidth_hz", 1e308)])
def test_overflowing_rates_never_give_nan_fitness(key, value):
    # Each scenario loads, but its rates overflow and the margins become
    # inf - inf; such a mission must rank last, not carry NaN.
    doc = json.loads(TINY_CONFIG.read_text(encoding="utf-8"))
    doc["system"][key] = value
    scenario = ScenarioConfig.from_dict(doc)
    problem = scenario.build_problem()
    ev = problem.evaluate_batch(
        random_genomes(problem, np.random.default_rng(0), 64))
    assert not np.isnan(ev.fitness).any()
    assert not np.isnan(ev.worst_violation).any()
    assert not ev.feasible.any()
    report = run_single(scenario, "random", 0, budget=64).report
    assert report.feasible is False and not math.isnan(report.best.fitness)
