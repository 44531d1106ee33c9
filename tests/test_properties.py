"""Property tests: the genome repair map, the genome codec and the one
best-so-far rule, each checked on inputs Hypothesis draws.

Every test is derandomized, so a run of the suite draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import REFERENCE_CONFIG, TINY_CONFIG, small_problem
from uavbsc.common import Incumbent
from uavbsc.config import ScenarioConfig
from uavbsc.encoding import normalize

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


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_adjust_is_an_idempotent_repair(name):
    problem = PROBLEMS[name]
    frozen = problem.frozen_gene_indices()
    pinned = normalize(problem.params.altitude_m, *problem.params.bounds_m[2])

    @checked
    @given(raw_genes(problem))
    def check(genes):
        once = problem.adjust(genes)
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
        back = problem.encode(traj, split)
        assert np.allclose(back, genome, rtol=0.0, atol=1e-12)
        assert np.array_equal(back[problem.split_offset:],
                              genome[problem.split_offset:])

    check()


# Few distinct levels, so that ties on fitness and on worst violation
# are common.
_LEVEL = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
_BLOCKS = st.lists(st.lists(st.tuples(_LEVEL, _LEVEL), min_size=1,
                            max_size=6), min_size=1, max_size=6)


@checked
@given(_BLOCKS)
def test_incumbent_picks_the_first_of_a_sort_by_fitness_then_worst(blocks):
    best = Incumbent()
    offered = []
    for block in blocks:
        tags = np.arange(len(offered), len(offered) + len(block),
                         dtype=np.float64)[:, None]
        offered += block
        best.offer(tags, np.array([f for f, _ in block]),
                   np.array([w for _, w in block]))
    winner = min(range(len(offered)),
                 key=lambda i: (offered[i][0], offered[i][1], i))
    assert best.genome[0] == winner
    assert (best.fitness, best.worst) == offered[winner]
