"""Golden gate: pinned run artifacts and stacked/one-run agreement.

Each hash is the SHA-256 of one ``run_single`` artifact as
``to_dict(include_timing=False)`` gives it, serialized with sorted keys.
They pin every solver's output bit for bit, so any change to a draw, an
operator or the evaluation pipeline that alters results shows up here.
The hashes were computed with numpy 2.4 on x86-64; a numpy build whose
math routines round differently changes them without any code change.
So does the CPU: with the same numpy build, the ``power`` and ``log2``
kernels numpy picks at run time (AVX-512 or its baseline) change 4 of
the 24 hashes of each table (tiny/ga seed 1, reference/ga seeds 0 and 2,
reference/random seed 2), which fails 9 of the golden cases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from uavbsc.common import drive
from uavbsc.config import ScenarioConfig
from uavbsc.encoding import LinkProblem
from uavbsc.harness import (
    SweepSpec,
    _run_group,
    run_campaign,
    run_single,
    run_sweep,
)

from helpers import REFERENCE_CONFIG, TINY_CONFIG

BUDGET = 3000
SEEDS = (0, 1, 2)

GOLDEN = {
    ("tiny", "ga"): [
        "b661b423e2c91490b29541d76535b9920d43633ca5a19e0535e4fcc161a55f08",
        "ece5dbc9589bd736db0d058ef4484c79cd07a84fe7076584102b7f5021c8390e",
        "0d5fbaad21f5906c6cea82bb3800f187ac64ad8de2526f3388ceab1e3fc2b28e",
    ],
    ("tiny", "ipso"): [
        "910124b01f9fd2a890b34eb0408be83fcb813865284a400735ffac34269ad8e2",
        "bab90e29a25c3365da502b2f286e6687f96cb744d73c64319295af6e79672743",
        "a5a56f6b3fcb28547905a45f953b511f489d542e0955fd08e35ff50a95a11959",
    ],
    ("tiny", "pso"): [
        "194edd96f522f70fffc1646caabeeadab52f4e0ce8e680b97813a2407d7fd4e5",
        "88cd89b741f174610d6270ad66a2e4f83e4decb1c51e172fd1c1793ebcf65d32",
        "30725472b0d557c0eb76fe5c19a4d50673a8e8c8ec5f50fca5d4277ad2466471",
    ],
    ("tiny", "random"): [
        "e5723185b6c0ffc49c10d3d96f4aee2b4598f5c4c85165f60066ca41e7ef8574",
        "54332aa7a610a451f287fddec477f35115f57625b97fb3fc78ba280205f477e8",
        "e45c1fd77110e50c15aca7ffd134aa21eef7e90650f08a6f07b50f1ba086168f",
    ],
    ("reference", "ga"): [
        "df9d04a4f008f855cf7510ba4400c8bdf43acb964ab770c542def39cfd11069a",
        "4f97448be7a60debcd75de313fc9a365b0b55e0e560a83f5db11c610eaac4f6a",
        "26b6a879534b6d4eb46769982ac85afb965f78832be9f6353943a692e278ed0a",
    ],
    ("reference", "ipso"): [
        "7225adbd0f9e7265a7407e2555c06d3d2c50d13390a01c848e831ca040a81f21",
        "77d18a9d24f233f8eeb73dd1c9c7aa26f7165d195c689c34853d123e7f319942",
        "90b843fd1a43cbba386150453d7a66e12641cb88b5a43bc973cfd11a4061ebf7",
    ],
    ("reference", "pso"): [
        "24069080ab1b71c791aee41c1d7b48c71b98272a67f209ea97b32e17574a5856",
        "8eb22b16cca0f13e8cb9db0eb8185d17c3b55c26a17d99ac24585f381adfed20",
        "c3d3f60b7a7adac79e4bebcb1b1dc18d5c75092c5c7cd20a6eed90d10b443849",
    ],
    ("reference", "random"): [
        "0bdb15eb2a2dd21d5f22993665e4367c42703bf588b879ab4ba76e5b3d7dcb15",
        "192126bb1ec0e87fdbaf92b367753368cda2ef8642ed829a9b2b6b90911a4f72",
        "7e2a6e2f37f75b58d747656da3bb48b670f2a4d5a135b3348ed86a3b50bff08a",
    ],
}

# The hashes before ``report.config`` dropped two settings no caller set:
# ``init_mean`` and ``inertia_const``.
PARENT_GOLDEN = {
    ("tiny", "ga"): [
        "738d9d1cedad72b9b11e6046a96ee5f403a0dc12119e0fc4b9a56f316826a026",
        "97e65921ddc9bac37954071f474086bf97ea872bb111d22b80e4c618de404cc5",
        "fe5f6bd2260c7e81747c25b0b4ded7c5c52e906d2e06fbb2a4520ccf934421f1",
    ],
    ("tiny", "ipso"): [
        "6bda915386d4f7e4d74a999e36cf7bda8a1c88940b93dbf9e1df90cf54717ffc",
        "61d6b804b4ad51bbc06bbd5d75220b329a29f69485a168710aad29fac685cc3b",
        "2d8cd8d95a5b25a3122df52b153ccb3f68a275eeb051e671cfe359a7888278ab",
    ],
    ("tiny", "pso"): [
        "38383b5b41164bc231c5b5974ba05ff4ab53494edde3962767f72060ddea08bf",
        "5abc344b4c2c5147072c4aa6c7f6ae786d1c47c4b434b996b6bdf5123565897d",
        "ea705298c7a77a4fed75c003b5d98be3e09fd54268ed86024bde0c9926039552",
    ],
    ("tiny", "random"): [
        "e5723185b6c0ffc49c10d3d96f4aee2b4598f5c4c85165f60066ca41e7ef8574",
        "54332aa7a610a451f287fddec477f35115f57625b97fb3fc78ba280205f477e8",
        "e45c1fd77110e50c15aca7ffd134aa21eef7e90650f08a6f07b50f1ba086168f",
    ],
    ("reference", "ga"): [
        "62a60dcddab38cd74372d6d59a980761620ee82b431665cf19d97b7407211c8a",
        "0108581c14a8315903bc716c9c75d9c77afb07ac45492e5f029e0d5c97f98bbf",
        "0a599e42eb4de22db54d54ec295015ee64377669cb44e99c6c5d1f9c391ee3ce",
    ],
    ("reference", "ipso"): [
        "575f6b3534b4b9cafda38a2eb7f99b8817ce2e97ffec52e8011fc3fc18847c4a",
        "502eee716af754d0074dc888a89be277b480e7b2941caecbbe047b0da07384fc",
        "95196026ed982086cc567b00b43a475085426e177e4924c7a3b93d06f0a63e8f",
    ],
    ("reference", "pso"): [
        "bf55d23c90dc1317e015220a879725be224c67e068871d1f0633ee56c11beeb4",
        "9f248aa09dca525b5e776700dda55268e92137bc7a3cd9a2d32f53fc1dc8c9ac",
        "1dd4a5b821c701e6b5c9c6e1362a37c159deb5439aa55de773379b411cb727b1",
    ],
    ("reference", "random"): [
        "0bdb15eb2a2dd21d5f22993665e4367c42703bf588b879ab4ba76e5b3d7dcb15",
        "192126bb1ec0e87fdbaf92b367753368cda2ef8642ed829a9b2b6b90911a4f72",
        "7e2a6e2f37f75b58d747656da3bb48b670f2a4d5a135b3348ed86a3b50bff08a",
    ],
}

# The hashes before that, when artifacts also held ``convergence_speed_bps``
# (the achieved rate over the last improving generation, whose generations
# differ in size between solvers).
GRANDPARENT_GOLDEN = {
    ("tiny", "ga"): [
        "043e2ae7c330615918cf64ba1948cdba64852e7985c4aeb0b79c8c5262a790d5",
        "4eebc581f9c5643ac270fe15f16f46a93f35a8db712ea3b621cddab60415f3a7",
        "0c4410601e7b6ed100167bd6da8b1c5a011dc977aed7b981d94c29c74d50fe85",
    ],
    ("tiny", "ipso"): [
        "20176c8028be4a4728c71bc2bd2ab2d076b20ff20e07783fac4016d6689919eb",
        "ff09101d31411c1e787107e69e258d8856c3bcb8762ef8d1d163d2ed7b0d6abb",
        "1aaad11121d352f69ae29e791d712c62e05a08e3837789ae12a95c6aba5bc7bf",
    ],
    ("tiny", "pso"): [
        "8da909a5ce4cbc04feba598e4766effdb42a5d4620bf85a532f5b379b1c38e62",
        "74e5e39e0af7444b3116d4d3464e5f2aab1fb593a4c1b99173aee49916bf967c",
        "724ecd228e7c11f99732fa399e33471aaac6604741e5b7cfcec0e9db6de1cd75",
    ],
    ("tiny", "random"): [
        "50886383b3860063e006bfdcfddf4f242725ce73dd080ecffa32d2b8fd2e9fbc",
        "95f855c0fcd5630f2ac30b803a3f0beee8ecbbb77fbdbf5296df749408418417",
        "87acc020611611d2755bfb7af73c7649bec3db481e5fcbf85fe2b633cd0ddb3f",
    ],
    ("reference", "ga"): [
        "9f33e39c79427beba8af720e317d32ea238ac1cc59beaeff3a022ae8dcaac1cd",
        "546252af78db085c46d81ebd38945712ad94c1e6ac67f11e5680d1036ac8e2af",
        "968f6560684a89e0a2d4bf0ca87c1990025754cc0a25fd2013dc6c0ef4ec3bc0",
    ],
    ("reference", "ipso"): [
        "135c647a6ea65a2d75654238c6c46b341c58054a6c063e1d96e53f94a680e614",
        "cb4a0c5ed92c0dcfea97b6f6869a2dfab79a2e6a8aafd0c33afa1283cfe4b981",
        "0b58d97e59c70cf0c69d020395080a97e4cb06f7da8af9c9f80eee7986647bf1",
    ],
    ("reference", "pso"): [
        "9b4dd5bd78e28662d9588a70ee597f0d62c19075638f41027f5fa52373921b2e",
        "ff94428a199165e057e43bd9857133aa806edc2e25ce2a56c7b785947efbd61b",
        "91e32c31ed040ed71a743294b7ba93a280bb738a55558feb7ec5572cbd077ad6",
    ],
    ("reference", "random"): [
        "147a032bbc31752a013f49878936dc476ee77220ef8d10533d89c549ecd39268",
        "9d5d904bfebd832b6698e7e2b3176e539815dd5f339e7eb4a004c155c06452ef",
        "efc35220cf0b31be3490c1f850ae3364bfe5242630d7ec7822aa818f393c0ca7",
    ],
}


# The config keys each solver's report dropped, with the one value every
# run held there.
DELETED_CONFIG = {
    "ga": {"init_mean": None},
    "ipso": {"init_mean": None, "inertia_const": 0.9},
    "pso": {"init_mean": None, "inertia_const": 0.9},
    "random": {},
}

# Each solver's ``report.config`` keys, in order.
SWARM_KEYS = ["variant", "swarm_size", "iterations", "cognitive_coeff",
              "social_coeff", "inertia_max", "inertia_min", "inertia_exponent",
              "mutation_prob", "velocity_clamp", "init_std", "seed",
              "max_evaluations"]
CONFIG_KEYS = {
    "ga": ["population_size", "generations", "crossover_rate", "mutation_rate",
           "mutation_spread", "elite_fraction", "stall_limit", "init_std",
           "seed", "max_evaluations"],
    "ipso": SWARM_KEYS,
    "pso": SWARM_KEYS,
    "random": ["chunk_size"],
}


def data_hash(data) -> str:
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_hash(artifact) -> str:
    return data_hash(artifact.to_dict(include_timing=False))


def parent_data(artifact) -> dict:
    """``artifact.to_dict(include_timing=False)`` with the deleted config
    keys put back, as the parent wrote it."""
    data = artifact.to_dict(include_timing=False)
    data["report"]["config"].update(DELETED_CONFIG[artifact.solver])
    return data


@pytest.fixture(scope="module")
def scenarios():
    return {"tiny": ScenarioConfig.load(TINY_CONFIG),
            "reference": ScenarioConfig.load(REFERENCE_CONFIG)}


@pytest.mark.parametrize("config", ["tiny", "reference"])
@pytest.mark.parametrize("solver", ["ga", "ipso", "pso", "random"])
def test_run_artifacts_match_golden_hashes(scenarios, config, solver):
    got = [artifact_hash(run_single(scenarios[config], solver, seed,
                                    budget=BUDGET))
           for seed in SEEDS]
    assert got == GOLDEN[config, solver]


@pytest.mark.parametrize("solver", ["ga", "ipso", "pso", "random"])
def test_report_config_has_exactly_its_keys(tiny_scenario, solver):
    report = run_single(tiny_scenario, solver, 0, budget=600).report
    assert list(report.config) == CONFIG_KEYS[solver]


@pytest.mark.parametrize("config", ["tiny", "reference"])
@pytest.mark.parametrize("solver", ["ga", "ipso", "pso", "random"])
def test_artifacts_equal_the_parents_without_deleted_config_keys(
        scenarios, config, solver):
    got = [data_hash(parent_data(run_single(scenarios[config], solver, seed,
                                            budget=BUDGET)))
           for seed in SEEDS]
    assert got == PARENT_GOLDEN[config, solver]


@pytest.mark.parametrize("config", ["tiny", "reference"])
@pytest.mark.parametrize("solver", ["ga", "ipso", "pso", "random"])
def test_artifacts_equal_the_parents_without_convergence_speed(
        scenarios, config, solver):
    got = []
    for seed in SEEDS:
        artifact = run_single(scenarios[config], solver, seed, budget=BUDGET)
        data = parent_data(artifact)
        assert "convergence_speed_bps" not in data
        report = artifact.report
        data["convergence_speed_bps"] = (
            max(report.achieved_rate_bps, 0.0)
            / max(1, report.last_improvement_generation))
        got.append(data_hash(data))
    assert got == GRANDPARENT_GOLDEN[config, solver]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("solvers, seeds", [
    (["ga", "ipso", "pso", "random"], [0, 1, 2]),
    (["random", "ipso"], [4, 1, 4]),
    (["ga"], [7, 7]),
])
def test_campaign_equals_per_seed_run_single(tiny_scenario, workers,
                                             solvers, seeds):
    arts = run_campaign(tiny_scenario, solvers, seeds, budget=600,
                        workers=workers)
    expected = [run_single(tiny_scenario, solver, seed, budget=600)
                for solver in solvers for seed in seeds]
    assert [(a.solver, a.seed) for a in arts] == \
        [(e.solver, e.seed) for e in expected]
    assert [a.to_dict(include_timing=False) for a in arts] == \
        [e.to_dict(include_timing=False) for e in expected]


def _untimed(artifacts):
    return [a.to_dict(include_timing=False) for a in artifacts]


@pytest.fixture
def evaluate_batch_calls(monkeypatch):
    """Count the calls of ``LinkProblem.evaluate_batch``."""
    calls = []
    evaluate_batch = LinkProblem.evaluate_batch

    def counting(self, genomes):
        calls.append(len(genomes))
        return evaluate_batch(self, genomes)

    monkeypatch.setattr(LinkProblem, "evaluate_batch", counting)
    return calls


@pytest.mark.parametrize("seeds", [[1, 2, 3, 5], [4, 1, 4]],
                         ids=["distinct", "duplicates"])
def test_fused_slice_equals_each_group_alone(tiny_scenario, seeds,
                                             evaluate_batch_calls):
    # GA seeds that stall at different generations, IPSO at an odd
    # budget, and random search, whose four blocks end first: the loops
    # leave the fused slice at different ticks.
    scenario = tiny_scenario.with_value(
        "solvers.ga", {"population_size": 20, "stall_limit": 3})
    solvers = ["ga", "ipso", "random"]
    fused = run_campaign(scenario, solvers, seeds, budget=777)
    fused_calls = len(evaluate_batch_calls)
    alone, ticks = [], []
    for solver in solvers:
        start = len(evaluate_batch_calls)
        alone += run_campaign(scenario, solver, seeds, budget=777)
        ticks.append(len(evaluate_batch_calls) - start)
    assert _untimed(fused) == _untimed(alone)
    assert _untimed(fused) == _untimed(
        [run_single(scenario, a.solver, a.seed, budget=777) for a in fused])
    assert len(set(ticks)) == len(solvers), ticks
    assert fused_calls == max(ticks)  # one evaluation per tick


def test_a_group_failing_at_its_first_block_fails_the_fused_slice(
        tiny_scenario):
    spec = SweepSpec("solvers.ga", [{"population_size": 500}],
                     ["random", "ga", "ipso"], [0, 1], budget=200)
    varied = tiny_scenario.with_value("solvers.ga", spec.values[0])
    with pytest.raises(ValueError, match="cannot fit one population") as caught:
        run_campaign(varied, spec.solvers, spec.seeds, budget=spec.budget)
    (point,) = run_sweep(tiny_scenario, spec)
    assert point.error == str(caught.value)
    assert point.artifacts == []


def _stacked_and_alone(scenario, problem, solver, seeds, budget, overrides):
    """Reports of ``seeds`` as one stacked loop, and of each seed alone,
    each loop started from the solver's row of the table as a campaign
    starts it, with ``overrides`` as the solver's settings."""
    scenario = dataclasses.replace(scenario, solver_overrides={solver: overrides})

    def loop(group):
        return _run_group(scenario, solver, group, budget, problem)
    return (drive([loop(seeds)], [problem])[0][0],
            [drive([loop([seed])], [problem])[0][0][0] for seed in seeds])


def _mutants_per_iteration(report):
    """Mutants each iteration's pass evaluated, from a swarm's trace."""
    counts = [b.evaluations - a.evaluations
              for a, b in zip(report.trace, report.trace[1:])]
    return [n - report.trace[0].evaluations // 2 for n in counts]


@pytest.mark.parametrize("budget", [3000, 777])
@pytest.mark.parametrize("case, solver, seeds, overrides", [
    pytest.param(*case, id=case[0]) for case in [
        # GA seeds that stall at different generations.
        ("ga_stall", "ga", [1, 2, 3, 5],
         {"population_size": 20, "stall_limit": 3}),
        # IPSO seeds whose mutation counts differ, so that their budgets
        # run out at different iterations.
        ("ipso_budget", "ipso", [0, 1, 2, 3],
         {"swarm_size": 12, "mutation_prob": 0.3}),
        # Mutation passes in which some seed moves no row.
        ("ipso_unmoved", "ipso", [0, 1, 2, 3],
         {"swarm_size": 4, "mutation_prob": 0.05}),
        ("ga_duplicates", "ga", [4, 1, 4], {"population_size": 10}),
        ("pso_duplicates", "pso", [4, 1, 4], {"swarm_size": 10}),
        ("random_duplicates", "random", [4, 1, 4], {}),
    ]])
def test_stacked_loop_equals_each_seed_alone(tiny_scenario, tiny_problem, budget,
                                             case, solver, seeds, overrides):
    stacked, alone = _stacked_and_alone(tiny_scenario, tiny_problem, solver,
                                        seeds, budget, overrides)
    assert [r.to_dict() for r in stacked] == [r.to_dict() for r in alone]
    assert [r.seed for r in stacked] == seeds
    lengths = {len(r.trace) for r in alone}
    if case in ("ga_stall", "ipso_budget"):
        assert len(lengths) > 1, lengths  # the stack shrinks mid-run
    if case == "ipso_unmoved":
        # Two seeds mutate at one iteration: one moves no row, one some.
        passes = [_mutants_per_iteration(r) for r in alone]
        assert any(0 in column and max(column) > 0
                   for column in zip(*passes))
