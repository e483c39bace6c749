"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass or
fail line per criterion.  Every tolerance below is part of the
contract; loosening one is a release decision, not a test fix.
"""

import time

import numpy as np

import cisolver.cli as cli
import instances
import reference
from cisolver import serialize
from cisolver.coordinator import (
    PrescriptionSpace,
    message_distribution,
    stage_layout,
)
from cisolver.dp import (
    extract_control_strategy,
    solve_discounted,
    solve_finite,
    solve_finite_reduced,
)
from cisolver.model import ProblemSpec, validate_problem
from cisolver.oracle import (
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
    exact_cost_of_strategy,
)
from cisolver.protocols import control_sharing_protocol
from cisolver.sim import paired_rollout, rollout


def test_criterion_01_static_team_enumeration():
    started = time.perf_counter()
    spec = instances.static_team()
    basic = enumerate_basic_strategies(spec)
    coordinator = enumerate_coordinator_strategies(spec)
    elapsed = time.perf_counter() - started
    assert basic.count == 256
    assert coordinator.count == 32  # 16 prescription pairs per signal value
    assert abs(basic.minimum - coordinator.minimum) <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_solver_matches_both_oracles(seeded_instances):
    started = time.perf_counter()
    for spec in seeded_instances:
        report, _ = solve_finite(spec)
        basic = enumerate_basic_strategies(spec)
        coordinator = enumerate_coordinator_strategies(spec)
        assert abs(report.value - basic.minimum) <= 1e-9
        assert abs(report.value - coordinator.minimum) <= 1e-9
    assert time.perf_counter() - started < 60.0


def test_criterion_03_reduced_variant_is_exact(seeded_instances):
    specs = list(seeded_instances)
    specs.append(instances.periodic_instance(seed=11, T=4, period=2))
    for spec in specs:
        full, _ = solve_finite(spec)
        reduced, _ = solve_finite_reduced(spec)
        assert abs(full.value - reduced.value) <= 1e-9


def test_criterion_04_single_controller_matches_textbook_recursion():
    for seed in (21, 22, 23):
        spec = instances.single_controller_instance(seed)
        report, _ = solve_finite(spec)
        expect = reference.finite_pomdp_value(
            spec.initial_dist, list(spec.transitions),
            list(spec.obs_kernels[0]), list(spec.costs))
        assert abs(report.value - expect) <= 1e-9


def test_criterion_05_beliefs_are_bayes_posteriors():
    for k in range(10):
        spec = instances.filter_instance(k)
        sizes = [stage_layout(spec, t).size for t in range(1, spec.horizon + 1)]
        assert max(sizes) <= 200
        _, tree = solve_finite(spec)
        # depth-first walk over every positive-probability message path,
        # carrying the enumerated trajectory measure along each prefix
        stack = [(node_id, reference.initial_measure(spec))
                 for _, node_id in tree.roots]
        while stack:
            node_id, measure = stack.pop()
            node = tree.node(node_id)
            posterior = reference.normalize_measure(measure)
            enumerated = np.zeros_like(node.belief.weights)
            for (x, ys, ms), p in posterior.items():
                flat = np.ravel_multi_index((x,) + ys + ms, node.belief.dims)
                enumerated[flat] = p
            tv = 0.5 * np.abs(enumerated - node.belief.weights).sum()
            assert tv <= 1e-9
            if node.t < tree.horizon:
                gamma = PrescriptionSpace(spec, node.t).decode(node.gamma_index)
                dist = message_distribution(spec, node.belief, gamma)
                total = sum(dist[z] for z in range(len(dist)))
                assert abs(total - 1.0) <= 1e-9
                for z, child in node.children.items():
                    stack.append((child, reference.extend_measure(
                        spec, measure, gamma.tables, z, node.t)))


def test_criterion_06_extracted_strategies_replay_the_tree(seeded_instances):
    for spec in seeded_instances:
        report, tree = solve_finite(spec)
        strategy = extract_control_strategy(spec, tree)
        paired = paired_rollout(spec, tree, strategy, seed=123, episodes=1000)
        assert paired.identical
        assert paired.divergences == []
        assert abs(exact_cost_of_strategy(spec, strategy)
                   - report.value) <= 1e-9


def test_criterion_07_monte_carlo_agrees_with_the_exact_value(seeded_instances):
    for spec in seeded_instances:
        started = time.perf_counter()
        report, tree = solve_finite(spec)
        sim = rollout(spec, tree, seed=2024, episodes=100_000)
        assert time.perf_counter() - started < 60.0
        assert abs(sim.mean - report.value) <= 4 * sim.stderr
        assert sim.violations == 0


def test_criterion_08_discounted_fixed_point():
    eps = 1e-4
    for beta in (0.5, 0.9):
        spec = instances.discounted_constant(beta)
        report, _ = solve_discounted(spec, epsilon=eps)
        assert abs(report.value - 1.0 / (1.0 - beta)) <= eps

    chain = instances.discounted_chain(0.9)
    report, _ = solve_discounted(chain, epsilon=eps)
    depth = reference.truncation_depth(0.9, eps / 10.0, chain.max_abs_cost)
    expect = reference.discounted_pomdp_value(
        chain.initial_dist, chain.transitions[0], chain.obs_kernels[0][0],
        chain.costs[0], 0.9, depth)
    assert abs(report.value - expect) <= 2 * eps

    finer, _ = solve_discounted(chain, epsilon=eps / 2.0)
    assert abs(finer.value - report.value) < eps


def test_criterion_09_validation_gates(problems_dir):
    for name in ("delayed", "delayed_state", "periodic", "control",
                 "no_sharing"):
        spec = instances.preset_instance(name, T=4)
        assert validate_problem(spec).ok

    _, report = serialize.load_problem(str(problems_dir
                                           / "overlap_protocol.json"))
    assert not report.ok
    assert any(f.code == "memory-message-overlap" for f in report.findings)

    base = instances.discounted_constant(0.5)
    growing = ProblemSpec(
        n=base.n, mode="discounted", horizon=None, discount=0.5,
        state_space=base.state_space, obs_spaces=base.obs_spaces,
        action_spaces=base.action_spaces, initial_dist=base.initial_dist,
        transitions=base.transitions, obs_kernels=base.obs_kernels,
        costs=base.costs,
        protocol=control_sharing_protocol(2, list(base.obs_spaces),
                                          list(base.action_spaces)))
    assert not validate_problem(growing).ok


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path, problems_dir):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    chain = str(problems_dir / "discounted_chain.json")
    team = str(problems_dir / "static_team.json")
    policy = tmp_path / "policy.json"
    assert cli.main(["solve", problem, "--output", str(policy)]) == 0

    def run_twice(stem, argv):
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{stem}_{tag}.json"
            assert cli.main(argv + ["--output", str(path)]) == 0
            blobs.append(path.read_bytes())
        return blobs

    commands = [
        ("solve_full", ["solve", problem]),
        ("solve_reduced", ["solve", problem, "--variant", "reduced"]),
        ("solve_discounted", ["solve", chain]),
        ("enumerate", ["enumerate", team]),
        ("simulate", ["simulate", problem, str(policy),
                      "--episodes", "400", "--seed", "5"]),
    ]
    for stem, argv in commands:
        first, second = run_twice(stem, argv)
        assert first == second

