import ast
import hashlib
import pathlib

import numpy as np
import pytest

import instances
from cisolver import oracle, serialize
from cisolver.dp import extract_control_strategy, solve_finite
from cisolver.errors import (
    Infeasible,
    InvalidParameter,
    UnreachableInformation,
)
from cisolver.model import FiniteSpace, ProblemSpec
from cisolver.oracle import (
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
    exact_cost_of_strategy,
)
from cisolver.protocols import control_sharing_protocol, no_sharing_protocol


def test_static_team_strategy_and_evaluation_counts():
    spec = instances.static_team()
    basic = enumerate_basic_strategies(spec)
    coordinator = enumerate_coordinator_strategies(spec)
    # two private maps of 4 inputs each: 2^4 * 2^4 pure strategy pairs;
    # the coordinator tries 16 prescription pairs at each of 2 signal values
    assert basic.count == 256
    assert coordinator.count == 32
    assert abs(basic.minimum - coordinator.minimum) <= 1e-9


def test_delayed_two_by_two_counts(seeded_instances):
    spec = seeded_instances[0]
    basic = enumerate_basic_strategies(spec)
    coordinator = enumerate_coordinator_strategies(spec)
    # stage 1: 16 joint tables; each of the 16 realizable message values
    # leads to a stage-2 node with 16 joint tables of its own
    assert basic.count == 16 * 16 ** 4 == 2 ** 20
    assert coordinator.count == 16 + 16 * 16 == 272
    assert abs(basic.minimum - coordinator.minimum) <= 1e-9


def test_enumeration_minima_match_the_solver(seeded_instances):
    spec = seeded_instances[1]
    report, _ = solve_finite(spec)
    basic = enumerate_basic_strategies(spec)
    assert abs(report.value - basic.minimum) <= 1e-9


def test_argmin_strategies_reproduce_their_minima(seeded_instances):
    spec = seeded_instances[2]
    basic = enumerate_basic_strategies(spec)
    coordinator = enumerate_coordinator_strategies(spec)
    assert abs(exact_cost_of_strategy(spec, basic.strategy)
               - basic.minimum) <= 1e-12
    assert abs(exact_cost_of_strategy(spec, coordinator.strategy)
               - coordinator.minimum) <= 1e-12


def test_agreement_under_other_sharing_patterns():
    rng = np.random.default_rng(31)
    obs = [FiniteSpace(2), FiniteSpace(2)]
    act = [FiniteSpace(2), FiniteSpace(2)]

    def rows(shape):
        a = rng.uniform(size=shape)
        return a / a.sum(axis=-1, keepdims=True)

    for protocol in (control_sharing_protocol(2, obs, act),
                     no_sharing_protocol(0, 2, obs, act)):
        spec = ProblemSpec(
            n=2, mode="finite", horizon=2, discount=None,
            state_space=FiniteSpace(2), obs_spaces=obs, action_spaces=act,
            initial_dist=rows((2,)),
            transitions=[rows((2, 4, 2))],
            obs_kernels=[[rows((2, 2)) for _ in range(2)] for _ in range(2)],
            costs=[rng.uniform(size=(2, 4)) for _ in range(2)],
            protocol=protocol)
        report, _ = solve_finite(spec)
        basic = enumerate_basic_strategies(spec)
        coordinator = enumerate_coordinator_strategies(spec)
        assert abs(basic.minimum - coordinator.minimum) <= 1e-9
        assert abs(basic.minimum - report.value) <= 1e-9


def test_periodic_within_horizon_agrees_with_solver():
    spec = instances.periodic_instance(seed=13, T=2, period=2)
    report, _ = solve_finite(spec)
    basic = enumerate_basic_strategies(spec)
    # nothing is shared before the horizon ends: 16 stage-1 tables and,
    # per controller, 2 realizable memories x 2 observations at stage 2
    assert basic.count == 16 * 256
    assert abs(basic.minimum - report.value) <= 1e-9


def test_singleton_spaces_count_one_per_action_choice():
    obs = [FiniteSpace(1)]
    for nu in (1, 2):
        act = [FiniteSpace(nu)]
        spec = ProblemSpec(
            n=1, mode="finite", horizon=1, discount=None,
            state_space=FiniteSpace(2), obs_spaces=obs, action_spaces=act,
            initial_dist=[0.5, 0.5],
            transitions=[],
            obs_kernels=[[np.ones((2, 1))]],
            costs=[np.arange(2 * nu, dtype=float).reshape(2, nu)],
            protocol=no_sharing_protocol(0, 1, obs, act))
        basic = enumerate_basic_strategies(spec)
        coordinator = enumerate_coordinator_strategies(spec)
        assert basic.count == nu
        assert coordinator.count == nu
        assert abs(basic.minimum - coordinator.minimum) <= 1e-12


def test_missing_successor_is_reported(solved_seed1):
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    root = strategy.node(strategy.roots[0][1])
    z, _ = next(iter(sorted(root.children.items())))
    del root.children[z]
    with pytest.raises(UnreachableInformation, match=f"message {z}"):
        exact_cost_of_strategy(spec, strategy)


def test_strategy_shape_is_checked(solved_seed1):
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    other = instances.single_controller_instance(21)
    with pytest.raises(InvalidParameter):
        exact_cost_of_strategy(other, strategy)


def test_enumeration_caps(seeded_instances):
    spec = seeded_instances[0]
    with pytest.raises(Infeasible):
        enumerate_basic_strategies(spec, cap_strategies=100)
    with pytest.raises(Infeasible):
        enumerate_coordinator_strategies(spec, cap_evaluations=100)


def test_root_probabilities_sum_to_one():
    spec = instances.static_team()
    basic = enumerate_basic_strategies(spec)
    assert abs(sum(p for p, _ in basic.strategy.roots) - 1.0) <= 1e-12
    assert len(basic.strategy.roots) == 2


def _strategy_digest(strategy) -> str:
    """sha256 over the roots and every node's id, stage, tables and children."""
    h = hashlib.sha256(repr(strategy.roots).encode())
    for stage in strategy.stages:
        for nd in stage:
            h.update(repr((nd.node_id, nd.t, [tb.tolist() for tb in nd.tables],
                           sorted(nd.children.items()))).encode())
    return h.hexdigest()


#: (fixture, kind) -> (count, repr of the minimum, strategy digest), as the
#: oracles computed them when these pins were written; any change to the
#: order of their float operations shows here
ORACLE_BITS = {
    ("delayed_sharing_2x2", "basic"): (
        1048576, "0.494916",
        "3f9f0edcc1c5342cbd07eb9825872530c4d58a5e751f410adf258bd048b0a072"),
    ("delayed_sharing_2x2", "coordinator"): (
        272, "0.494916",
        "3f9f0edcc1c5342cbd07eb9825872530c4d58a5e751f410adf258bd048b0a072"),
    ("static_team", "basic"): (
        256, "0.12",
        "8147b709b47d5e05f0778ea1a1a8c325d62d2394a7aa8c91ec2c274449ef802e"),
    ("static_team", "coordinator"): (
        32, "0.12000000000000001",
        "8147b709b47d5e05f0778ea1a1a8c325d62d2394a7aa8c91ec2c274449ef802e"),
    ("acceptance_seed1", "basic"): (
        1048576, "0.6826946323306889",
        "61d0dc7564d8517a381821ca9d1294f29fb6f5af089300c836d31e3ff6f55a04"),
    ("acceptance_seed1", "coordinator"): (
        272, "0.6826946323306888",
        "61d0dc7564d8517a381821ca9d1294f29fb6f5af089300c836d31e3ff6f55a04"),
}


@pytest.mark.parametrize("name, kind", sorted(ORACLE_BITS))
def test_oracles_give_the_pinned_bits_on_the_golden_fixtures(problems_dir, name, kind):
    spec, report = serialize.load_problem(str(problems_dir / f"{name}.json"))
    assert spec is not None and report.ok
    enumerate_ = (enumerate_basic_strategies if kind == "basic"
                  else enumerate_coordinator_strategies)
    got = enumerate_(spec)
    assert (got.count, repr(got.minimum), _strategy_digest(got.strategy)) \
        == ORACLE_BITS[name, kind]


def test_coordinator_oracle_gives_the_pinned_bits_on_a_filter_member():
    got = enumerate_coordinator_strategies(instances.filter_instance(0))
    assert (got.count, repr(got.minimum), _strategy_digest(got.strategy)) == (
        4368, "0.6216593328296147",
        "34a9394032edf2f0602de5ae8c081944ce2e654676dbf303614baffbb52b390e")


def test_exact_cost_gives_the_pinned_bits_and_branch_count(problems_dir):
    # local memories of 4 values, so every branch goes through a memory update
    spec, _ = serialize.load_problem(str(problems_dir / "periodic_4stage.json"))
    assert spec.mem_cards(2) == (4, 4)
    _, tree = solve_finite(spec)
    strategy = extract_control_strategy(spec, tree)
    assert repr(exact_cost_of_strategy(spec, strategy)) == "0.9264378577507831"
    # 1,344 trajectory branches in all, each counted once
    assert repr(exact_cost_of_strategy(spec, strategy, cap_branches=1344)) \
        == "0.9264378577507831"
    with pytest.raises(Infeasible, match=r"cap 1343 \(reached 1344\)") as raised:
        exact_cost_of_strategy(spec, strategy, cap_branches=1343)
    assert raised.value.count == 1344


def test_the_oracles_import_nothing_from_the_solver():
    """``oracle.py`` reads the model alone, so agreeing with the solver is evidence."""
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import dp
                internal.update("." + alias.name for alias in node.names)
            else:
                internal.add("." * node.level + node.module)
        else:
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [])
            internal.update(name for name in names if name.split(".")[0] == "cisolver")
    assert internal == {".errors", ".model"}
