import ast
import dataclasses
import hashlib
import json
import pathlib
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import instances
from cisolver import coordinator, serialize, sim
from cisolver.coordinator import (PrescriptionSpace, message_distribution, stage_layout,
                                  zeta)
from cisolver.dp import (PolicyTree, extract_control_strategy, solve_finite,
                         solve_finite_reduced)
from cisolver.errors import InvalidParameter, UnreachableInformation
from cisolver.oracle import exact_cost_of_strategy
from cisolver.serialize import load_problem
from cisolver.sim import paired_rollout, rollout


def test_same_seed_reproduces_the_report(solved_seed1):
    spec, _, tree = solved_seed1
    a = rollout(spec, tree, seed=5, episodes=400)
    b = rollout(spec, tree, seed=5, episodes=400)
    assert a.mean == b.mean
    assert a.stderr == b.stderr
    c = rollout(spec, tree, seed=6, episodes=400)
    assert c.mean != a.mean


def test_thread_count_does_not_change_results(solved_seed1):
    spec, _, tree = solved_seed1
    a = rollout(spec, tree, seed=9, episodes=501, threads=1)
    b = rollout(spec, tree, seed=9, episodes=501, threads=8)
    assert a.mean == b.mean
    assert a.stderr == b.stderr
    assert a.violations == b.violations


def test_trajectory_recording_shapes(solved_seed1):
    spec, _, tree = solved_seed1
    report = rollout(spec, tree, seed=3, episodes=7, record=True)
    assert len(report.trajectories) == 7
    T = spec.horizon
    for e, traj in enumerate(report.trajectories):
        assert traj.episode == e
        assert len(traj.states) == T
        assert len(traj.obs) == T and all(len(o) == spec.n for o in traj.obs)
        assert len(traj.actions) == T
        assert len(traj.messages) == T - 1
        assert len(traj.memories) == T
        assert len(traj.nodes) == T
        hand = sum(float(spec.cost(t + 1)[traj.states[t],
                                           traj.actions[t][0] * 2 + traj.actions[t][1]])
                   for t in range(T))
        assert traj.cost == pytest.approx(hand, abs=1e-12)


def test_empirical_frequencies_match_the_model(solved_seed1):
    spec, _, tree = solved_seed1
    episodes = 20_000
    report = rollout(spec, tree, seed=12, episodes=episodes, record=True)
    x0 = np.array([t.states[0] for t in report.trajectories])

    p = float(spec.initial_dist[0])
    freq = float((x0 == 0).mean())
    sigma = np.sqrt(p * (1 - p) / episodes)
    assert abs(freq - p) <= 4 * sigma

    # next-state frequencies conditioned on the most common (state, action)
    keys = {}
    for t in report.trajectories:
        u = t.actions[0][0] * 2 + t.actions[0][1]
        keys.setdefault((t.states[0], u), []).append(t.states[1])
    (x, u), succ = max(keys.items(), key=lambda kv: len(kv[1]))
    succ = np.array(succ)
    q = float(spec.transition(1)[x, u, 0])
    freq = float((succ == 0).mean())
    sigma = np.sqrt(q * (1 - q) / len(succ))
    assert abs(freq - q) <= 4 * sigma


def test_paired_rollout_is_identical_for_a_faithful_extraction(solved_seed1):
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    report = paired_rollout(spec, tree, strategy, seed=4, episodes=1000)
    assert report.identical
    assert report.divergences == []


def test_paired_rollout_flags_a_corrupted_stage(solved_seed1):
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    for node in strategy.stages[1]:
        node.tables = (1 - node.tables[0],) + node.tables[1:]
    report = paired_rollout(spec, tree, strategy, seed=4, episodes=200)
    assert not report.identical
    assert len(report.divergences) == 200
    assert all(d == (e, 2, "action")
               for e, d in zip(range(200), report.divergences))


def test_rollout_raises_on_a_missing_successor(solved_seed1):
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    strategy.node(strategy.roots[0][1]).children.clear()
    with pytest.raises(UnreachableInformation):
        rollout(spec, strategy, seed=2, episodes=50)


def test_no_violations_on_an_optimal_tree(solved_seed1):
    spec, _, tree = solved_seed1
    report = rollout(spec, tree, seed=17, episodes=2000)
    assert report.violations == 0


def test_strategy_and_tree_estimate_the_same_value(solved_seed1):
    spec, report, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    sim = rollout(spec, strategy, seed=8, episodes=50_000)
    assert abs(sim.mean - report.value) <= 4 * sim.stderr


def test_argument_validation(solved_seed1):
    spec, _, tree = solved_seed1
    with pytest.raises(InvalidParameter, match="episodes"):
        rollout(spec, tree, seed=1, episodes=0)
    strategy = extract_control_strategy(spec, tree)
    for seed in (-1, 2**64):
        with pytest.raises(InvalidParameter, match=r"seed must be in \[0, 2\*\*64\)"):
            rollout(spec, tree, seed=seed, episodes=10)
        with pytest.raises(InvalidParameter, match=r"seed must be in \[0, 2\*\*64\)"):
            paired_rollout(spec, tree, strategy, seed=seed, episodes=10)
    with pytest.raises(InvalidParameter, match="episodes"):
        paired_rollout(spec, tree, strategy, seed=1, episodes=0)
    assert rollout(spec, tree, seed=2**64 - 1, episodes=10).seed == 2**64 - 1


def _block_outcomes(spec, tree):
    """Every rollout outcome that could depend on how episodes are blocked."""
    strategy = extract_control_strategy(spec, tree)
    corrupted = extract_control_strategy(spec, tree)
    for node in corrupted.stages[1]:
        node.tables = (1 - node.tables[0],) + node.tables[1:]
    # without message 16 at the root, episode 6 is the first to go astray
    broken = extract_control_strategy(spec, tree)
    del broken.node(broken.roots[0][1]).children[16]
    with pytest.raises(UnreachableInformation) as unreachable:
        rollout(spec, broken, seed=2, episodes=50)
    return {
        "tree": rollout(spec, tree, seed=9, episodes=61, record=True),
        "strategy": rollout(spec, strategy, seed=10, episodes=61, record=True),
        "paired": paired_rollout(spec, tree, strategy, seed=4, episodes=61),
        "corrupted": paired_rollout(spec, tree, corrupted, seed=4, episodes=61),
        "unreachable": str(unreachable.value),
    }


@pytest.mark.parametrize("block", [1, 3, 4, 5])
def test_reports_do_not_depend_on_the_block_size(solved_seed1, monkeypatch, block):
    spec, _, tree = solved_seed1
    expect = _block_outcomes(spec, tree)
    assert expect["unreachable"].startswith("episode 6: ")
    assert len(expect["corrupted"].divergences) == 61
    monkeypatch.setattr(sim, "_BLOCK", block)
    assert _block_outcomes(spec, tree) == expect


def test_a_long_rollout_is_pinned(problems_dir):
    spec, _ = load_problem(str(problems_dir / "delayed_sharing_2x2.json"))
    _, tree = solve_finite(spec)
    report = rollout(spec, tree, seed=11, episodes=100_003)
    assert report.mean == 0.4950961471155866
    assert report.stderr == 0.0012361347469762739


def _periodic_policies(problems_dir):
    spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    _, tree = solve_finite(spec)
    return spec, tree, extract_control_strategy(spec, tree)


def test_a_long_strategy_rollout_is_pinned(problems_dir):
    spec, _, strategy = _periodic_policies(problems_dir)
    report = rollout(spec, strategy, seed=11, episodes=100_003)
    assert report.mean == 0.9260104764641435
    assert report.stderr == 0.0013724577781355045
    assert report.violations == 0


def test_long_paired_reports_are_pinned(problems_dir):
    spec, tree, strategy = _periodic_policies(problems_dir)
    report = paired_rollout(spec, tree, strategy, seed=12, episodes=100_003)
    assert report.identical and report.divergences == []
    # controller 1 flips its stage-3 action on y = 1, and the stage-2 node
    # every episode reaches loses every other child
    corrupted = extract_control_strategy(spec, tree)
    for node in corrupted.stages[2]:
        flipped = node.tables[1].copy()
        flipped[1] = 1 - flipped[1]
        node.tables = (node.tables[0], flipped)
    children = corrupted.stages[1][0].children
    for z in sorted(children)[::2]:
        del children[z]
    report = paired_rollout(spec, tree, corrupted, seed=12, episodes=100_003)
    assert not report.identical
    assert Counter((s, f) for _, s, f in report.divergences) == {
        (2, "node"): 82185, (3, "action"): 12016}
    assert hashlib.sha256(repr(report.divergences).encode()).hexdigest() == \
        "9f7eef7d7a262ae3db015e5580978216369403510c501868b129bb74bc6c5af4"


def test_rollout_memory_does_not_grow_with_the_draws(problems_dir):
    spec, _ = load_problem(str(problems_dir / "delayed_sharing_2x2.json"))
    _, tree = solve_finite(spec)
    strategy = extract_control_strategy(spec, tree)
    episodes = 400_000
    # the per-episode cost vector (8 bytes each) is the one allowance that grows
    bound = 8 * episodes + 16 * 2**20
    for run in (lambda: rollout(spec, tree, seed=3, episodes=episodes),
                lambda: paired_rollout(spec, tree, strategy, seed=3, episodes=episodes)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_cumulative_columns_sample_as_the_inverse_cdf():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 7):
        kernel = rng.random((5, k)) * (rng.random((5, k)) < 0.6)  # some zero entries
        kernel[kernel.sum(axis=1) == 0, 0] = 1.0
        kernel /= kernel.sum(axis=1, keepdims=True)
        # uniforms that hit the cumulative sums exactly, too
        u = np.concatenate([rng.random(3000), np.cumsum(kernel, axis=1).ravel()])
        rows = rng.integers(0, 5, size=len(u))
        # the per-row reference: cumulative sums of the gathered rows, whose
        # outcomes of zero mass before the first positive entry (u == 0.0)
        # and after the last are never drawn
        cum = np.cumsum(kernel[rows], axis=-1)
        expect = np.minimum((cum < u[:, None]).sum(axis=-1), k - 1)
        positive = kernel[rows] > 0
        first = positive.argmax(axis=-1)
        last = k - 1 - positive[:, ::-1].argmax(axis=-1)
        expect = np.clip(expect, first, last)
        assert np.array_equal(sim._sample(sim._cum_columns(kernel), rows, u), expect)


def test_a_zero_uniform_never_draws_a_leading_zero_outcome():
    """``Generator.random`` can return 0.0, which no threshold lies below."""
    cols = sim._cum_columns(np.array([[0.0, 1.0]]))
    assert sim._sample(cols, [0], np.array([0.0])).tolist() == [1]
    cols = sim._cum_columns(np.array([[0.0, 0.0, 1.0]]))
    assert sim._sample(cols, [0, 0], np.array([0.0, 0.5])).tolist() == [2, 2]


def test_a_row_short_of_one_never_draws_a_trailing_zero_outcome():
    """Validation accepts rows that sum to within ``model._ROW_TOL`` of 1."""
    kernel = np.array([[0.5, 0.5 - 1e-9, 0.0], [0.0, 1.0 - 1e-9, 0.0]])
    cols = sim._cum_columns(kernel)
    u = np.array([1.0 - 5e-10, 0.25, 0.75])
    assert sim._sample(cols, [0, 0, 0], u).tolist() == [1, 0, 1]
    assert sim._sample(cols, [1, 1, 1], u).tolist() == [1, 1, 1]


FINITE_FIXTURES = ["acceptance_seed1", "delayed_sharing_2x2", "periodic_4stage",
                   "static_team"]


@pytest.mark.parametrize("name", FINITE_FIXTURES)
@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced])
def test_audit_table_matches_the_per_node_reference(problems_dir, name, solve):
    """The audit bit of ``plan.flag`` reads each node's own stored belief.

    On a solved tree that is the belief its path gives, so here every node
    before the last stage stores a point mass on its last state instead.
    """
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    _, tree = solve(spec)
    for nodes in tree.stages[:-1]:
        for nd in nodes:
            weights = np.zeros_like(nd.belief.weights)
            weights[-1] = 1.0
            nd.belief = dataclasses.replace(nd.belief, weights=weights)
    plan = sim._ExecPlan(spec, tree)
    for t in range(1, spec.horizon):
        space = PrescriptionSpace(spec, t)
        z = plan.z[t - 1].reshape(len(tree.stages[t - 1]), -1)
        expect = []
        for nd, zs in zip(tree.stages[t - 1], z):
            belief = zeta(spec, nd.belief) if tree.variant == "reduced" else nd.belief
            probs = message_distribution(spec, belief, space.decode(nd.gamma_index))
            expect.append(probs.take(zs) <= 1e-15)
        assert np.array_equal(plan.flag[t - 1] >> 1, np.concatenate(expect))


def _joint_table_cases(problems_dir):
    """``(spec, policy)``: every finite fixture and the n = 3 instance, each
    solved in both variants, and the strategy extracted from each tree."""
    specs = [load_problem(str(problems_dir / f"{name}.json"))[0]
             for name in FINITE_FIXTURES]
    specs.append(instances.random_delayed_instance(0, n=3, T=3))
    for spec in specs:
        for solve in (solve_finite, solve_finite_reduced):
            _, tree = solve(spec)
            yield spec, tree
            yield spec, extract_control_strategy(spec, tree)


def test_joint_tables_match_the_loop_references(problems_dir):
    """Every entry of a plan's ``(node, state)`` tables, against the references.

    At node ``k`` and layout state ``(x, y, m)`` the action is the node's
    prescription at each ``(y_i, m_i)``, the message and next memory are
    the protocol's maps, the child is the node's child for that message,
    and a tree's audit flag is the message's mass under the node's belief.
    """
    cases = 0
    for spec, policy in _joint_table_cases(problems_dir):
        plan = sim._ExecPlan(spec, policy)
        audited = isinstance(policy, PolicyTree)
        T = spec.horizon
        assert [len(plan.thr), len(plan.base), len(plan.flag), len(plan.z)] == [T - 1] * 4
        for t in range(1, T + 1):
            layout = stage_layout(spec, t)
            space = PrescriptionSpace(spec, t)
            nodes = policy.stages[t - 1]
            if t < T:
                nxt = stage_layout(spec, t + 1)
                position = {nd.node_id: k for k, nd in enumerate(policy.stages[t])}
            for k, nd in enumerate(nodes):
                if audited:
                    gamma = space.decode(nd.gamma_index)
                    tables = gamma.tables
                    belief = zeta(spec, nd.belief) if policy.variant == "reduced" \
                        else nd.belief
                    probs = message_distribution(spec, belief, gamma) if t < T else None
                else:
                    tables = nd.tables
                for st in range(layout.size):
                    s = k * layout.size + st
                    x = int(layout.x_of[st])
                    ys = [int(y[st]) for y in layout.y_of]
                    ms = [int(m[st]) for m in layout.m_of]
                    acts = [int(tables[i][ys[i], ms[i]]) for i in range(spec.n)]
                    u = sum(a * int(layout.act_strides[i]) for i, a in enumerate(acts))
                    assert plan.u[t - 1][s] == u
                    assert plan.cost[t - 1][s] == spec.cost(t)[x, u]
                    if t == T:
                        continue
                    row = sim._cum_columns(spec.transition(t)[x, u][None])
                    assert [col[s] for col in plan.thr[t - 1]] == [col[0] for col in row]
                    z = sum(int(spec.msg_map(i, t)[ms[i], ys[i], acts[i]])
                            * int(layout.msg_strides[i]) for i in range(spec.n))
                    assert plan.z[t - 1][s] == z
                    child = nd.children.get(z)
                    memories = [int(spec.mem_update(i, t)[ms[i], ys[i], acts[i]])
                                for i in range(spec.n)]
                    state = np.ravel_multi_index((0,) * (1 + spec.n) + tuple(memories),
                                                 nxt.dims)
                    node = 0 if child is None else position[child]
                    assert plan.base[t - 1][s] == node * nxt.size + state
                    flag = int(child is None)
                    if audited:
                        flag |= int(probs[z] <= 1e-15) << 1
                    assert plan.flag[t - 1][s] == flag
        cases += 1
    assert cases == 4 * (len(FINITE_FIXTURES) + 1)


def test_trajectories_name_nodes_by_their_ids(problems_dir):
    """Recorded nodes are document ids, linked by the recorded messages."""
    spec, tree, strategy = _periodic_policies(problems_dir)
    for policy in (tree, strategy):
        report = rollout(spec, policy, seed=4, episodes=2000, record=True)
        stage_ids = [{nd.node_id for nd in stage} for stage in policy.stages]
        for traj in report.trajectories:
            assert all(nd in ids for nd, ids in zip(traj.nodes, stage_ids))
            for t, z in enumerate(traj.messages):
                assert policy.node(traj.nodes[t]).children[z] == traj.nodes[t + 1]
        # every episode reaches the one node of stage 2, whose id is 4
        assert {traj.nodes[1] for traj in report.trajectories} == {4}
        assert [nd.node_id for nd in policy.stages[1]] == [4]


def test_unreachable_information_names_the_node_id(problems_dir):
    spec, tree, _ = _periodic_policies(problems_dir)
    broken = extract_control_strategy(spec, tree)
    node = broken.stages[1][0]
    node.children.clear()
    with pytest.raises(UnreachableInformation,
                       match=rf"at stage 2 for message \d+ from node {node.node_id}$"):
        rollout(spec, broken, seed=2, episodes=500)


class _FailingStream:
    """A stream whose ``random`` raises on its third block."""

    def __init__(self, stream):
        self.stream = stream
        self.calls = 0

    def random(self, size=None, out=None):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("stream failed on its third block")
        return self.stream.random(size, out=out)


def test_the_helper_thread_is_joined_on_every_exit(solved_seed1, monkeypatch):
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    broken = extract_control_strategy(spec, tree)
    broken.node(broken.roots[0][1]).children.clear()
    baseline = threading.active_count()
    monkeypatch.setattr(sim, "_BLOCK", 16)
    rollout(spec, tree, seed=1, episodes=100)
    assert threading.active_count() == baseline
    paired_rollout(spec, tree, strategy, seed=1, episodes=100)
    assert threading.active_count() == baseline
    with pytest.raises(UnreachableInformation):
        rollout(spec, broken, seed=1, episodes=100)
    assert threading.active_count() == baseline

    real = sim._stream
    caller = threading.current_thread()
    readers = set()

    def failing(*args, **kwargs):
        readers.add(threading.current_thread())
        return _FailingStream(real(*args, **kwargs))

    monkeypatch.setattr(sim, "_stream", failing)
    for run in (lambda: rollout(spec, tree, seed=1, episodes=100),
                lambda: paired_rollout(spec, tree, strategy, seed=1, episodes=100)):
        with pytest.raises(RuntimeError, match="third block"):
            run()
        assert threading.active_count() == baseline
    # only the helpers made (and so read) the streams
    assert readers and caller not in readers
    # two blocks suffice: the third is never drawn
    assert rollout(spec, tree, seed=1, episodes=32).episodes == 32


def test_a_consumer_that_stops_early_joins_the_helper(solved_seed1, monkeypatch):
    spec, _, tree = solved_seed1
    plan = sim._ExecPlan(spec, tree)
    baseline = threading.active_count()
    monkeypatch.setattr(sim, "_BLOCK", 8)
    steps = sim._steps(spec, (plan,), seed=1, episodes=100)
    next(steps)
    assert threading.active_count() == baseline + 1
    steps.close()
    assert threading.active_count() == baseline


def test_concurrent_rollouts_under_frequent_thread_switches(solved_seed1, monkeypatch):
    """Four callers, each with its own helper, switching threads every microsecond.

    A block handed over twice, skipped or read out of order would change
    the reports.
    """
    spec, _, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    monkeypatch.setattr(sim, "_BLOCK", 7)

    def reports(seed):
        return (rollout(spec, tree, seed, 300, record=True),
                paired_rollout(spec, tree, strategy, seed, 300))

    expect = {seed: reports(seed) for seed in range(4)}
    baseline = threading.active_count()
    results = {}

    def call(seed):
        results[seed] = reports(seed)

    callers = [threading.Thread(target=call, args=(seed,)) for seed in expect]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == expect
    assert threading.active_count() == baseline


def test_only_prescribe_reads_the_protocol_maps():
    """``coordinator.prescribe`` alone works out what a prescription emits and remembers.

    Neither module reads ``msg_map`` or ``mem_update`` anywhere else, so
    the simulator cannot grow its own copy of the protocol's maps.
    """
    def readers(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        return {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr in ("msg_map", "mem_update")}

    assert readers(sim) == set()
    assert readers(coordinator) == {"prescribe"}


def test_every_component_roots_the_same_initial_signals(problems_dir):
    """Solver, loader, simulator and oracle agree on which signals get a root.

    Signal 1 has mass just above ``ZERO_MASS``, and controller 0's first
    observation row sums to ``1 - 1e-10``, inside the validation
    tolerance.  The signal's mass times the observation law falls just
    below ``ZERO_MASS``; the signal must still get its root everywhere.
    """
    doc = serialize.parse_file(str(problems_dir / "static_team.json"))
    m = 1.00000000001e-15
    doc["initial_dist"] = [1.0, 0.0]
    doc["initial_common_obs"]["kernel"][0] = [1.0 - m, m]
    doc["obs_kernels"][0][0][0] = [0.5, 0.5 - 1e-10]
    # every joint action in state 0 costs something, so the value is not 0
    doc["cost"][0][0] = [0.3, 1.0, 1.0, 0.5]
    spec, report = serialize.problem_from_document(doc)
    assert report.ok, report
    assert coordinator.root_signals(spec) == [0, 1]

    value, tree = solve_finite(spec)
    assert len(tree.roots) == 2
    solved = serialize.dumps(serialize.solve_result_to_dict(spec, value, tree))
    loaded = serialize.policy_from_document(json.loads(solved), spec)
    assert loaded.roots == tree.roots
    a = rollout(spec, tree, seed=3, episodes=2000)
    b = rollout(spec, loaded, seed=3, episodes=2000)
    assert (a.mean, a.stderr, a.violations) == (b.mean, b.stderr, b.violations)
    assert a.violations == 0
    assert value.value > 0.29
    assert abs(a.mean - value.value) <= 4 * a.stderr + 1e-9

    strategy = extract_control_strategy(spec, tree)
    assert abs(exact_cost_of_strategy(spec, strategy) - value.value) <= 1e-9
    assert not paired_rollout(spec, tree, strategy, seed=3, episodes=500).divergences
