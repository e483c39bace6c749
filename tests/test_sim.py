import hashlib
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import instances
from cisolver import sim
from cisolver.coordinator import (PrescriptionSpace, message_distribution, stage_layout,
                                  zeta)
from cisolver.dp import extract_control_strategy, solve_finite, solve_finite_reduced
from cisolver.errors import InvalidParameter, UnreachableInformation
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


@pytest.mark.parametrize("name", ["delayed_sharing_2x2", "acceptance_seed1",
                                  "periodic_4stage"])
def test_stage_tables_match_the_loop_references(problems_dir, name):
    """Every entry of a plan's per-controller tables, against the references.

    The action is the node's decoded prescription at ``(y_i, m_i)``; the
    message share and next memory are the protocol's maps at
    ``(m_i, y_i, a_i)``.  Each table has the size of the action table.
    """
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    _, tree = solve_finite(spec)
    strategy = extract_control_strategy(spec, tree)
    T = spec.horizon
    for policy in (tree, strategy):
        plan = sim._ExecPlan(spec, policy)
        for t in range(1, T + 1):
            space = PrescriptionSpace(spec, t)
            layout = stage_layout(spec, t)
            nodes = policy.stages[t - 1]
            for i in range(spec.n):
                ny, nm = layout.ny[i], layout.nm[i]
                tables = [plan.actions, plan.act_shares]
                if t < T:
                    tables += [plan.msg_shares, plan.mem_next]
                    msg_map, mem_update = spec.msg_map(i, t), spec.mem_update(i, t)
                assert all(len(table[t - 1][i]) == len(nodes) * ny * nm
                           for table in tables)
                for k, nd in enumerate(nodes):
                    gamma = space.decode(tree.node(nd.node_id).gamma_index)
                    for y in range(ny):
                        for m in range(nm):
                            local = (k * ny + y) * nm + m
                            a = int(gamma.tables[i][y, m])
                            assert plan.actions[t - 1][i][local] == a
                            assert plan.act_shares[t - 1][i][local] == \
                                a * layout.act_strides[i]
                            if t < T:
                                assert plan.msg_shares[t - 1][i][local] == \
                                    msg_map[m, y, a] * layout.msg_strides[i]
                                assert plan.mem_next[t - 1][i][local] == \
                                    mem_update[m, y, a]


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
        # the per-row reference: cumulative sums of the gathered rows
        cum = np.cumsum(kernel[rows], axis=-1)
        expect = np.minimum((cum < u[:, None]).sum(axis=-1), k - 1)
        assert np.array_equal(sim._sample(sim._cum_columns(kernel), rows, u), expect)


FINITE_FIXTURES = ["acceptance_seed1", "delayed_sharing_2x2", "periodic_4stage",
                   "static_team"]


@pytest.mark.parametrize("name", FINITE_FIXTURES)
@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced])
def test_audit_table_matches_the_per_node_reference(problems_dir, name, solve):
    """The batched audit table, against ``message_distribution`` node by node."""
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    _, tree = solve(spec)
    plan = sim._ExecPlan(spec, tree)
    assert len(plan.no_mass) == spec.horizon - 1
    for t, no_mass in enumerate(plan.no_mass, start=1):
        space = PrescriptionSpace(spec, t)
        expect = []
        for nd in tree.stages[t - 1]:
            belief = zeta(spec, nd.belief) if tree.variant == "reduced" else nd.belief
            probs = message_distribution(spec, belief, space.decode(nd.gamma_index))
            expect.append(probs <= 1e-15)
        assert np.array_equal(no_mass, np.concatenate(expect))


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
