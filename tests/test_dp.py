import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import instances
import reference
from cisolver import dp
from cisolver.coordinator import (
    ZERO_MASS,
    PrescriptionSpace,
    canonical_keys,
    eta_update,
    expected_cost,
    message_distribution,
    stage_layout,
    zeta,
)
from cisolver.dp import (
    DEFAULT_FINITE_BELIEF_CAP,
    DEFAULT_PRESCRIPTION_CAP,
    extract_control_strategy,
    solve_discounted,
    solve_finite,
    solve_finite_reduced,
)
from cisolver.errors import Infeasible, InvalidParameter, SizeOverflow
from cisolver.model import FiniteSpace, ProblemSpec
from cisolver.oracle import (
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
    exact_cost_of_strategy,
)
from cisolver.protocols import delayed_sharing_protocol
from cisolver.serialize import load_problem, problem_from_document, solve_result_to_dict


def test_single_controller_matches_textbook_recursion():
    for seed in (21, 22, 23):
        spec = instances.single_controller_instance(seed)
        report, _ = solve_finite(spec)
        expect = reference.finite_pomdp_value(
            spec.initial_dist, list(spec.transitions),
            list(spec.obs_kernels[0]), list(spec.costs))
        assert abs(report.value - expect) <= 1e-9


def test_two_controller_value_matches_enumeration():
    spec = instances.random_delayed_instance(1)
    report, _ = solve_finite(spec)
    basic = enumerate_basic_strategies(spec)
    assert abs(report.value - basic.minimum) <= 1e-9


def test_reduced_belief_variant_agrees(seeded_instances):
    for spec in seeded_instances:
        full, _ = solve_finite(spec)
        red, _ = solve_finite_reduced(spec)
        assert abs(full.value - red.value) <= 1e-9
        assert red.variant == "reduced"


def test_tree_satisfies_bellman_recursion(solved_seed1):
    spec, report, tree = solved_seed1
    for stage in tree.stages:
        for node in stage:
            gamma = PrescriptionSpace(spec, node.t).decode(node.gamma_index)
            stage_cost = expected_cost(spec, node.belief, gamma)
            if node.t == tree.horizon:
                assert abs(node.value - stage_cost) <= 1e-12
                continue
            dist = message_distribution(spec, node.belief, gamma)
            cont = sum(dist[z] * tree.node(child).value
                       for z, child in node.children.items())
            assert abs(sum(dist[z] for z in node.children)
                       - 1.0) <= 1e-12
            assert abs(node.value - (stage_cost + cont)) <= 1e-12
    root_value = sum(p * tree.node(i).value for p, i in tree.roots)
    assert abs(root_value - report.value) <= 1e-12


def test_ties_break_to_smallest_prescription_index():
    spec = instances.random_delayed_instance(4)
    flat = ProblemSpec(
        n=spec.n, mode="finite", horizon=spec.horizon, discount=None,
        state_space=spec.state_space, obs_spaces=spec.obs_spaces,
        action_spaces=spec.action_spaces, initial_dist=spec.initial_dist,
        transitions=spec.transitions, obs_kernels=spec.obs_kernels,
        costs=[np.full_like(c, 0.5) for c in spec.costs],
        protocol=spec.protocol)
    _, tree = solve_finite(flat)
    # every prescription is optimal under a constant cost, so the solver
    # must pick index 0 everywhere for the output to be reproducible
    for stage in tree.stages:
        for node in stage:
            assert node.gamma_index == 0


def test_extracted_strategy_achieves_the_value(solved_seed1):
    spec, report, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    assert abs(exact_cost_of_strategy(spec, strategy) - report.value) <= 1e-9


def test_extracted_tables_equal_a_fresh_decode(problems_dir):
    spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    report, tree = solve_finite(spec)
    strategy = extract_control_strategy(spec, tree)
    nodes = 0
    for tree_stage, stage in zip(tree.stages, strategy.stages):
        for nd, st_nd in zip(tree_stage, stage):
            expect = PrescriptionSpace(spec, nd.t).decode(nd.gamma_index).tables
            assert st_nd.node_id == nd.node_id
            assert len(st_nd.tables) == len(expect)
            for table, e in zip(st_nd.tables, expect):
                assert table.dtype == e.dtype and np.array_equal(table, e)
            nodes += 1
    # the tree holds the policy's nodes; the report counts the whole DP
    assert nodes == sum(len(stage) for stage in tree.stages) == 34
    assert sum(report.stage_nodes) == 4369


@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced],
                         ids=["full", "reduced"])
def test_the_tree_holds_only_the_nodes_its_roots_reach(problems_dir, solve):
    spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    report, tree = solve(spec)
    assert report.stage_nodes == [1, 16, 256, 4096]
    assert [len(stage) for stage in tree.stages] == [1, 1, 16, 16]
    reached = {node_id for _, node_id in tree.roots}
    for stage in tree.stages:
        ids = [nd.node_id for nd in stage]
        assert ids == sorted(reached)  # in solver order
        reached = {c for nd in stage for c in nd.children.values()}
    # each belief owns its weights: a view would keep a whole DP stage alive
    assert all(nd.belief.weights.base is None
               for stage in tree.stages for nd in stage)


def test_one_shot_team_with_common_signal():
    spec = instances.static_team()
    report, tree = solve_finite(spec)
    basic = enumerate_basic_strategies(spec)
    assert abs(report.value - basic.minimum) <= 1e-9
    assert len(tree.roots) == 2


def test_prescription_cap_aborts_solve():
    spec = instances.random_delayed_instance(1)
    with pytest.raises(SizeOverflow):
        solve_finite(spec, cap_prescriptions=3)


def test_mode_checks():
    finite = instances.random_delayed_instance(1)
    with pytest.raises(InvalidParameter):
        solve_discounted(finite)
    discounted = instances.discounted_constant(0.5)
    with pytest.raises(InvalidParameter):
        solve_finite(discounted)


def test_discount_zero_equals_one_shot_solve():
    base = instances.discounted_constant(0.5)
    zero = ProblemSpec(
        n=base.n, mode="discounted", horizon=None, discount=0.0,
        state_space=base.state_space, obs_spaces=base.obs_spaces,
        action_spaces=base.action_spaces, initial_dist=base.initial_dist,
        transitions=base.transitions, obs_kernels=base.obs_kernels,
        costs=[np.array([[0.1, 0.9, 0.9, 0.4], [0.7, 0.2, 0.9, 0.5]])],
        protocol=base.protocol)
    report, _ = solve_discounted(zero, epsilon=1e-4)
    obs, act = list(base.obs_spaces), list(base.action_spaces)
    one_shot = ProblemSpec(
        n=base.n, mode="finite", horizon=1, discount=None,
        state_space=base.state_space, obs_spaces=base.obs_spaces,
        action_spaces=base.action_spaces, initial_dist=base.initial_dist,
        transitions=[], obs_kernels=base.obs_kernels, costs=zero.costs,
        protocol=delayed_sharing_protocol(1, 1, obs, act))
    finite_report, _ = solve_finite(one_shot)
    assert abs(report.value - finite_report.value) <= 1e-12
    assert report.iterations == 1


def test_constant_cost_fixed_point():
    for beta in (0.5, 0.9):
        spec = instances.discounted_constant(beta)
        report, _ = solve_discounted(spec, epsilon=1e-4)
        assert abs(report.value - 1.0 / (1.0 - beta)) <= 1e-12
        assert report.tail_bound <= 1e-12


def test_discounted_chain_matches_independent_value_iteration():
    spec = instances.discounted_chain(0.9)
    epsilon = 1e-4
    report, policy = solve_discounted(spec, epsilon=epsilon)
    depth = reference.truncation_depth(0.9, epsilon / 10.0, spec.max_abs_cost)
    expect = reference.discounted_pomdp_value(
        spec.initial_dist, spec.transitions[0], spec.obs_kernels[0][0],
        spec.costs[0], 0.9, depth)
    assert abs(report.value - expect) <= 2 * epsilon
    assert policy.value == report.value
    assert policy.entries
    # five stationary beliefs, four prescription classes each
    assert report.stage_nodes == [5]
    assert report.expanded_classes == [20]
    # each class emits two messages, and a belief's 8 branches make 4
    # distinct computations
    assert report.stats == {"branches": [40], "signatures": [20]}


def test_an_open_belief_graph_is_infeasible():
    # noisy observations give a new posterior at every step, so the
    # stationary belief graph never closes and the solve stops at the cap
    spec = instances.discounted_chain(0.1, np.array([[0.8, 0.2], [0.3, 0.7]]))
    with pytest.raises(Infeasible, match="exceed cap 2000") as exc:
        solve_discounted(spec, cap_beliefs=2000)
    assert exc.value.count > 2000


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1e-4])
def test_discounted_solve_rejects_a_bad_epsilon(epsilon):
    with pytest.raises(InvalidParameter, match="epsilon must be finite and > 0"):
        solve_discounted(instances.discounted_chain(0.9), epsilon=epsilon)


def test_halving_epsilon_is_stable():
    spec = instances.discounted_chain(0.9)
    coarse, _ = solve_discounted(spec, epsilon=1e-4)
    fine, _ = solve_discounted(spec, epsilon=5e-5)
    assert abs(coarse.value - fine.value) < 1e-4


def test_reduced_tree_lifts_to_the_full_beliefs(solved_seed1):
    spec, _, full_tree = solved_seed1
    _, red_tree = solve_finite_reduced(spec)
    full_keys = {node.belief.canonical_key()[1] for stage in full_tree.stages
                 for node in stage}
    for stage in red_tree.stages:
        for node in stage:
            lifted = zeta(spec, node.belief)
            assert lifted.canonical_key()[1] in full_keys


def _assert_variants_give_one_tree(spec):
    full_report, full = solve_finite(spec)
    red_report, red = solve_finite_reduced(spec)
    assert full_report.stage_nodes == red_report.stage_nodes
    assert full_report.expanded_classes == red_report.expanded_classes
    assert full_report.value == red_report.value
    assert full.roots == red.roots
    for t, (full_nodes, red_nodes) in enumerate(zip(full.stages, red.stages), start=1):
        assert [(nd.node_id, nd.gamma_index, nd.children, nd.value)
                for nd in full_nodes] == \
            [(nd.node_id, nd.gamma_index, nd.children, nd.value) for nd in red_nodes]
        lifted = stage_layout(spec, t).lift(
            np.stack([nd.belief.weights for nd in red_nodes]))
        assert np.array_equal(np.stack([nd.belief.weights for nd in full_nodes]),
                              lifted)


def test_both_variants_give_one_tree_on_every_finite_fixture(problems_dir):
    solved = 0
    for path in sorted(problems_dir.glob("*.json")):
        spec, report = load_problem(str(path))
        if spec is not None and report.ok and spec.mode == "finite":
            _assert_variants_give_one_tree(spec)
            solved += 1
    assert solved == 4


@pytest.mark.parametrize("seed", [1, 5])
def test_both_variants_give_one_tree_where_interning_splits(filter_family_doc, seed):
    # control sharing, at seeds where 12-decimal interning of full rows and
    # of reduced rows splits different beliefs (3600 or 3601 last-stage nodes)
    spec, _ = problem_from_document(filter_family_doc(seed, 3))
    _assert_variants_give_one_tree(spec)


@pytest.mark.parametrize("name", ["delayed_sharing_2x2", "acceptance_seed1"])
def test_batched_successors_match_eta_update(problems_dir, name):
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    _, tree = solve_finite(spec)
    structures = {}
    for stage in tree.stages[:-1]:
        t = stage[0].t
        space = PrescriptionSpace(spec, t)
        by_support = {}
        for node in stage:
            support = np.flatnonzero(node.belief.weights > ZERO_MASS)
            by_support.setdefault(support.tobytes(), (support, []))[1].append(node)
        for support, nodes in by_support.values():
            # every node on the support in one batch
            structure = dp._structure(spec, t, support, DEFAULT_PRESCRIPTION_CAP,
                                      structures)
            w_sup = np.stack([node.belief.weights[support] for node in nodes])
            mass, succ = dp._successors(spec, t, structure, w_sup)
            lifted = stage_layout(spec, t + 1).lift(succ).reshape(
                len(nodes), structure.signatures, -1)
            cls, z, sig = structure.cls, structure.z, structure.sig
            for c in range(structure.count):
                gamma = space.decode(structure.representative(c))
                lo, hi = structure.bounds[c], structure.bounds[c + 1]
                assert np.array_equal(np.flatnonzero(cls == c), np.arange(lo, hi))
                for k, node in enumerate(nodes):
                    dist = message_distribution(spec, node.belief, gamma)
                    assert z[lo:hi].tolist() == np.flatnonzero(dist > ZERO_MASS).tolist()
                    for b in range(lo, hi):
                        # branch b's mass and successor are its signature's
                        assert abs(mass[k, sig[b]] - dist[z[b]]) <= 1e-12
                        expect = eta_update(spec, node.belief, gamma, int(z[b]))
                        assert np.abs(lifted[k, sig[b]] - expect.weights).max() <= 1e-12


def _per_branch_tables(spec, t, structure):
    """Every branch's tables, as computed before signatures.

    Over the ``(class, support entry)`` grid: each entry's branch,
    ``(x, u)`` row and next memory from each controller's own classes.
    Returns ``(cls, z, branch, xu, slot, signatures)``, ``signatures``
    the number of distinct lists of ``(entry, (x, u), m')`` over the
    branches.
    """
    layout = stage_layout(spec, t)
    layout_next = stage_layout(spec, t + 1 if spec.mode == "finite" else 1)
    support, count = structure.support, structure.count
    ids = np.arange(count)
    u, z, m = (np.zeros((count, len(support)), dtype=np.int64) for _ in range(3))
    later = count
    for i in range(spec.n):
        later //= structure.counts[i]
        own = ids // later % structure.counts[i]
        width = len(structure.uniq[i])
        powers = structure.cards[i] ** np.arange(width - 1, -1, -1)
        acts = (own[:, None] // powers % structure.cards[i])[:, structure.inv[i]]
        mi, yi = layout.m_of[i][support], layout.y_of[i][support]
        mem_stride = math.prod(layout_next.nm[i + 1:])
        u += acts * layout.act_strides[i]
        z += spec.msg_map(i, t)[mi, yi, acts] * layout.msg_strides[i]
        m += spec.mem_update(i, t)[mi, yi, acts] * mem_stride
    n_msgs = math.prod(layout.msg_cards)
    pairs, branch = np.unique(ids[:, None] * n_msgs + z, return_inverse=True)
    branch = branch.reshape(-1)
    xu = (layout.x_of[support] * spec.cost(t).shape[1] + u).reshape(-1)
    slot = branch * layout_next.n_mem + m.reshape(-1)
    entries = np.stack([np.tile(np.arange(len(support)), count), xu, m.reshape(-1)], axis=1)
    order = np.argsort(branch, kind="stable")
    ends = np.cumsum(np.bincount(branch))[:-1]
    signatures = len({rows.tobytes() for rows in np.split(entries[order], ends)})
    return pairs // n_msgs, pairs % n_msgs, branch, xu, slot, signatures


def _per_branch_successors(spec, t, tables, w_sup):
    """Every branch's mass and successor, each computed on its own.

    The formula before signatures: one ``np.bincount`` over every entry
    of every branch.  ``succ`` has one row per node and branch.
    """
    layout_next = stage_layout(spec, t + 1 if spec.mode == "finite" else 1)
    cls, _, branch, xu, slot, _ = tables
    nodes, n_branches = len(w_sup), len(cls)
    offset = np.arange(nodes)[:, None] * n_branches
    w = np.broadcast_to(w_sup[:, None, :], (nodes, len(branch) // w_sup.shape[1],
                                            w_sup.shape[1])).reshape(nodes, -1)
    index = (offset + branch).reshape(-1)
    mass = np.bincount(index, weights=w.reshape(-1), minlength=nodes * n_branches)
    cond = w / mass[index].reshape(w.shape)
    index = (offset * layout_next.n_mem + slot).reshape(-1)
    rows = nodes * n_branches
    succ = np.empty((rows, layout_next.nx, layout_next.n_mem))
    kernel = spec.transition(t).reshape(-1, layout_next.nx)
    for xn in range(layout_next.nx):
        succ[:, xn, :] = np.bincount(
            index, weights=(cond * kernel[:, xn].take(xu)).reshape(-1),
            minlength=rows * layout_next.n_mem).reshape(rows, -1)
    succ = succ.reshape(rows, -1)
    succ /= succ.sum(axis=1, keepdims=True)
    return mass.reshape(nodes, -1), succ.reshape(nodes, n_branches, -1)


def test_ids_are_numbered_in_order_of_first_occurrence():
    rng = np.random.default_rng(5)
    keys = rng.choice(rng.integers(0, 10 ** 12, 30), size=200)
    ids, first = dp._first_ids(keys)
    expect = {}
    for key in keys.tolist():
        expect.setdefault(key, len(expect))
    assert ids.tolist() == [expect[key] for key in keys.tolist()]
    assert first.tolist() == [keys.tolist().index(key) for key in expect]


def _repeating_instances():
    """Instances on which branches repeat, and two on which they do not."""
    yield instances.periodic_instance()  # the problem of periodic_4stage.json
    for seed in range(3):
        yield instances.random_delayed_instance(seed, delay=2, T=4)
        yield instances.random_delayed_instance(seed, n=3, T=3)
    for k in range(5):
        yield instances.filter_instance(k)


def test_signatures_give_every_branch_its_own_bits():
    calls = []
    successors = dp._successors

    def spy(spec, t, structure, w_sup):
        got = successors(spec, t, structure, w_sup)
        calls.append((spec, t, structure, w_sup, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "_successors", spy)
        for spec in _repeating_instances():
            solve_finite(spec)
    tables, repeated = {}, 0
    for spec, t, structure, w_sup, (mass, succ) in calls:
        if structure not in tables:
            tables[structure] = _per_branch_tables(spec, t, structure)
        cls, z, _, _, _, signatures = tables[structure]
        expect_mass, expect_succ = _per_branch_successors(spec, t, tables[structure], w_sup)
        assert np.array_equal(structure.cls, cls) and np.array_equal(structure.z, z)
        sig = structure.sig
        assert structure.branches == len(cls)
        # numbered in order of first branch
        assert sig[0] == 0 and np.all(np.diff(np.maximum.accumulate(sig)) <= 1)
        assert mass[:, sig].tobytes() == expect_mass.tobytes()
        got = succ.reshape(len(w_sup), structure.signatures, -1)[:, sig]
        assert got.tobytes() == expect_succ.tobytes()
        # the per-controller signature finds every repeat entries alone find
        assert structure.signatures == signatures
        repeated += structure.signatures < structure.branches
    assert repeated > 0


def _intern_row_by_row(keys, weights, rows):
    """The reference: one dictionary lookup per row, in row order."""
    out = []
    for row, key in zip(rows, canonical_keys(rows)):
        if key not in keys:
            keys[key] = len(weights)
            weights.append(row.copy())
        out.append(keys[key])
    return np.array(out, dtype=np.int64)


def test_interning_a_batch_matches_a_row_by_row_loop():
    rng = np.random.default_rng(3)
    beliefs = rng.dirichlet(np.ones(6), size=5)
    # repeats within a batch, a copy that differs below the canonical
    # precision, and a -0.0 that must share the key of 0.0
    beliefs[4, 0] = 0.0
    negative = beliefs[4].copy()
    negative[0] = -0.0
    first = np.stack([beliefs[3], beliefs[1], beliefs[3], beliefs[0],
                      beliefs[1] + 1e-15, beliefs[4], negative, beliefs[3]])
    # repeats of earlier keys, interleaved with new beliefs
    second = np.stack([beliefs[2], beliefs[0], beliefs[4], beliefs[2], beliefs[1]])
    batched = dp._BeliefTable(6, DEFAULT_FINITE_BELIEF_CAP, "beliefs")
    keys, weights = {}, []
    for rows in (first, second):
        assert batched.intern(rows).tolist() == \
            _intern_row_by_row(keys, weights, rows).tolist()
        assert list(batched.keys.items()) == list(keys.items())
        assert batched.count == len(weights)
        assert batched.weights.tobytes() == np.stack(weights).tobytes()
    assert batched.count == 5


@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced])
def test_periodic_counters_are_pinned(problems_dir, solve):
    spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    report, tree = solve(spec)
    assert report.stage_nodes == [1, 16, 256, 4096]
    assert report.expanded_classes == [16, 4096, 4096, 1048576]
    # the shared message reveals what each prescription did, so the 4,096
    # branches of a stage-2 node make only 64 distinct computations
    # and the last stage's 16 supports define one table
    assert report.stats == {"branches": [16, 65536, 4096, 0],
                            "signatures": [16, 1024, 4096, 0],
                            "supports": [1, 16, 1, 16], "tables": [1, 16, 1, 1]}
    # counters are not part of the solve document
    assert "stats" not in json.dumps(solve_result_to_dict(spec, report, tree))


@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced])
def test_delayed_sharing_counters_are_pinned(problems_dir, solve):
    spec, _ = load_problem(str(problems_dir / "delayed_sharing_2x2.json"))
    report, _ = solve(spec)
    # one-stage delay: each of the 16 classes emits 4 messages, and the 64
    # branches make 16 distinct computations
    assert report.stats == {"branches": [64, 0], "signatures": [16, 0],
                            "supports": [1, 1], "tables": [1, 1]}


@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced])
def test_control_sharing_counters_are_pinned(filter_family_doc, solve):
    spec, _ = problem_from_document(filter_family_doc(1, 3))
    report, _ = solve(spec)
    assert report.stage_nodes == [1, 36, 3600]
    # no branch repeats, and the last stage's 225 supports share 16 tables
    assert report.stats == {"branches": [36, 7056, 0], "signatures": [36, 7056, 0],
                            "supports": [1, 9, 225], "tables": [1, 9, 16]}


def test_a_finite_solve_stops_at_the_belief_cap(problems_dir):
    # stage 4 of periodic_4stage holds 4,096 beliefs
    spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    for solve in (solve_finite, solve_finite_reduced):
        with pytest.raises(Infeasible, match="beliefs at stage 4 exceed cap 4000") as exc:
            solve(spec, cap_beliefs=4000)
        assert exc.value.count > 4000
    report, _ = solve_finite(spec, cap_beliefs=4096)
    assert report.stage_nodes == [1, 16, 256, 4096]


@pytest.mark.parametrize("solve", [solve_finite, solve_finite_reduced])
def test_filter_counters_are_pinned(filter_family_doc, solve):
    # no sharing: the last stage counts classes it never enumerates
    spec, _ = problem_from_document(filter_family_doc(21, 4, horizon=2))
    report, _ = solve(spec)
    assert report.stage_nodes == [1, 16]
    assert report.expanded_classes == [16, 4096]


def _dyadic_tie_team():
    """One-shot team whose dyadic data make whole classes tie exactly.

    Controller 1 sees the state.  The cost is ``f(x, u_1) + g(x, u_0)``:
    ``f`` does not depend on ``u_1`` at ``x = 1``, so controller 1's
    point ``y_1 = 1`` ties, and after ``y_0 = 1`` both of controller 0's
    actions cost 3/16 in expectation, so two lead classes tie.
    """
    obs, act = [FiniteSpace(2), FiniteSpace(2)], [FiniteSpace(2), FiniteSpace(2)]
    f = np.array([[0.5, 0.25], [0.5, 0.5]])
    g = np.array([[0.0, 0.75], [0.25, 0.0]])
    cost = np.array([[f[x, u1] + g[x, u0] for u0 in range(2) for u1 in range(2)]
                     for x in range(2)])
    return ProblemSpec(
        n=2, mode="finite", horizon=1, discount=None,
        state_space=FiniteSpace(2), obs_spaces=obs, action_spaces=act,
        initial_dist=np.array([0.5, 0.5]), transitions=[],
        obs_kernels=[[np.array([[0.75, 0.25], [0.25, 0.75]])], [np.eye(2)]],
        costs=[cost], protocol=delayed_sharing_protocol(1, 1, obs, act))


def _three_actions():
    """One shot, two controllers with three actions: 81 prescriptions."""
    return instances.random_delayed_instance(11, T=1, nu=3)


def _three_controllers():
    """One shot, three binary controllers: 64 prescriptions."""
    return instances.random_delayed_instance(12, n=3, T=1)


def _three_controllers_three_actions():
    """One shot, three controllers with three actions: 729 prescriptions."""
    return instances.random_delayed_instance(13, n=3, nu=3, T=1)


@pytest.mark.parametrize("build,tied", [(instances.static_team, 1),
                                        (_dyadic_tie_team, 4),
                                        (_three_actions, 1),
                                        (_three_controllers, 1),
                                        (_three_controllers_three_actions, 1)])
def test_last_stage_is_the_first_argmin_over_every_prescription(build, tied):
    spec = build()
    for solve in (solve_finite, solve_finite_reduced):
        _, tree = solve(spec)
        for node in tree.stages[-1]:
            belief = node.belief if solve is solve_finite else zeta(spec, node.belief)
            costs = np.array([expected_cost(spec, belief, gamma)
                              for gamma in PrescriptionSpace(spec, node.t)])
            best = int(np.argmin(costs))
            assert np.count_nonzero(costs == costs[best]) == tied
            assert node.gamma_index == best
            assert abs(node.value - costs[best]) <= 1e-12


def _exact_chain_value(spec):
    """Exact value of a chain whose observations reveal the state.

    Its best stationary policy is deterministic in the state, so the
    value is the least ``initial @ v`` over policies ``mu``, with
    ``(I - beta P_mu) v = c_mu``.
    """
    kernel, cost = spec.transitions[0], spec.costs[0]
    states = [0, 1]
    return min(
        float(spec.initial_dist @ np.linalg.solve(
            np.eye(2) - spec.discount * kernel[states, list(mu)],
            cost[states, list(mu)]))
        for mu in itertools.product(range(2), repeat=2))


def test_discounted_chain_at_099_matches_policy_evaluation():
    spec = instances.discounted_chain(0.99)
    report, policy = solve_discounted(spec, epsilon=1e-4)
    assert abs(report.value - _exact_chain_value(spec)) <= 1e-12
    assert report.tail_bound <= 1e-12
    assert policy.entries


@pytest.mark.parametrize("beta", [0.9, 0.95, 0.99])
def test_discounted_chain_matches_the_closed_graph_reference(beta):
    spec = instances.discounted_chain(beta)
    report, policy = solve_discounted(spec)
    expect = reference.closed_graph_discounted_value(
        spec.initial_dist, spec.transitions[0], spec.obs_kernels[0][0],
        spec.costs[0], beta)
    assert abs(report.value - expect) <= 1e-12
    assert abs(report.value - _exact_chain_value(spec)) <= 1e-12
    assert report.tail_bound <= 1e-12
    assert policy.value == report.value


@pytest.mark.parametrize("name", ["discounted_chain", "discounted_constant_beta05",
                                  "discounted_constant_beta09"])
def test_discounted_entries_take_the_first_argmin(problems_dir, name):
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    report, policy = solve_discounted(spec)
    if spec.n == 1:
        exact = _exact_chain_value(spec)
    else:  # every state and action costs the same
        exact = spec.max_abs_cost / (1.0 - spec.discount)
    assert abs(report.value - exact) <= 1e-12
    assert report.tail_bound <= 1e-12
    value_of = {entry.belief.canonical_key()[1]: entry.value
                for entry in policy.entries}
    for entry in policy.entries:
        # q-values of every full prescription, from the coordinator's own
        # cost, message law and update, under the entries' values
        q = np.array([
            expected_cost(spec, entry.belief, gamma) + spec.discount * sum(
                p * value_of[eta_update(spec, entry.belief, gamma, z).canonical_key()[1]]
                for z, p in enumerate(message_distribution(spec, entry.belief, gamma))
                if p > ZERO_MASS)
            for gamma in PrescriptionSpace(spec, 1)])
        best = entry.gamma_index
        assert abs(entry.value - q[best]) <= 1e-12
        assert q[best] <= q.min() + 1e-12
        assert np.all(q[:best] > q.min() + 1e-12)


@pytest.mark.parametrize("beta", [0.9, 0.95, 0.99])
def test_sweep_evaluation_agrees_with_the_dense_solve(monkeypatch, beta):
    spec = instances.discounted_chain(beta)
    dense, dense_policy = solve_discounted(spec)

    def no_dense_solve(*args):
        raise AssertionError("an n x n system above the dense-size constant")

    monkeypatch.setattr(dp, "_DENSE_BELIEFS", 1)
    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    swept, swept_policy = solve_discounted(spec)
    assert ([entry.gamma_index for entry in swept_policy.entries]
            == [entry.gamma_index for entry in dense_policy.entries])
    for a, b in zip(swept_policy.entries, dense_policy.entries):
        assert abs(a.value - b.value) <= 1e-12
    assert abs(swept.value - dense.value) <= 1e-12
    assert swept.tail_bound <= 1e-12


def test_class_structures_are_freed_after_a_solve():
    finite = instances.random_delayed_instance(1)
    discounted = instances.discounted_chain(0.9)
    _, tree = solve_finite(finite)
    _, policy = solve_discounted(discounted)
    del tree, policy
    gc.collect()
    assert not any(isinstance(obj, (dp._ClassStructure, dp._LastStage))
                   for obj in gc.get_objects())


def test_finite_solve_memory_stays_below_two_lifted_last_stages(problems_dir):
    path = str(problems_dir / "periodic_4stage.json")
    spec, _ = load_problem(path)
    report, _ = solve_finite(spec)
    # the last stage's beliefs lifted to full weights, all at once
    lifted = report.stage_nodes[-1] * stage_layout(spec, spec.horizon).size * 8
    spec, _ = load_problem(path)
    tracemalloc.start()
    try:
        solve_finite(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * lifted


def test_last_stage_batches_stay_within_the_bound(filter_family_doc, monkeypatch):
    spec, _ = problem_from_document(filter_family_doc(21, 4))
    calls = []  # (stage, entries of its g and low)
    best = dp._LastStage.best

    def spy(stage, w):
        points, n_u, lead = stage.shape
        calls.append((stage, len(w) * lead * points * (n_u + 1)))
        return best(stage, w)

    monkeypatch.setattr(dp._LastStage, "best", spy)
    solve_finite(spec)
    assert max(entries for _, entries in calls) <= dp._BATCH_ENTRIES
    assert len(calls) > len({id(stage) for stage, _ in calls})  # groups were split


def test_last_stage_builds_one_table_per_pattern(filter_family_doc, monkeypatch):
    spec, _ = problem_from_document(filter_family_doc(1, 3))
    built = []  # the support each table was built from
    init = dp._LastStage.__init__

    def spy(stage, spec, t, support, cap):
        init(stage, spec, t, support, cap)
        built.append(support)

    monkeypatch.setattr(dp._LastStage, "__init__", spy)
    report, _ = solve_finite(spec)
    # 225 supports share the 16 tables, each built once
    assert len(built) == report.stats["tables"][-1] == 16
    assert report.stats["supports"][-1] == 225


@pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 130, 256, 257, 1000])
def test_pairwise_sum_matches_a_contiguous_reduction(n):
    # if numpy ever changes how it groups a contiguous sum, this fails by
    # name rather than letting last-stage values drift
    rng = np.random.default_rng(n)
    a = rng.standard_normal((7, 5, n)) * 10.0 ** rng.choice([-8, 0, 8], size=(7, 5, n))
    got = dp._pairwise_sum([a[:, :, q] for q in range(n)])
    assert got.tobytes() == np.add.reduce(a, axis=2).tobytes()


def _solve_bits(spec):
    """Everything a solve computes, with values and beliefs as their bytes.

    The tree holds only the policy's nodes, so the whole DP's beliefs,
    branch masses, children, values and choices are recorded as the
    solve hands them between its stages: per expanded stage its groups'
    costs, masses and children and each node's best class, and the last
    stage's stored rows over ``(x, m)``, its values and, per support
    pattern, its nodes' lead classes and last actions.
    """
    seen = []
    expand, backward, last = dp._expand_stage, dp._backward, dp._solve_last_stage

    def expand_spy(spec, t, weights, *args):
        groups, counts = expand(spec, t, weights, *args)
        seen.append((weights.tobytes(), counts))
        # by node, so the bits do not depend on how nodes were grouped
        rows = {node: (costs[k].tobytes(), mass[k].tobytes(), child[k].tolist())
                for _, nodes, costs, mass, child in groups
                for k, node in enumerate(nodes)}
        seen.append(sorted(rows.items()))
        return groups, counts

    def backward_spy(groups, values_next, values, best):
        backward(groups, values_next, values, best)
        seen.append((values.tobytes(), best.tobytes()))

    def last_spy(spec, t, stored, cap):
        values, choices, counts = last(spec, t, stored, cap)
        seen.append((stored.tobytes(), values.tobytes(), counts, [
            (nodes.tobytes(), lead.tobytes(), acts.tobytes())
            for nodes, lead, acts in choices.groups]))
        return values, choices, counts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "_expand_stage", expand_spy)
        mp.setattr(dp, "_backward", backward_spy)
        mp.setattr(dp, "_solve_last_stage", last_spy)
        tree = solve_finite(spec)[1]
    return seen + [tree.roots] + [
        (nd.node_id, nd.gamma_index, sorted(nd.children.items()),
         np.float64(nd.value).tobytes(), nd.belief.weights.tobytes())
        for stage in tree.stages for nd in stage]


@pytest.mark.parametrize("name", ["periodic_4stage", "filter_no_sharing",
                                  "filter_control_sharing"])
def test_last_stage_bits_do_not_depend_on_the_batch(problems_dir, filter_family_doc,
                                                     monkeypatch, name):
    # a batch of one node once took a matrix-vector product, whose sums
    # are grouped differently from those of a matrix-matrix product; under
    # control sharing a batch pools the nodes of many supports
    if name == "periodic_4stage":
        spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    elif name == "filter_no_sharing":
        spec, _ = problem_from_document(filter_family_doc(21, 4))
    else:
        spec, _ = problem_from_document(filter_family_doc(1, 3))
    batched = _solve_bits(spec)
    monkeypatch.setattr(dp, "_BATCH_ENTRIES", 1)  # one node per batch
    assert _solve_bits(spec) == batched


@pytest.mark.parametrize("name", ["periodic_4stage", "filter_control_sharing"])
def test_expansion_bits_do_not_depend_on_the_chunk(problems_dir, filter_family_doc,
                                                   monkeypatch, name):
    # on the filter member, nodes of nine supports interleave in stage 2
    if name == "periodic_4stage":
        spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    else:
        spec, _ = problem_from_document(filter_family_doc(1, 3))
    report, tree = solve_finite(spec)
    bits = _solve_bits(spec)
    calls = []  # one entry per interned batch
    intern, structure = dp._BeliefTable.intern, dp._structure

    def spy(table, rows):
        calls.append(len(rows))
        return intern(table, rows)

    def whole_stage(*args):
        got = structure(*args)
        got.entries = 0  # so every stage is one chunk
        return got

    monkeypatch.setattr(dp._BeliefTable, "intern", spy)
    monkeypatch.setattr(dp, "_structure", whole_stage)
    assert _solve_bits(spec) == bits
    assert len(calls) == tree.horizon  # the roots, then one per stage before the last
    calls.clear()
    monkeypatch.setattr(dp, "_structure", structure)
    monkeypatch.setattr(dp, "_BATCH_ENTRIES", 1)  # one node per chunk
    assert _solve_bits(spec) == bits
    assert len(calls) == 1 + sum(report.stage_nodes[:-1])


@pytest.mark.parametrize("seed", [0, 1])
def test_three_controllers_with_a_continuation_match_the_coordinator_oracle(seed):
    # the basic oracle is left out: it would enumerate about 2.8e14
    # strategies here, far past its cap
    spec = instances.random_delayed_instance(seed, n=3, T=2)
    expect = enumerate_coordinator_strategies(spec).minimum
    for solve in (solve_finite, solve_finite_reduced):
        report, tree = solve(spec)
        assert report.stage_nodes[0] == 1 and report.expanded_classes[0] == 64
        assert abs(report.value - expect) <= 1e-9
        strategy = extract_control_strategy(spec, tree)
        assert abs(exact_cost_of_strategy(spec, strategy) - report.value) <= 1e-9
