import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
import reference
from cisolver.coordinator import (
    Belief,
    PrescriptionSpace,
    canonical_items,
    canonical_keys,
    chi,
    eta_update,
    expected_cost,
    initial_belief,
    message_distribution,
    prescribe,
    stage_layout,
    zeta,
)
from cisolver.dp import solve_discounted, solve_finite, solve_finite_reduced
from cisolver.errors import InvalidParameter, SizeOverflow, ZeroProbabilityObservation
from cisolver.model import FiniteSpace, ProblemSpec, encode_mixed_radix, flatten_action
from cisolver.protocols import delayed_sharing_protocol
from cisolver.serialize import load_problem


def tiny_chain():
    """One controller, delay-1 sharing, fixed round numbers."""
    obs, act = [FiniteSpace(2)], [FiniteSpace(2)]
    return ProblemSpec(
        n=1, mode="finite", horizon=2, discount=None,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=np.array([0.6, 0.4]),
        transitions=[np.array([[[0.9, 0.1], [0.3, 0.7]],
                               [[0.5, 0.5], [0.2, 0.8]]])],
        obs_kernels=[[np.array([[0.9, 0.1], [0.2, 0.8]]),
                      np.array([[0.7, 0.3], [0.4, 0.6]])]],
        costs=[np.array([[0.0, 1.0], [1.0, 0.0]]) for _ in range(2)],
        protocol=delayed_sharing_protocol(1, 2, obs, act))


def test_initial_belief_is_joint_state_observation_law():
    spec = tiny_chain()
    roots = initial_belief(spec)
    assert len(roots) == 1
    prob, belief = roots[0]
    assert prob == 1.0
    # order is (x, y): 0.6 * (0.9, 0.1) and 0.4 * (0.2, 0.8)
    assert np.allclose(belief.weights, [0.54, 0.06, 0.08, 0.32])
    assert belief.dims == (2, 2, 1)


def test_initial_belief_splits_on_common_signal():
    spec = instances.static_team()
    roots = initial_belief(spec)
    assert len(roots) == 2
    probs = [p for p, _ in roots]
    # P(signal 0) = 0.6 * 0.8 + 0.4 * 0.3
    assert abs(probs[0] - 0.6) < 1e-12
    assert abs(probs[1] - 0.4) < 1e-12
    for _, belief in roots:
        assert abs(belief.weights.sum() - 1.0) < 1e-12


def test_enumerate_states_is_lexicographic_and_invertible():
    spec = instances.random_delayed_instance(1, delay=2, T=3)
    layout = stage_layout(spec, 3)
    grid = [layout.x_of] + layout.y_of + layout.m_of
    assert len(grid) == len(layout.dims) == 1 + 2 * spec.n
    assert layout.m_of[0].max() > 0  # the memories take part in the order
    assert np.array_equal(np.ravel_multi_index(grid, layout.dims),
                          np.arange(layout.size))
    flat = list(zip(*(g.tolist() for g in grid)))
    assert flat == sorted(flat)
    assert len(set(flat)) == layout.size


def test_prescription_space_size_and_round_trip():
    spec = instances.random_delayed_instance(1)
    space = PrescriptionSpace(spec, 2)
    # each controller maps 2 observations x 2 remembered values? delay 1
    # keeps memory empty, so 2 points each and 2^2 tables per controller
    assert space.size == 16
    for idx in range(space.size):
        gamma = space.decode(idx)
        assert space.encode(gamma.tables) == idx


def test_decode_returns_one_read_only_prescription_per_index():
    spec = instances.random_delayed_instance(1)
    space = PrescriptionSpace(spec, 2)
    gamma = space.decode(11)
    assert space.decode(11) is gamma
    assert space.decode(12) is not gamma
    for table in gamma.tables:
        with pytest.raises(ValueError):
            table[0, 0] = 1
    fresh = PrescriptionSpace(spec, 2).decode(11)
    assert fresh is not gamma
    assert all(np.array_equal(a, b) for a, b in zip(fresh.tables, gamma.tables))


def test_iterating_a_space_leaves_its_memo_empty():
    spec = instances.random_delayed_instance(1)
    space = PrescriptionSpace(spec, 2)
    assert [gamma.index for gamma in space] == list(range(space.size))
    assert space._decoded == {}
    space.decode(3)
    assert list(space._decoded) == [3]


def test_prescription_space_cap():
    spec = instances.random_delayed_instance(1)
    with pytest.raises(SizeOverflow):
        PrescriptionSpace(spec, 1, cap=15)


def test_message_split_and_eta_update_match_hand_computation():
    spec = tiny_chain()
    _, belief = initial_belief(spec)[0]
    space = PrescriptionSpace(spec, 1)
    gamma = space.decode(space.encode([np.array([[0], [1]])]))  # u = y

    dist = message_distribution(spec, belief, gamma)
    # null message never fires; z = 1 + (2 y + u) with u = y
    assert np.allclose(dist, [0.0, 0.62, 0.0, 0.0, 0.38])
    assert abs(dist[1] - 0.62) < 1e-12

    nxt = eta_update(spec, belief, gamma, 1)
    # condition on y = 0 (posterior (0.54, 0.08) / 0.62), act u = 0,
    # push through the stage-1 kernel rows and the stage-2 channel
    post = np.array([0.54, 0.08]) / 0.62
    x2 = post @ spec.transitions[0][:, 0, :]
    expect = (x2[:, None] * spec.obs_kernels[0][1]).reshape(-1)
    assert np.allclose(nxt.weights, expect, atol=1e-12)
    assert abs(nxt.weights.sum() - 1.0) < 1e-12


def test_eta_update_rejects_zero_probability_message():
    spec = tiny_chain()
    _, belief = initial_belief(spec)[0]
    gamma = PrescriptionSpace(spec, 1).decode(0)  # u = 0 always
    # states ravel as (x, y); the states with y = 0 emit z = 1
    silent = Belief(t=1, n=1, dims=belief.dims, weights=np.array([0.0, 0.5, 0.0, 0.5]))
    faint = Belief(t=1, n=1, dims=belief.dims,
                   weights=np.array([0.6e-16, 0.5, 0.4e-16, 0.5]))
    # it raises before it divides by the mass: no warning of any kind
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # z = 2 encodes (y = 0, u = 1), impossible under this prescription
        with pytest.raises(ZeroProbabilityObservation):
            eta_update(spec, belief, gamma, 2)
        # the states that emit z = 1 carry no weight
        with pytest.raises(ZeroProbabilityObservation, match="probability 0.0"):
            eta_update(spec, silent, gamma, 1)
        # they carry a mass in (0, 1e-15]
        with pytest.raises(ZeroProbabilityObservation):
            eta_update(spec, faint, gamma, 1)


def test_the_last_stage_emits_no_message():
    spec = tiny_chain()
    layout = stage_layout(spec, 2)
    belief = Belief(t=2, n=1, dims=layout.dims, weights=np.full(layout.size, 1 / layout.size))
    gamma = PrescriptionSpace(spec, 2).decode(0)
    with pytest.raises(InvalidParameter, match="stage 2 has no message stage"):
        message_distribution(spec, belief, gamma)


def test_expected_cost_matches_direct_sum():
    spec = tiny_chain()
    _, belief = initial_belief(spec)[0]
    gamma = PrescriptionSpace(spec, 1).decode(1)  # y=0 -> 0, y=1 -> 1
    # cost c(x, u) = 1 on mismatch x != u
    expect = 0.06 * 1.0 + 0.08 * 1.0  # (x=0,y=1) acts 1; (x=1,y=0) acts 0
    assert abs(expected_cost(spec, belief, gamma) - expect) < 1e-12


@given(st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=40, deadline=None)
def test_message_distribution_sums_to_one(gamma_idx, seed):
    spec = instances.random_delayed_instance(2)
    layout_dims = initial_belief(spec)[0][1].dims
    rng = np.random.default_rng(seed)
    w = rng.uniform(size=int(np.prod(layout_dims)))
    w /= w.sum()
    belief = Belief(t=1, n=2, dims=layout_dims, weights=w)
    gamma = PrescriptionSpace(spec, 1).decode(gamma_idx)
    dist = message_distribution(spec, belief, gamma)
    assert abs(dist.sum() - 1.0) < 1e-9
    assert dist.min() >= 0.0


def test_prescribe_matches_a_per_state_loop(problems_dir):
    """Joint action, message and next memory at every ``(node, state)``.

    Random tables for a batch of nodes, against the protocol's maps read
    one state at a time.  ``periodic_4stage`` has memories of 4 values at
    stages 2 and 4; in the discounted chain the next memories are those of
    stage 1.
    """
    rng = np.random.default_rng(0)
    periodic, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    for spec in (instances.random_delayed_instance(0, n=3, T=3), periodic,
                 instances.discounted_chain(0.9)):
        finite = spec.mode == "finite"
        for t in range(1, spec.horizon + 1) if finite else (1,):
            layout = stage_layout(spec, t)
            nodes = 3
            tables = [rng.integers(0, card, size=(nodes, ny, nm)) for card, ny, nm
                      in zip(spec.action_cards, layout.ny, layout.nm)]
            u, z, m_next = prescribe(spec, t, tables)
            assert len(u) == nodes * layout.size
            emits = not finite or t < spec.horizon
            if not emits:
                assert z is None and m_next is None
            else:
                next_mem = spec.mem_cards(t + 1 if finite else 1)
            for k in range(nodes):
                for state in range(layout.size):
                    s = k * layout.size + state
                    _, *rest = np.unravel_index(state, layout.dims)
                    ys, ms = rest[:spec.n], rest[spec.n:]
                    acts = [int(tables[i][k, ys[i], ms[i]]) for i in range(spec.n)]
                    assert u[s] == flatten_action(acts, spec.action_cards)
                    if not emits:
                        continue
                    point = [(ms[i], ys[i], acts[i]) for i in range(spec.n)]
                    assert z[s] == encode_mixed_radix(
                        [spec.msg_map(i, t)[p] for i, p in enumerate(point)],
                        spec.msg_cards(t))
                    assert m_next[s] == encode_mixed_radix(
                        [spec.mem_update(i, t)[p] for i, p in enumerate(point)], next_mem)


def test_reduction_and_lift_are_inverse_on_reachable_beliefs(solved_seed1):
    spec, _, tree = solved_seed1
    for stage in tree.stages:
        for node in stage:
            reduced = chi(node.belief)
            lifted = zeta(spec, reduced)
            assert np.allclose(lifted.weights, node.belief.weights, atol=1e-13)
            assert reduced.dims == (2, 1, 1)


def test_canonical_key_clears_negative_zero():
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.5, 0.5, -0.0, 0.0])
    # the solver interns batches of rows by these items; their bytes are
    # the keys, which stationary policy documents carry in hex
    key = a.tobytes()
    rows = np.stack([a, b, a + 1e-14])
    items = canonical_items(rows)
    assert items.shape == (3,)
    assert items.tolist() == canonical_keys(rows) == [key] * 3
    assert canonical_keys(b[None]) == [key]


def _measure_of(belief):
    """A full belief as an unnormalized trajectory measure of ``reference``."""
    measure = {}
    for flat in np.flatnonzero(belief.weights).tolist():
        x, *rest = (int(v) for v in np.unravel_index(flat, belief.dims))
        measure[(x, tuple(rest[:belief.n]), tuple(rest[belief.n:]))] = \
            float(belief.weights[flat])
    return measure


@pytest.mark.parametrize("name", ["delayed_sharing_2x2", "periodic_4stage",
                                  "acceptance_seed1", "discounted_chain"])
def test_eta_update_matches_the_reference_extension(problems_dir, name):
    # eta_update and the solver share one routine, so this is the check
    # of its arithmetic: at every (node, message) of both variants' trees,
    # or of the stationary entries, against a per-trajectory extension
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    if spec.mode == "discounted":
        cases = [(entry.belief, entry.gamma_index, entry.children)
                 for entry in solve_discounted(spec)[1].entries]
    else:
        cases = [(zeta(spec, nd.belief) if tree.variant == "reduced" else nd.belief,
                  nd.gamma_index, nd.children)
                 for tree in (solve_finite(spec)[1], solve_finite_reduced(spec)[1])
                 for stage in tree.stages for nd in stage]
    checked = 0
    for belief, index, children in cases:
        gamma = PrescriptionSpace(spec, belief.t).decode(index)
        for z in children:
            got = eta_update(spec, belief, gamma, z)
            posterior = reference.normalize_measure(reference.extend_measure(
                spec, _measure_of(belief), gamma.tables, z, belief.t))
            expect = np.zeros_like(got.weights)
            for (x, ys, ms), p in posterior.items():
                expect[np.ravel_multi_index((x,) + ys + ms, got.dims)] = p
            assert np.abs(got.weights - expect).max() <= 1e-12
            checked += 1
    assert checked >= 4


def walk_paths(spec, tree):
    """Yield (node, gamma tables along the way, messages along the way)."""
    spaces = {t: PrescriptionSpace(spec, t) for t in range(1, tree.horizon + 1)}
    stack = [(node_id, [], []) for _, node_id in tree.roots]
    while stack:
        node_id, gammas, msgs = stack.pop()
        node = tree.node(node_id)
        yield node, gammas, msgs
        tables = spaces[node.t].decode(node.gamma_index).tables
        for z, child in node.children.items():
            stack.append((child, gammas + [tables], msgs + [z]))


@pytest.mark.parametrize("k", [0, 2, 3])
def test_propagated_beliefs_match_enumerated_posteriors(k):
    spec = instances.filter_instance(k)
    _, tree = solve_finite(spec)
    checked = 0
    for node, gammas, msgs in walk_paths(spec, tree):
        posterior = reference.bayes_posterior(spec, gammas, msgs)
        mine = np.zeros_like(node.belief.weights)
        for (x, ys, ms), p in posterior.items():
            flat = np.ravel_multi_index((x,) + ys + ms, node.belief.dims)
            mine[flat] = p
        tv = 0.5 * np.abs(mine - node.belief.weights).sum()
        assert tv <= 1e-9
        checked += 1
    # the walk covers every reachable path; at minimum one per stage
    assert checked >= tree.horizon
