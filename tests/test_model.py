import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from cisolver.errors import (
    InvalidDistribution,
    InvalidParameter,
    MissingEntry,
)
from cisolver.model import (
    FiniteSpace,
    NoiseModel,
    ProblemSpec,
    SharingProtocol,
    Slot,
    build_kernel_from_functional,
    decode_mixed_radix,
    encode_mixed_radix,
    flatten_action,
    unflatten_action,
    validate_problem,
)
from cisolver.protocols import (
    control_sharing_protocol,
    delayed_sharing_protocol,
    no_sharing_protocol,
)
from cisolver.serialize import load_problem, problem_from_document


def test_finite_space_rejects_bad_cardinality():
    with pytest.raises(InvalidParameter):
        FiniteSpace(0)


def test_finite_space_rejects_label_mismatch():
    with pytest.raises(InvalidParameter):
        FiniteSpace(2, labels=("a",))
    with pytest.raises(InvalidParameter):
        FiniteSpace(2, labels=("a", "a"))


def test_noise_model_rejects_bad_distributions():
    with pytest.raises(InvalidDistribution):
        NoiseModel(FiniteSpace(2), [0.5, 0.4])
    with pytest.raises(InvalidDistribution):
        NoiseModel(FiniteSpace(2), [1.5, -0.5])
    with pytest.raises(InvalidParameter):
        NoiseModel(FiniteSpace(3), [0.5, 0.5])
    with pytest.raises(InvalidDistribution, match="non-finite"):
        NoiseModel(FiniteSpace(2), [math.nan, 1.0])


def test_mixed_radix_first_digit_most_significant():
    assert encode_mixed_radix([1, 0], [2, 3]) == 3
    assert encode_mixed_radix([0, 2], [2, 3]) == 2
    assert decode_mixed_radix(5, [2, 3]) == (1, 2)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
       .flatmap(lambda cards: st.tuples(
           st.just(cards),
           st.tuples(*[st.integers(min_value=0, max_value=c - 1)
                       for c in cards]))))
@settings(max_examples=60, deadline=None)
def test_mixed_radix_round_trip(case):
    cards, values = case
    idx = encode_mixed_radix(values, cards)
    assert 0 <= idx < int(np.prod(cards))
    assert decode_mixed_radix(idx, cards) == tuple(values)


def test_action_flattening_convention():
    # controller 0 is the most significant digit
    assert flatten_action([1, 0], [2, 2]) == 2
    assert flatten_action([0, 1], [2, 2]) == 1
    assert unflatten_action(3, [2, 2]) == (1, 1)


def test_functional_kernel_xor_dynamics():
    # x' = x xor u xor w with P(w=1) = 0.3 puts 0.7 on staying at x xor u
    noise = NoiseModel(FiniteSpace(2), [0.7, 0.3])
    table = {(x, u, w): x ^ u ^ w for x in range(2) for u in range(2)
             for w in range(2)}
    kernel = build_kernel_from_functional(table, noise)
    assert np.allclose(kernel[0, 0], [0.7, 0.3])
    assert np.allclose(kernel[0, 1], [0.3, 0.7])
    assert np.allclose(kernel[1, 0], [0.3, 0.7])


def test_functional_kernel_dict_and_nested_agree():
    noise = NoiseModel(FiniteSpace(2), [0.6, 0.4])
    nested = [[[0, 1], [1, 0]], [[1, 1], [0, 0]]]
    as_dict = {(x, u, w): nested[x][u][w] for x in range(2) for u in range(2)
               for w in range(2)}
    assert np.array_equal(build_kernel_from_functional(nested, noise),
                          build_kernel_from_functional(as_dict, noise))


def test_functional_kernel_missing_entry():
    noise = NoiseModel(FiniteSpace(2), [0.5, 0.5])
    table = {(0, 0, 0): 0, (0, 0, 1): 1}
    with pytest.raises(MissingEntry):
        build_kernel_from_functional(table, noise, n_states=2, n_actions=2)


def test_functional_kernel_rejects_out_of_range_state():
    noise = NoiseModel(FiniteSpace(1), [1.0])
    with pytest.raises(MissingEntry):
        build_kernel_from_functional([[[5]]], noise)


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_functional_kernel_rows_are_stochastic(nx, nu, nw, seed):
    rng = np.random.default_rng(seed)
    dist = rng.uniform(size=nw)
    dist /= dist.sum()
    noise = NoiseModel(FiniteSpace(nw), dist)
    table = rng.integers(0, nx, size=(nx, nu, nw))
    kernel = build_kernel_from_functional(table, noise)
    assert kernel.min() >= 0.0
    assert np.allclose(kernel.sum(axis=-1), 1.0, atol=1e-12)


def test_validate_accepts_seeded_instance():
    spec = instances.random_delayed_instance(1)
    assert validate_problem(spec).ok


def test_validate_names_bad_kernel_row():
    spec = instances.random_delayed_instance(1)
    kernel = spec.transitions[0].copy()
    kernel[0, 2] = [0.5, 0.4]
    bad = ProblemSpec(
        n=spec.n, mode="finite", horizon=spec.horizon, discount=None,
        state_space=spec.state_space, obs_spaces=spec.obs_spaces,
        action_spaces=spec.action_spaces, initial_dist=spec.initial_dist,
        transitions=[kernel], obs_kernels=spec.obs_kernels, costs=spec.costs,
        protocol=spec.protocol)
    report = validate_problem(bad)
    assert not report.ok
    assert "kernel-row-sum" in report.codes()
    finding = [f for f in report.findings if f.code == "kernel-row-sum"][0]
    assert finding.where == "transition[t=1][0, 2]"


def test_validate_flags_non_finite_cost():
    spec = instances.random_delayed_instance(1)
    costs = [c.copy() for c in spec.costs]
    costs[1][0, 0] = np.nan
    bad = ProblemSpec(
        n=spec.n, mode="finite", horizon=spec.horizon, discount=None,
        state_space=spec.state_space, obs_spaces=spec.obs_spaces,
        action_spaces=spec.action_spaces, initial_dist=spec.initial_dist,
        transitions=spec.transitions, obs_kernels=spec.obs_kernels,
        costs=costs, protocol=spec.protocol)
    assert "cost-not-finite" in validate_problem(bad).codes()


def _with_a_nan(doc, path):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = math.nan


@pytest.mark.parametrize("path,code,where", [
    (("initial_dist", 1), "dist-not-finite", "initial_dist[0]"),
    (("transition", "kernel", 0, 1, 2, 0), "kernel-not-finite",
     "transition[t=1][1, 2]"),
    (("obs_kernels", 1, 0, 1, 1), "kernel-not-finite", "obs_kernel[i=1][t=1][1]"),
    (("initial_common_obs", "kernel", 0, 0), "kernel-not-finite",
     "initial_common_obs[0]"),
])
def test_validate_flags_a_nan_in_every_stochastic_table(problems_dir, path, code,
                                                        where):
    with open(problems_dir / "delayed_sharing_2x2.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["initial_common_obs"] = {"cardinality": 2,
                                 "kernel": [[0.8, 0.2], [0.3, 0.7]]}
    assert problem_from_document(copy.deepcopy(doc))[1].ok
    _with_a_nan(doc, path)
    _, report = problem_from_document(doc)
    assert [(f.code, f.where) for f in report.findings] == [(code, where)]


def test_validate_flags_wrong_table_counts():
    spec = instances.random_delayed_instance(1)
    bad = ProblemSpec(
        n=spec.n, mode="finite", horizon=spec.horizon, discount=None,
        state_space=spec.state_space, obs_spaces=spec.obs_spaces,
        action_spaces=spec.action_spaces, initial_dist=spec.initial_dist,
        transitions=spec.transitions, obs_kernels=spec.obs_kernels,
        costs=spec.costs[:1], protocol=spec.protocol)
    assert "table-count" in validate_problem(bad).codes()


def test_validate_flags_protocol_horizon_mismatch():
    spec = instances.random_delayed_instance(1)
    obs, act = list(spec.obs_spaces), list(spec.action_spaces)
    bad = ProblemSpec(
        n=spec.n, mode="finite", horizon=spec.horizon, discount=None,
        state_space=spec.state_space, obs_spaces=spec.obs_spaces,
        action_spaces=spec.action_spaces, initial_dist=spec.initial_dist,
        transitions=spec.transitions, obs_kernels=spec.obs_kernels,
        costs=spec.costs,
        protocol=delayed_sharing_protocol(1, spec.horizon + 1, obs, act))
    assert "protocol-horizon" in validate_problem(bad).codes()


@pytest.mark.parametrize("preset", ["delayed", "control"])
@pytest.mark.parametrize("wider", ["obs", "actions"])
def test_a_protocol_built_for_other_spaces_gives_the_spec_tables(preset, wider):
    """A protocol is its slots: the sizes and the tables follow from the
    slots and the spec's own spaces, whatever spaces a preset was given."""
    base = instances.random_delayed_instance(1, T=3)
    three = [FiniteSpace(3)] * base.n
    obs = three if wider == "obs" else list(base.obs_spaces)
    act = three if wider == "actions" else list(base.action_spaces)

    def build(obs, act):
        return (delayed_sharing_protocol(2, base.horizon, obs, act) if preset == "delayed"
                else control_sharing_protocol(base.horizon, obs, act))

    own = dataclasses.replace(base, protocol=build(base.obs_spaces, base.action_spaces))
    other = dataclasses.replace(base, protocol=build(obs, act))
    assert validate_problem(other).ok
    for i in range(base.n):
        for t in range(1, base.horizon):
            assert np.array_equal(other.msg_map(i, t), own.msg_map(i, t))
            assert np.array_equal(other.mem_update(i, t), own.mem_update(i, t))


def test_validate_flags_nonempty_initial_memory():
    obs, act = [FiniteSpace(2)], [FiniteSpace(2)]
    proto = SharingProtocol(mem_slots=[[(Slot("obs", 1),), (Slot("obs", 1),)]],
                            msg_slots=[[()]])
    spec = instances.single_controller_instance(3, nx=2, T=2)
    bad = ProblemSpec(
        n=1, mode="finite", horizon=2, discount=None,
        state_space=spec.state_space, obs_spaces=obs, action_spaces=act,
        initial_dist=spec.initial_dist, transitions=spec.transitions[:1],
        obs_kernels=[spec.obs_kernels[0][:2]], costs=spec.costs[:2],
        protocol=proto)
    assert "initial-memory-nonempty" in validate_problem(bad).codes()


@pytest.mark.parametrize("mode", ["finite", "discounted"])
def test_validate_reports_a_slot_of_unknown_kind(problems_dir, mode):
    if mode == "finite":
        spec = instances.random_delayed_instance(1, T=3)
    else:
        spec, report = load_problem(str(problems_dir / "discounted_chain.json"))
        assert report.ok
    mem = [list(per_i) for per_i in spec.protocol.mem_slots]
    mem[0][1] = (Slot("foo", 1),)
    bad = dataclasses.replace(spec, protocol=SharingProtocol(
        mem_slots=mem, msg_slots=spec.protocol.msg_slots))
    report = validate_problem(bad)
    assert ("slot-time", "protocol[i=0][t=2]") in {(f.code, f.where)
                                                   for f in report.findings}


def test_validate_rejects_discounted_control_sharing():
    base = instances.discounted_constant(0.5)
    bad = ProblemSpec(
        n=base.n, mode="discounted", horizon=None, discount=0.5,
        state_space=base.state_space, obs_spaces=base.obs_spaces,
        action_spaces=base.action_spaces, initial_dist=base.initial_dist,
        transitions=base.transitions, obs_kernels=base.obs_kernels,
        costs=base.costs,
        protocol=control_sharing_protocol(2, list(base.obs_spaces),
                                          list(base.action_spaces)))
    report = validate_problem(bad)
    assert not report.ok
    assert "memory-not-stationary" in report.codes()


def test_validate_rejects_discount_out_of_range():
    base = instances.discounted_constant(0.5)
    bad = ProblemSpec(
        n=base.n, mode="discounted", horizon=None, discount=1.0,
        state_space=base.state_space, obs_spaces=base.obs_spaces,
        action_spaces=base.action_spaces, initial_dist=base.initial_dist,
        transitions=base.transitions, obs_kernels=base.obs_kernels,
        costs=base.costs, protocol=base.protocol)
    assert "discount-range" in validate_problem(bad).codes()


def test_discounted_accessors_ignore_stage_index():
    spec = instances.discounted_constant(0.5)
    assert spec.transition(1) is spec.transition(7)
    assert spec.cost(1) is spec.cost(3)
    assert spec.mem_cards(5) == (1, 1)


def test_validate_accepts_no_sharing_window_zero():
    spec = instances.discounted_constant(0.9)
    assert validate_problem(spec).ok
    assert spec.msg_cards(1) == (1, 1)
