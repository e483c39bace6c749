import dataclasses

import numpy as np
import pytest

import instances
from cisolver.dp import solve_finite
from cisolver.errors import InvalidParameter
from cisolver.model import (
    FiniteSpace,
    ProblemSpec,
    Slot,
    slots_cardinality,
    validate_problem,
)
from cisolver.protocols import (
    control_sharing_protocol,
    delayed_sharing_protocol,
    no_sharing_protocol,
    periodic_sharing_protocol,
)

BIN = [FiniteSpace(2), FiniteSpace(2)]


def mem_cards(proto, i):
    return [slots_cardinality(slots, i, BIN, BIN) for slots in proto.mem_slots[i]]


def msg_cards(proto, i):
    return [slots_cardinality(slots, i, BIN, BIN, message=True)
            for slots in proto.msg_slots[i]]


def test_delayed_one_stage_delay_has_empty_memory():
    proto = delayed_sharing_protocol(1, 4, BIN, BIN)
    assert mem_cards(proto, 0) == [1, 1, 1, 1]
    # every stage shares the fresh observation/action pair plus the null value
    assert msg_cards(proto, 0) == [5, 5, 5]
    assert proto.msg_slots[0][0] == (Slot("obs", 1), Slot("act", 1))


def test_delayed_two_stage_delay_memory_growth():
    proto = delayed_sharing_protocol(2, 3, BIN, BIN)
    assert mem_cards(proto, 0) == [1, 4, 4]
    assert msg_cards(proto, 0) == [1, 5]
    # stage 2 sends the stage-1 pair, stage-3 memory holds the stage-2 pair
    assert proto.msg_slots[0][1] == (Slot("obs", 1), Slot("act", 1))
    assert proto.mem_slots[0][2] == (Slot("obs", 2), Slot("act", 2))


def test_delayed_asymmetric_delays():
    proto = delayed_sharing_protocol([1, 2], 3, BIN, BIN)
    assert mem_cards(proto, 0) == [1, 1, 1]
    assert mem_cards(proto, 1) == [1, 4, 4]
    assert msg_cards(proto, 0) == [5, 5]
    assert msg_cards(proto, 1) == [1, 5]


def test_periodic_accumulates_then_dumps():
    proto = periodic_sharing_protocol(2, 4, BIN, BIN)
    assert mem_cards(proto, 0) == [1, 4, 1, 4]
    # the dump at stage 2 carries both accumulated (obs, act) pairs
    assert msg_cards(proto, 0) == [1, 17, 1]
    assert proto.msg_slots[0][1] == (Slot("obs", 1), Slot("act", 1),
                                     Slot("obs", 2), Slot("act", 2))


def test_periodic_period_one_equals_delayed_one():
    a = delayed_sharing_protocol(1, 3, BIN, BIN)
    b = periodic_sharing_protocol(1, 3, BIN, BIN)
    # a protocol is its slots, so equal slots give equal tables
    assert a.mem_slots == b.mem_slots
    assert a.msg_slots == b.msg_slots


def test_control_sharing_memory_is_observation_history():
    proto = control_sharing_protocol(3, BIN, BIN)
    assert mem_cards(proto, 0) == [1, 2, 4]
    assert msg_cards(proto, 0) == [3, 3]
    assert proto.mem_slots[0][2] == (Slot("obs", 1), Slot("obs", 2))
    assert proto.msg_slots[0][1] == (Slot("act", 2),)


def test_no_sharing_window():
    proto = no_sharing_protocol(1, 3, BIN, BIN)
    assert mem_cards(proto, 0) == [1, 4, 4]
    assert msg_cards(proto, 0) == [1, 1]
    zero = no_sharing_protocol(0, 3, BIN, BIN)
    assert mem_cards(zero, 0) == [1, 1, 1]


def test_constructor_parameter_checks():
    with pytest.raises(InvalidParameter):
        delayed_sharing_protocol(0, 3, BIN, BIN)
    with pytest.raises(InvalidParameter):
        delayed_sharing_protocol([1], 3, BIN, BIN)
    with pytest.raises(InvalidParameter):
        periodic_sharing_protocol(0, 3, BIN, BIN)
    with pytest.raises(InvalidParameter):
        no_sharing_protocol(-1, 3, BIN, BIN)


@pytest.mark.parametrize("name", ["delayed", "delayed_state", "periodic",
                                  "control", "no_sharing"])
def test_every_preset_passes_validation(name):
    spec = instances.preset_instance(name, T=4)
    report = validate_problem(spec)
    assert report.ok, str(report)


def delayed_two_spec():
    """A binary problem of three stages under delayed sharing with delay 2."""
    base = instances.random_delayed_instance(0, T=3)
    return dataclasses.replace(base, protocol=delayed_sharing_protocol(2, 3, BIN, BIN))


def test_message_table_matches_slot_encoding():
    # delayed delay 2 at stage 2 sends the stage-1 pair stored in memory:
    # message = 1 + mixed radix of (y_1, u_1), independent of the fresh data
    spec = delayed_two_spec()
    table = spec.msg_map(0, 2)  # shape (|M|, |Y|, |U|)
    for m in range(4):
        assert np.all(table[m] == 1 + m)


def test_memory_update_shifts_window():
    # delayed delay 2: stage-2 memory (y_1, u_1) is replaced by (y_2, u_2)
    spec = delayed_two_spec()
    update = spec.mem_update(0, 2)
    for m in range(4):
        for y in range(2):
            for u in range(2):
                assert update[m, y, u] == 2 * y + u


def test_delayed_and_periodic_delay_one_solve_identically():
    spec = instances.random_delayed_instance(9, T=3)
    value_delayed, _ = solve_finite(spec)
    periodic = ProblemSpec(
        n=spec.n, mode="finite", horizon=spec.horizon, discount=None,
        state_space=spec.state_space, obs_spaces=spec.obs_spaces,
        action_spaces=spec.action_spaces, initial_dist=spec.initial_dist,
        transitions=spec.transitions, obs_kernels=spec.obs_kernels,
        costs=spec.costs,
        protocol=periodic_sharing_protocol(1, spec.horizon,
                                           list(spec.obs_spaces),
                                           list(spec.action_spaces)))
    value_periodic, _ = solve_finite(periodic)
    assert abs(value_delayed.value - value_periodic.value) <= 1e-12
