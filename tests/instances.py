"""Problem builders shared by the test suite and the fixture scripts.

Random instances are seeded and deterministic: kernels are sampled
uniformly and row-normalized, costs are uniform in [0, 1].
"""

import numpy as np

from cisolver.model import (
    FiniteSpace,
    InitialCommonObs,
    ProblemSpec,
)
from cisolver.protocols import (
    control_sharing_protocol,
    delayed_sharing_protocol,
    no_sharing_protocol,
    periodic_sharing_protocol,
)


def _rows(rng, shape):
    a = rng.uniform(size=shape)
    return a / a.sum(axis=-1, keepdims=True)


def _spaces(cards):
    return [FiniteSpace(c) for c in cards]


def random_delayed_instance(seed, n=2, nx=2, ny=2, nu=2, T=2, delay=1):
    """The randomized two-controller family used throughout the suite."""
    rng = np.random.default_rng(seed)
    obs = _spaces([ny] * n)
    act = _spaces([nu] * n)
    return ProblemSpec(
        n=n, mode="finite", horizon=T, discount=None,
        state_space=FiniteSpace(nx),
        obs_spaces=obs, action_spaces=act,
        initial_dist=_rows(rng, (nx,)),
        transitions=[_rows(rng, (nx, nu ** n, nx)) for _ in range(T - 1)],
        obs_kernels=[[_rows(rng, (nx, ny)) for _ in range(T)] for _ in range(n)],
        costs=[rng.uniform(size=(nx, nu ** n)) for _ in range(T)],
        protocol=delayed_sharing_protocol(delay, T, obs, act))


def single_controller_instance(seed, nx=3, ny=2, nu=2, T=3):
    """One controller sharing with itself: a plain partially observed chain."""
    rng = np.random.default_rng(seed)
    obs, act = _spaces([ny]), _spaces([nu])
    return ProblemSpec(
        n=1, mode="finite", horizon=T, discount=None,
        state_space=FiniteSpace(nx),
        obs_spaces=obs, action_spaces=act,
        initial_dist=_rows(rng, (nx,)),
        transitions=[_rows(rng, (nx, nu, nx)) for _ in range(T - 1)],
        obs_kernels=[[_rows(rng, (nx, ny)) for _ in range(T)]],
        costs=[rng.uniform(size=(nx, nu)) for _ in range(T)],
        protocol=delayed_sharing_protocol(1, T, obs, act))


def static_team():
    """One-shot team with a public signal next to the private observations.

    Each controller maps (public signal, private observation) to a
    binary action, so there are 2^4 pure strategies per controller; the
    coordinator sees one of two signal values and picks a pair of maps
    from private observation to action at each, 16 options per value.
    """
    obs = _spaces([2, 2])
    act = _spaces([2, 2])
    cost = np.array([
        [0.0, 1.0, 1.0, 0.5],  # x = 0: agree on 0 is free, agree on 1 costs 0.5
        [0.5, 1.0, 1.0, 0.0],  # x = 1: the other way around
    ])
    return ProblemSpec(
        n=2, mode="finite", horizon=1, discount=None,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=np.array([0.6, 0.4]),
        transitions=[],
        obs_kernels=[[np.array([[0.9, 0.1], [0.2, 0.8]])],
                     [np.array([[0.7, 0.3], [0.4, 0.6]])]],
        costs=[cost],
        protocol=delayed_sharing_protocol(1, 1, obs, act),
        initial_common_obs=InitialCommonObs(
            FiniteSpace(2), np.array([[0.8, 0.2], [0.3, 0.7]])))


def periodic_instance(seed=11, T=4, period=2):
    rng = np.random.default_rng(seed)
    obs = _spaces([2, 2])
    act = _spaces([2, 2])
    return ProblemSpec(
        n=2, mode="finite", horizon=T, discount=None,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=_rows(rng, (2,)),
        transitions=[_rows(rng, (2, 4, 2)) for _ in range(T - 1)],
        obs_kernels=[[_rows(rng, (2, 2)) for _ in range(T)] for _ in range(2)],
        costs=[rng.uniform(size=(2, 4)) for _ in range(T)],
        protocol=periodic_sharing_protocol(period, T, obs, act))


def filter_instance(k):
    """Small seeded instances cycling through all five sharing patterns."""
    rng = np.random.default_rng(1000 + k)
    obs = _spaces([2, 2])
    act = _spaces([2, 2])
    T = 3
    builders = [
        lambda: delayed_sharing_protocol(1, T, obs, act),
        lambda: delayed_sharing_protocol(2, T, obs, act),
        lambda: periodic_sharing_protocol(2, T, obs, act),
        lambda: control_sharing_protocol(T, obs, act),
        lambda: no_sharing_protocol(1, T, obs, act),
    ]
    return ProblemSpec(
        n=2, mode="finite", horizon=T, discount=None,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=_rows(rng, (2,)),
        transitions=[_rows(rng, (2, 4, 2)) for _ in range(T - 1)],
        obs_kernels=[[_rows(rng, (2, 2)) for _ in range(T)] for _ in range(2)],
        costs=[rng.uniform(size=(2, 4)) for _ in range(T)],
        protocol=builders[k % 5]())


def preset_instance(name, T=4):
    """A binary two-controller problem under one of the preset protocols."""
    rng = np.random.default_rng(7)
    obs = _spaces([2, 2])
    act = _spaces([2, 2])
    protocols = {
        "delayed": lambda: delayed_sharing_protocol(2, T, obs, act),
        "delayed_state": lambda: delayed_sharing_protocol(1, T, obs, act),
        "periodic": lambda: periodic_sharing_protocol(2, T, obs, act),
        "control": lambda: control_sharing_protocol(T, obs, act),
        "no_sharing": lambda: no_sharing_protocol(1, T, obs, act),
    }
    if name == "delayed_state":
        # observations reveal the state: |Y| = |X| and the kernel is identity
        obs_kernels = [[np.eye(2) for _ in range(T)] for _ in range(2)]
    else:
        obs_kernels = [[_rows(rng, (2, 2)) for _ in range(T)] for _ in range(2)]
    return ProblemSpec(
        n=2, mode="finite", horizon=T, discount=None,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=_rows(rng, (2,)),
        transitions=[_rows(rng, (2, 4, 2)) for _ in range(T - 1)],
        obs_kernels=obs_kernels,
        costs=[rng.uniform(size=(2, 4)) for _ in range(T)],
        protocol=protocols[name]())


def discounted_constant(beta, cost_value=1.0):
    """Every state and action costs the same, so the value is c/(1-beta)."""
    obs = _spaces([2, 2])
    act = _spaces([2, 2])
    return ProblemSpec(
        n=2, mode="discounted", horizon=None, discount=beta,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=np.array([0.5, 0.5]),
        transitions=[np.full((2, 4, 2), 0.5)],
        obs_kernels=[[np.array([[0.8, 0.2], [0.2, 0.8]])] for _ in range(2)],
        costs=[np.full((2, 4), cost_value)],
        protocol=no_sharing_protocol(0, 2, obs, act))


def discounted_chain(beta=0.9, obs_kernel=None):
    """Two-state single-controller chain with state-revealing observations.

    Deterministic observations keep the reachable belief set finite, so
    the fixed point can be compared against an independent value
    iteration.  A noisy ``obs_kernel`` (rows ``x``, columns ``y``) makes
    the reachable set infinite.
    """
    obs, act = _spaces([2]), _spaces([2])
    transition = np.array([
        [[0.9, 0.1], [0.4, 0.6]],  # from x = 0 under u = 0, 1
        [[0.3, 0.7], [0.8, 0.2]],  # from x = 1
    ])
    cost = np.array([[0.0, 0.6], [1.0, 0.3]])
    return ProblemSpec(
        n=1, mode="discounted", horizon=None, discount=beta,
        state_space=FiniteSpace(2),
        obs_spaces=obs, action_spaces=act,
        initial_dist=np.array([0.7, 0.3]),
        transitions=[transition],
        obs_kernels=[[np.eye(2) if obs_kernel is None else obs_kernel]],
        costs=[cost],
        protocol=delayed_sharing_protocol(1, 2, obs, act))
