"""Reference values computed apart from the solver.

Each function reads only the model's tables (initial law, transition
kernels, observation kernels, costs) and never calls into ``dp``,
``coordinator``, ``oracle`` or ``sim``:

* ``full_information_bound``: a controller that sees the state does at
  least as well as any decentralized team, so backward induction on
  ``x`` alone gives a lower bound on the optimal cost.
* ``open_loop_bound``: a fixed joint action sequence is a feasible
  strategy for every sharing pattern, so the best one gives an upper
  bound.
* ``state_revealing_discounted_value``: when the single controller
  observes the state exactly, the problem is a finite MDP whose optimal
  stationary policy is deterministic; solving ``(I - beta P_mu) v = c_mu``
  for every such policy ``mu`` and taking the least expected cost under
  the initial law gives the exact value.
"""

import itertools

import numpy as np


def full_information_bound(spec) -> float:
    """Optimal finite-horizon cost when every controller sees ``x_t``."""
    v = np.zeros(spec.state_space.cardinality)
    for t in range(spec.horizon, 0, -1):
        q = spec.cost(t).copy()
        if t < spec.horizon:
            q += spec.transition(t) @ v
        v = q.min(axis=1)
    return float(spec.initial_dist @ v)


def open_loop_bound(spec) -> float:
    """Least expected cost over fixed joint action sequences ``u_1..u_T``."""
    best = np.inf
    for seq in itertools.product(range(spec.joint_action_count),
                                 repeat=spec.horizon):
        dist = np.asarray(spec.initial_dist, dtype=float)
        total = 0.0
        for t, u in enumerate(seq, start=1):
            total += float(dist @ spec.cost(t)[:, u])
            if t < spec.horizon:
                dist = dist @ spec.transition(t)[:, u, :]
        best = min(best, total)
    return best


def state_revealing_discounted_value(spec) -> float:
    """Exact discounted value of a one-controller, state-revealing problem."""
    nx = spec.state_space.cardinality
    if spec.n != 1 or not np.array_equal(spec.obs_kernel(0, 1), np.eye(nx)):
        raise ValueError("the exact MDP value needs one controller that "
                         "observes the state")
    beta = spec.discount
    kernel, cost = spec.transition(1), spec.cost(1)
    states = np.arange(nx)
    best = np.inf
    for mu in itertools.product(range(cost.shape[1]), repeat=nx):
        p_mu = kernel[states, list(mu), :]
        c_mu = cost[states, list(mu)]
        v = np.linalg.solve(np.eye(nx) - beta * p_mu, c_mu)
        best = min(best, float(spec.initial_dist @ v))
    return best
