"""Independently coded textbook recursions used as oracles by the tests.

These deliberately avoid the package's solver machinery: they work on
plain arrays with straightforward enumeration, so agreement with the
solver is a meaningful check rather than a tautology.
"""

import math

import numpy as np


def finite_pomdp_value(initial, transitions, obs_kernels, costs):
    """Optimal total cost for one controller observing a hidden chain.

    The controller sees ``y_t`` (law ``obs_kernels[t-1][x, y]``) before
    choosing ``u_t``.  The recursion runs over the predictive belief
    ``b(x_t)`` given everything before stage ``t``:

        V_t(b) = sum_y P(y | b) min_u ( E[c_t(x, u) | b, y] + V_t+1(b') )

    where ``b'`` pushes the posterior through ``transitions[t-1][x, u, x']``.
    """
    T = len(costs)

    def value(b, t):
        obs = obs_kernels[t - 1]
        cost = costs[t - 1]
        total = 0.0
        for y in range(obs.shape[1]):
            mass = float(b @ obs[:, y])
            if mass <= 1e-15:
                continue
            post = b * obs[:, y] / mass
            best = np.inf
            for u in range(cost.shape[1]):
                q = float(post @ cost[:, u])
                if t < T:
                    q += value(post @ transitions[t - 1][:, u, :], t + 1)
                best = min(best, q)
            total += mass * best
        return total

    return value(np.asarray(initial, dtype=float), 1)


def truncation_depth(discount, epsilon, max_abs_cost):
    """Smallest depth whose geometric cost tail is below ``epsilon``."""
    if discount == 0.0 or max_abs_cost == 0.0:
        return 1
    k = math.ceil(math.log(epsilon * (1.0 - discount) / max_abs_cost)
                  / math.log(discount))
    return max(1, k)


def discounted_pomdp_value(initial, transition, obs_kernel, cost, beta, depth):
    """Depth-limited discounted value iteration for the same setting.

    Dropping the tail after ``depth`` stages leaves an error of at most
    ``beta**depth * max|c| / (1 - beta)``.  Beliefs are memoized on a
    rounded key so recurring beliefs are evaluated once per depth.
    """
    memo = {}

    def value(b, k):
        if k <= 0:
            return 0.0
        key = ((np.round(b, 12) + 0.0).tobytes(), k)
        if key in memo:
            return memo[key]
        total = 0.0
        for y in range(obs_kernel.shape[1]):
            mass = float(b @ obs_kernel[:, y])
            if mass <= 1e-15:
                continue
            post = b * obs_kernel[:, y] / mass
            best = min(
                float(post @ cost[:, u])
                + beta * value(post @ transition[:, u, :], k - 1)
                for u in range(cost.shape[1]))
            total += mass * best
        memo[key] = total
        return total

    return value(np.asarray(initial, dtype=float), depth)


def closed_graph_discounted_value(initial, transition, obs_kernel, cost, beta,
                                  tol=1e-13, cap=10_000):
    """Discounted value on the closed graph of predictive beliefs.

    The same setting as :func:`discounted_pomdp_value`, solved another
    way: the beliefs reachable from ``initial`` are collected under the
    rounded key first (the graph must close within ``cap`` of them), and
    value iteration then runs on that finite graph until the residual
    rule ``beta / (1 - beta) * |V_k - V_{k-1}| <= tol`` bounds the
    distance to its fixed point.
    """
    def key(b):
        return (np.round(b, 12) + 0.0).tobytes()

    n_obs, n_act = obs_kernel.shape[1], cost.shape[1]
    beliefs, index = [np.asarray(initial, dtype=float)], {}
    index[key(beliefs[0])] = 0
    mass, stage, succ = [], [], []  # per belief: (y,), (y, u), (y, u)
    for b in beliefs:  # grows while it is walked, so it ends closed
        assert len(beliefs) <= cap, "the belief graph does not close"
        mass.append(np.zeros(n_obs))
        stage.append(np.zeros((n_obs, n_act)))
        succ.append(np.zeros((n_obs, n_act), dtype=int))
        for y in range(n_obs):
            m = float(b @ obs_kernel[:, y])
            if m <= 1e-15:
                continue
            post = b * obs_kernel[:, y] / m
            mass[-1][y] = m
            for u in range(n_act):
                stage[-1][y, u] = float(post @ cost[:, u])
                nxt = post @ transition[:, u, :]
                k = index.setdefault(key(nxt), len(beliefs))
                if k == len(beliefs):
                    beliefs.append(nxt)
                succ[-1][y, u] = k
    mass, stage, succ = np.array(mass), np.array(stage), np.array(succ)
    values = np.zeros(len(beliefs))
    for _ in range(1_000_000):
        new = (mass * (stage + beta * values[succ]).min(axis=2)).sum(axis=1)
        step = np.abs(new - values).max()
        values = new
        if beta / (1.0 - beta) * step <= tol:
            return float(values[0])
    raise AssertionError("value iteration did not meet the residual rule")


def _msg_strides(cards):
    strides = []
    acc = 1
    for c in reversed(cards):
        strides.append(acc)
        acc *= c
    return list(reversed(strides))


def _joint_obs(spec, t):
    kernels = [spec.obs_kernel(i, t) for i in range(spec.n)]
    combos = [()]
    for k in kernels:
        combos = [c + (y,) for c in combos for y in range(k.shape[1])]
    return kernels, combos


def initial_measure(spec):
    """Unnormalized stage-1 law {(x, (y_1..y_n), (m_1..m_n)): mass}."""
    measure = {}
    kernels, combos = _joint_obs(spec, 1)
    for x in range(spec.state_space.cardinality):
        base = float(spec.initial_dist[x])
        if base == 0.0:
            continue
        for ys in combos:
            p = base
            for i, y in enumerate(ys):
                p *= float(kernels[i][x, y])
            if p > 0.0:
                key = (x, ys, (0,) * spec.n)
                measure[key] = measure.get(key, 0.0) + p
    return measure


def extend_measure(spec, measure, tables, z_target, t):
    """One step: apply stage-``t`` tables, keep message ``z_target``, advance.

    Every surviving trajectory is pushed through the chain transition,
    the next stage's observation channels, and the memory updates; the
    result is again an unnormalized trajectory measure.
    """
    n = spec.n
    nx = spec.state_space.cardinality
    act_cards = spec.action_cards
    strides = _msg_strides(list(spec.msg_cards(t)))
    kernel = spec.transition(t)
    msg_maps = [spec.msg_map(i, t) for i in range(n)]
    mem_updates = [spec.mem_update(i, t) for i in range(n)]
    kernels, combos = _joint_obs(spec, t + 1)
    nxt = {}
    for (x, ys, ms), p in measure.items():
        us = tuple(int(tables[i][ys[i], ms[i]]) for i in range(n))
        z = sum(int(msg_maps[i][ms[i], ys[i], us[i]]) * strides[i]
                for i in range(n))
        if z != z_target:
            continue
        m_next = tuple(int(mem_updates[i][ms[i], ys[i], us[i]])
                       for i in range(n))
        u_flat = 0
        for i in range(n):
            u_flat = u_flat * act_cards[i] + us[i]
        for x2 in range(nx):
            q = p * float(kernel[x, u_flat, x2])
            if q == 0.0:
                continue
            for ys2 in combos:
                r = q
                for i, y in enumerate(ys2):
                    r *= float(kernels[i][x2, y])
                if r > 0.0:
                    key = (x2, ys2, m_next)
                    nxt[key] = nxt.get(key, 0.0) + r
    return nxt


def normalize_measure(measure):
    total = sum(measure.values())
    assert total > 0.0, "conditioning on an impossible message sequence"
    return {k: v / total for k, v in measure.items()}


def bayes_posterior(spec, gamma_tables, messages):
    """Conditional law of (x_t, y_t, m_t) by brute-force path enumeration.

    ``gamma_tables[k]`` holds the per-controller action tables applied
    at stage ``k + 1`` and ``messages[k]`` the flat joint message
    observed after it.  Every full trajectory consistent with the
    message sequence is enumerated and weighted; the result is the
    normalized dict {(x, (y_1..y_n), (m_1..m_n)): probability}.
    """
    measure = initial_measure(spec)
    for k, (tables, z) in enumerate(zip(gamma_tables, messages)):
        measure = extend_measure(spec, measure, tables, z, k + 1)
    return normalize_measure(measure)
