"""Monte Carlo execution of solved policies.

Rollouts are vectorized over episodes and driven by counter-based
randomness: every primitive draw (initial state, common signal, each
stage's transition, each controller's observation) has its own Philox
stream keyed by ``(seed, draw kind, stage, controller)``, and episode
``e`` always consumes element ``e`` of that stream.  Two policies rolled
out under the same seed therefore see the same primitive randomness,
which is what makes paired comparisons exact.

Episodes stream sequentially in fixed blocks of ``_BLOCK``.  Each block
reads the next uniforms of every stream, so the results do not depend on
the block size, and the working memory is O(block) plus the 8-byte cost
of every episode, which ``mean`` and ``stderr`` are reduced from (O(episodes)
when trajectories are recorded).

Sampling from a categorical row uses the inverse CDF over cumulative rows
computed once per kernel, so equal rows and equal uniforms give equal
samples bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordinator import message_distribution, stage_layout, zeta, Belief, PrescriptionSpace
from .dp import PolicyTree
from .errors import InvalidParameter, UnreachableInformation
from .model import ControlStrategy, ProblemSpec

_AUDIT_TOL = 1e-15
_BLOCK = 1 << 15  # episodes per block

_KIND_INIT = 0
_KIND_COMMON = 1
_KIND_OBS = 2
_KIND_TRANS = 3


@dataclass
class Trajectory:
    """One recorded episode."""

    episode: int
    states: list[int]
    obs: list[tuple[int, ...]]
    actions: list[tuple[int, ...]]
    messages: list[int]
    memories: list[tuple[int, ...]]
    nodes: list[int]
    cost: float


@dataclass
class SimReport:
    episodes: int
    seed: int
    mean: float
    stderr: float
    violations: int
    trajectories: list[Trajectory] | None = None


@dataclass
class PairedReport:
    episodes: int
    seed: int
    identical: bool
    divergences: list[tuple[int, int, str]]  # (episode, stage, field)


def _check_run(seed: int, episodes: int):
    if episodes < 1:
        raise InvalidParameter(f"episodes must be >= 1, got {episodes}")
    if not 0 <= seed < 1 << 64:
        raise InvalidParameter(f"seed must be in [0, 2**64), got {seed}")


def _stream(seed: int, kind: int, t: int = 0, i: int = 0) -> np.random.Generator:
    key = (seed << 64) | (kind << 40) | (t << 20) | i
    return np.random.Generator(np.random.Philox(key=key))


def _streams(spec: ProblemSpec, seed: int) -> dict:
    out = {"init": _stream(seed, _KIND_INIT)}
    if spec.initial_common_obs is not None:
        out["common"] = _stream(seed, _KIND_COMMON)
    for t in range(1, spec.horizon + 1):
        for i in range(spec.n):
            out[("obs", t, i)] = _stream(seed, _KIND_OBS, t, i)
        if t < spec.horizon:
            out[("trans", t)] = _stream(seed, _KIND_TRANS, t)
    return out


def _cum_columns(kernel: np.ndarray) -> list[np.ndarray]:
    """Columns ``0 .. K-2`` of a ``(rows, K)`` kernel's cumulative rows.

    Cumulative sums of non-negative entries do not decrease, so the number
    of these columns below ``u`` in row ``r`` is the inverse-CDF sample
    ``min((cumsum(kernel[r]) < u).sum(), K - 1)``.
    """
    cum = np.cumsum(kernel, axis=-1)
    return [np.ascontiguousarray(cum[:, k]) for k in range(kernel.shape[-1] - 1)]


def _sample(cols: list[np.ndarray], rows, u: np.ndarray) -> np.ndarray:
    """One categorical sample per uniform in ``u``, from kernel rows ``rows``."""
    idx = np.zeros(len(u), dtype=np.int64)
    for col in cols:
        idx += col.take(rows) < u
    return idx


class _ExecPlan:
    """A policy compiled to flat per-stage lookup tables.

    Besides the policy's own tables (actions, children and, for trees, the
    recomputed message probabilities), the plan holds the problem's
    kernels as cumulative columns (:func:`_cum_columns`) and its cost,
    message and memory-update tables raveled, so that every step is a few
    ``take`` calls on flat arrays.
    """

    def __init__(self, spec: ProblemSpec, policy):
        if spec.mode != "finite":
            raise InvalidParameter("rollouts require a finite-horizon problem")
        self.spec = spec
        T = spec.horizon
        if isinstance(policy, PolicyTree):
            stages = policy.stages
            roots = policy.roots
            # one space per stage, so each chosen prescription is decoded once
            spaces = [PrescriptionSpace(spec, t) for t in range(1, T + 1)]
            get_tables = lambda nd, t: spaces[t - 1].decode(nd.gamma_index).tables
            self.audited = True
        elif isinstance(policy, ControlStrategy):
            stages = policy.stages
            roots = policy.roots
            get_tables = lambda nd, t: nd.tables
            self.audited = False
        else:
            raise InvalidParameter(f"cannot execute policy of type {type(policy).__name__}")
        if getattr(policy, "horizon", None) != T or getattr(policy, "n", spec.n) != spec.n:
            raise InvalidParameter("policy shape does not match the problem")

        self.layouts = [stage_layout(spec, t) for t in range(1, T + 1)]
        local = []  # per stage: node_id -> local index
        self.actions = []  # per stage, per controller: raveled (nodes, ny, nm)
        self.children = []  # per stage t < T: raveled (nodes, NZ) local ids at t+1, -1 missing
        self.msg_probs = []  # per stage t < T: raveled (nodes, NZ) recomputed, or None
        self.n_msgs = []  # per stage t < T: NZ
        for t, layout in enumerate(self.layouts, start=1):
            nodes = stages[t - 1]
            local.append({nd.node_id: k for k, nd in enumerate(nodes)})
            acts = [np.zeros((len(nodes), layout.ny[i], layout.nm[i]), dtype=np.int64)
                    for i in range(spec.n)]
            for k, nd in enumerate(nodes):
                tables = get_tables(nd, t)
                for i in range(spec.n):
                    acts[i][k] = tables[i]
            self.actions.append([a.ravel() for a in acts])
        for t in range(1, T):
            nodes = stages[t - 1]
            nz = int(np.prod(spec.msg_cards(t), dtype=np.int64))
            table = np.full((len(nodes), nz), -1, dtype=np.int64)
            for k, nd in enumerate(nodes):
                for z, child in nd.children.items():
                    table[k, z] = local[t][child]
            self.children.append(table.ravel())
            self.n_msgs.append(nz)
            if self.audited:
                probs = np.zeros((len(nodes), nz))
                for k, nd in enumerate(nodes):
                    belief = nd.belief
                    if not isinstance(belief, Belief):
                        belief = zeta(spec, belief)
                    gamma = spaces[t - 1].decode(nd.gamma_index)
                    probs[k] = message_distribution(spec, belief, gamma)
                self.msg_probs.append(probs.ravel())
            else:
                self.msg_probs.append(None)

        if spec.initial_common_obs is None:
            self.root_map = np.full(1, local[0][roots[0][1]], dtype=np.int64)
        else:
            card = spec.initial_common_obs.space.cardinality
            self.root_map = np.full(card, -1, dtype=np.int64)
            pos = 0
            for ystar in range(card):
                mass = float(spec.initial_dist @ spec.initial_common_obs.kernel[:, ystar])
                if mass <= _AUDIT_TOL:
                    continue
                self.root_map[ystar] = local[0][roots[pos][1]]
                pos += 1

        nx = spec.state_space.cardinality
        self.n_joint = spec.joint_action_count
        self.init_cols = _cum_columns(spec.initial_dist[None])
        self.common_cols = (None if spec.initial_common_obs is None
                            else _cum_columns(spec.initial_common_obs.kernel))
        self.obs_cols = [[_cum_columns(spec.obs_kernel(i, t)) for i in range(spec.n)]
                         for t in range(1, T + 1)]
        self.trans_cols = [_cum_columns(spec.transition(t).reshape(-1, nx))
                           for t in range(1, T)]
        self.costs = [spec.cost(t).ravel() for t in range(1, T + 1)]
        # per stage t < T, per controller: raveled (M, Y, U) message and memory maps
        self.msg_maps = [[spec.msg_map(i, t).ravel() for i in range(spec.n)]
                         for t in range(1, T)]
        self.mem_updates = [[spec.mem_update(i, t).ravel() for i in range(spec.n)]
                            for t in range(1, T)]


class _Cursor:
    """One policy's episodes of one block: the variables of the current stage.

    Steps rebind these arrays rather than write into them, except ``cost``,
    which accumulates, so a caller may keep references to them.  A realized
    message with no child parks its episode on node 0; ``unreachable``
    holds ``(episode in block, stage, message, node)`` for the lowest such
    episode at the first stage it met one.
    """

    def __init__(self, plan: _ExecPlan, x: np.ndarray, draws: dict):
        spec = plan.spec
        self.plan = plan
        self.x = x
        if plan.common_cols is None:
            self.node = np.full(len(x), plan.root_map[0])
        else:
            self.node = plan.root_map.take(_sample(plan.common_cols, x, draws["common"]))
        self.y = [_sample(plan.obs_cols[0][i], x, draws[("obs", 1, i)])
                  for i in range(spec.n)]
        self.m = [np.zeros(len(x), dtype=np.int64) for _ in range(spec.n)]
        self.cost = np.zeros(len(x))
        self.violations = 0
        self.unreachable = None
        self.acts = self.u = self.xu = self.z = self.missing = None

    def act(self, t: int):
        """Choose every controller's action at stage ``t`` and add its cost."""
        plan = self.plan
        layout = plan.layouts[t - 1]
        self.acts = [plan.actions[t - 1][i].take(
                         (self.node * layout.ny[i] + self.y[i]) * layout.nm[i] + self.m[i])
                     for i in range(plan.spec.n)]
        self.u = np.zeros(len(self.x), dtype=np.int64)
        for i, a in enumerate(self.acts):
            self.u += a * layout.act_strides[i]
        self.xu = self.x * plan.n_joint + self.u  # row of the cost and transition tables
        self.cost += plan.costs[t - 1].take(self.xu)

    def advance(self, t: int, draws: dict):
        """Emit stage ``t``'s message, move to its child and draw stage ``t + 1``."""
        plan = self.plan
        spec = plan.spec
        layout = plan.layouts[t - 1]
        z = np.zeros(len(self.x), dtype=np.int64)
        points = []  # per controller: flat (m, y, u) index into the stage maps
        for i in range(spec.n):
            p = (self.m[i] * layout.ny[i] + self.y[i]) * spec.action_cards[i] + self.acts[i]
            z += plan.msg_maps[t - 1][i].take(p) * layout.msg_strides[i]
            points.append(p)
        at = self.node * plan.n_msgs[t - 1] + z
        probs = plan.msg_probs[t - 1]
        if probs is not None:
            self.violations += int((probs.take(at) <= _AUDIT_TOL).sum())
        child = plan.children[t - 1].take(at)
        missing = child < 0
        if missing.any():
            ep = int(missing.argmax())
            if self.unreachable is None or ep < self.unreachable[0]:
                self.unreachable = (ep, t, int(z[ep]), int(self.node[ep]))
            child = np.where(missing, 0, child)
        self.m = [plan.mem_updates[t - 1][i].take(points[i]) for i in range(spec.n)]
        self.x = _sample(plan.trans_cols[t - 1], self.xu, draws[("trans", t)])
        self.y = [_sample(plan.obs_cols[t][i], self.x, draws[("obs", t + 1, i)])
                  for i in range(spec.n)]
        self.node, self.z, self.missing = child, z, missing


def _steps(spec: ProblemSpec, plans, seed: int, episodes: int):
    """Run ``plans`` side by side on shared draws, one block of episodes at a time.

    Yields ``(lo, t, cursors)`` at every stage ``t`` of every block once the
    cursors have acted; ``lo`` is the block's first episode.  From stage 2
    on, the cursors also hold the previous stage's message and missing-child
    mask.  Each stream is read in order, block after block, so episode ``e``
    consumes element ``e`` of it whatever the block size.
    """
    streams = _streams(spec, seed)
    for lo in range(0, episodes, _BLOCK):
        draws = {k: g.random(min(_BLOCK, episodes - lo)) for k, g in streams.items()}
        x0 = _sample(plans[0].init_cols, 0, draws["init"])
        cursors = [_Cursor(plan, x0, draws) for plan in plans]
        for t in range(1, spec.horizon + 1):
            for cur in cursors:
                cur.act(t)
            yield lo, t, cursors
            if t < spec.horizon:
                for cur in cursors:
                    cur.advance(t, draws)


def _trajectories(lo: int, rec: list, cost: np.ndarray) -> list[Trajectory]:
    """The recorded episodes of one block; ``rec`` holds one entry per stage."""
    xs, ys, us, ms, nodes, zs = zip(*rec)
    xs, nodes, zs = ([a.tolist() for a in field] for field in (xs, nodes, zs[1:]))
    # per stage, one tuple of controller values per episode
    ys, us, ms = ([list(zip(*(a.tolist() for a in stage))) for stage in field]
                  for field in (ys, us, ms))
    return [Trajectory(episode=lo + e,
                       states=[x[e] for x in xs],
                       obs=[y[e] for y in ys],
                       actions=[u[e] for u in us],
                       messages=[z[e] for z in zs],
                       memories=[m[e] for m in ms],
                       nodes=[nd[e] for nd in nodes],
                       cost=c)
            for e, c in enumerate(cost.tolist())]


def rollout(spec: ProblemSpec, policy, seed: int, episodes: int,
            threads: int = 1, record: bool = False) -> SimReport:
    """Estimate the expected cost of a policy by simulation.

    ``policy`` is a :class:`PolicyTree` or :class:`ControlStrategy`.
    For trees, the emitted message's probability under the node's own
    belief is recomputed at every step and counted as a violation
    whenever it is not positive (an on-policy consistency audit; the
    report's ``violations`` must be zero for a correctly solved pair).

    Episodes run sequentially in blocks of ``_BLOCK``.  ``threads`` is
    accepted for compatibility and changes neither the results nor the
    work done.

    Raises:
        UnreachableInformation: a realized message has no policy entry; the
            message names the lowest such episode.
    """
    _check_run(seed, episodes)
    plan = _ExecPlan(spec, policy)
    T = spec.horizon
    costs = np.empty(episodes)
    violations = 0
    trajectories = [] if record else None
    for lo, t, (cur,) in _steps(spec, (plan,), seed, episodes):
        if record:
            if t == 1:
                rec = []
            rec.append((cur.x, cur.y, cur.acts, cur.m, cur.node, cur.z))
        if t < T:
            continue
        if cur.unreachable is not None:
            ep, stage, z, node = cur.unreachable
            raise UnreachableInformation(
                f"episode {lo + ep}: no policy entry at stage {stage} for message "
                f"{z} from node index {node}")
        costs[lo:lo + len(cur.cost)] = cur.cost
        violations += cur.violations
        if record:
            trajectories.extend(_trajectories(lo, rec, cur.cost))
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return SimReport(episodes=episodes, seed=seed, mean=mean, stderr=stderr,
                     violations=violations, trajectories=trajectories)


def paired_rollout(spec: ProblemSpec, tree: PolicyTree, strategy: ControlStrategy,
                   seed: int, episodes: int) -> PairedReport:
    """Run a tree and a strategy on identical primitive randomness.

    Both policies see the same initial states, noise and observation
    draws; if they encode the same behavior, every recorded quantity
    (actions, messages, memories, chain states, observations) agrees on
    every episode.  Divergences are reported at the earliest affected
    stage of each episode.
    """
    _check_run(seed, episodes)
    plans = (_ExecPlan(spec, tree), _ExecPlan(spec, strategy))
    divergences: list[tuple[int, int, str]] = []
    for lo, t, (a, b) in _steps(spec, plans, seed, episodes):
        if t == 1:
            diverged = np.zeros(len(a.x), dtype=bool)
            checks = []
        else:  # the step from stage t - 1, in the order its fields arise
            s = t - 1
            checks = [(a.z != b.z, s, "message"),
                      (a.missing | b.missing, s, "node"),
                      (_any_differ(a.m, b.m), s, "memory"),
                      (a.x != b.x, s, "state"),
                      (_any_differ(a.y, b.y), s, "obs")]
        checks.append((a.u != b.u, t, "action"))
        for mask, stage, field in checks:
            divergences.extend((lo + int(e), stage, field)
                               for e in np.flatnonzero(mask & ~diverged))
            diverged |= mask
    divergences.sort()
    return PairedReport(episodes=episodes, seed=seed,
                        identical=not divergences, divergences=divergences)


def _any_differ(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(len(a[0]), dtype=bool)
    for ai, bi in zip(a, b):
        out |= ai != bi
    return out
