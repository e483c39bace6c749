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
when trajectories are recorded).  The draws do not depend on the policy,
so every rollout call owns one helper thread that reads the streams
(:class:`_Prefetch`): it draws block ``b + 1`` while block ``b`` is being
stepped, never more than one block ahead.  It is the only reader of the
streams and reads each in the same order as a sequential loop would, so
the results are the same as without it; it is joined before the call
returns or raises.

Sampling from a categorical row uses the inverse CDF over cumulative rows
computed once per kernel, so equal rows and equal uniforms give equal
samples bitwise.

A policy is compiled once into per-controller stage tables
(:class:`_ExecPlan`).  A controller's action, its share of the joint
message and its next memory at a node depend only on its own observation
and memory, so each stage computes one local index per controller and
reads all three with one ``take`` each.  The tables are only a faster
form of the policy and the protocol's maps: the draws, and so every
report and trajectory, are the same as stepping through those maps.
"""

from __future__ import annotations

import math
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .coordinator import stage_layout, PrescriptionSpace
from .dp import PolicyTree
from .errors import InvalidParameter, SizeOverflow, UnreachableInformation
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
    if not cols:
        return np.zeros(len(u), dtype=np.int64)
    idx = (cols[0].take(rows) < u).astype(np.int64)
    for col in cols[1:]:
        idx += col.take(rows) < u
    return idx


class _ExecPlan:
    """A policy compiled to flat per-stage, per-controller lookup tables.

    A controller's action, its share of the joint message and its next
    memory at a tree node are functions of its own ``(y_i, m_i)`` alone, so
    each is precomposed into a table over the policy's grid
    ``(node, y_i, m_i)``, raveled and indexed by the controller's local
    index ``(node * ny_i + y_i) * nm_i + m_i``:

    * ``actions[t][i]``: the action ``a_i``;
    * ``act_shares[t][i]``: ``a_i * act_stride_i``, its share of the joint
      action;
    * ``msg_shares[t][i]`` (t < T): ``msg_map_i[m, y, a_i] * msg_stride_i``,
      its share of the joint message;
    * ``mem_next[t][i]`` (t < T): ``mem_update_i[m, y, a_i]``.

    Every table has the size of the policy's own action table, never the
    product of the controllers' grids.  The plan also holds the children,
    for trees a boolean table of messages the node's belief gives no mass
    (the audit), the problem's kernels as cumulative columns
    (:func:`_cum_columns`) and its raveled cost tables, so that every step
    is a few ``take`` calls on flat arrays.
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
        # per stage: each node's document id, by position
        self.node_ids = [[nd.node_id for nd in nodes] for nodes in stages]
        local = [{node_id: k for k, node_id in enumerate(ids)} for ids in self.node_ids]
        self.actions, self.act_shares, self.msg_shares, self.mem_next = [], [], [], []
        for t, layout in enumerate(self.layouts, start=1):
            nodes = stages[t - 1]
            tables = [get_tables(nd, t) for nd in nodes]
            acts = [np.array([tb[i] for tb in tables], dtype=np.int64)
                    for i in range(spec.n)]  # per controller: (nodes, ny, nm)
            self.actions.append([a.ravel() for a in acts])
            self.act_shares.append([a.ravel() * layout.act_strides[i]
                                    for i, a in enumerate(acts)])
            if t == T:
                continue
            msgs, mems = [], []
            for i, a in enumerate(acts):
                # (m, y, a_i) of every grid point, as the protocol's maps index them
                point = (np.arange(layout.nm[i])[None, None, :],
                         np.arange(layout.ny[i])[None, :, None], a)
                msgs.append(spec.msg_map(i, t)[point].ravel()
                            * layout.msg_strides[i])
                mems.append(spec.mem_update(i, t)[point].ravel())
            self.msg_shares.append(msgs)
            self.mem_next.append(mems)
        self.children = []  # per stage t < T: raveled (nodes, NZ) local ids at t+1, -1 missing
        self.no_mass = []  # per stage t < T: raveled (nodes, NZ) audit table, or None
        self.n_msgs = []  # per stage t < T: NZ
        for t in range(1, T):
            nodes = stages[t - 1]
            nz = int(np.prod(spec.msg_cards(t), dtype=np.int64))
            table = np.full((len(nodes), nz), -1, dtype=np.int64)
            for k, nd in enumerate(nodes):
                for z, child in nd.children.items():
                    table[k, z] = local[t][child]
            self.children.append(table.ravel())
            self.n_msgs.append(nz)
            self.no_mass.append(self._audit_table(policy, t, nz) if self.audited else None)

        # one root per initial common signal of positive mass, in signal order
        if spec.initial_common_obs is None:
            self.root_map = np.full(1, -1, dtype=np.int64)
            signals = [0]
        else:
            kernel = spec.initial_common_obs.kernel
            self.root_map = np.full(kernel.shape[1], -1, dtype=np.int64)
            signals = [ystar for ystar in range(kernel.shape[1])
                       if float(spec.initial_dist @ kernel[:, ystar]) > _AUDIT_TOL]
        if len(roots) != len(signals):
            raise InvalidParameter(
                f"policy has {len(roots)} roots; the problem has {len(signals)} "
                "initial common signals of positive mass")
        for ystar, (_, node_id) in zip(signals, roots):
            self.root_map[ystar] = local[0][node_id]

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

    def _audit_table(self, tree: PolicyTree, t: int, nz: int) -> np.ndarray:
        """Raveled ``(nodes, NZ)``: whether a stage-``t`` node's belief gives ``z`` no mass.

        In coordinator state ``s`` a node emits the sum of the controllers'
        message shares at their points ``(y_i(s), m_i(s))``, so the law of
        every node's message is one ``bincount`` over ``node * NZ + z``
        weighted by the stage's stacked beliefs (lifted to ``(x, y, m)`` in
        the reduced variant).  It adds each node's weights in state order,
        as :func:`~cisolver.coordinator.message_distribution` does node by
        node, so the sums are bitwise the same.
        """
        layout = self.layouts[t - 1]
        nodes = tree.stages[t - 1]
        weights = np.array([nd.belief.weights for nd in nodes])
        if tree.variant == "reduced":
            weights = layout.lift(weights)
        bins = np.arange(len(nodes))[:, None] * nz  # (nodes, 1), then (nodes, states)
        for i, shares in enumerate(self.msg_shares[t - 1]):
            bins = bins + shares.reshape(len(nodes), -1)[:, layout.point_of[i]]
        mass = np.bincount(bins.ravel(), weights=weights.ravel(),
                           minlength=len(nodes) * nz)
        return mass <= _AUDIT_TOL


def _sum_takes(tables: list[np.ndarray], idx: list[np.ndarray]) -> np.ndarray:
    """``sum_i tables[i][idx[i]]`` in a fresh array."""
    out = tables[0].take(idx[0])
    for table, k in zip(tables[1:], idx[1:]):
        out += table.take(k)
    return out


def _local_index(node, y, m, ny: int, nm: int) -> np.ndarray:
    """``(node * ny + y) * nm + m``; memory is always 0 where ``nm`` is 1."""
    k = node * ny
    k += y
    if nm > 1:
        k *= nm
        k += m
    return k


class _Cursor:
    """One policy's episodes of one block: the variables of the current stage.

    Steps rebind these arrays rather than write into them, except ``cost``,
    which accumulates, so a caller may keep references to them.  ``local``
    holds each controller's index into the plan's stage tables, set by
    :meth:`act`.  A realized message with no child parks its episode on
    node 0; ``unreachable`` holds ``(episode in block, stage, message,
    node)`` for the lowest such episode at the first stage it met one.
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
        self.local = self.u = self.xu = self.z = self.missing = None

    def act(self, t: int):
        """Choose the joint action at stage ``t`` and add its cost."""
        plan = self.plan
        layout = plan.layouts[t - 1]
        self.local = [_local_index(self.node, self.y[i], self.m[i],
                                   layout.ny[i], layout.nm[i])
                      for i in range(plan.spec.n)]
        self.u = _sum_takes(plan.act_shares[t - 1], self.local)
        self.xu = self.x * plan.n_joint + self.u  # row of the cost and transition tables
        self.cost += plan.costs[t - 1].take(self.xu)

    def controller_actions(self, t: int) -> list[np.ndarray]:
        """Each controller's action at stage ``t``, once :meth:`act` has run."""
        return [table.take(k) for table, k in zip(self.plan.actions[t - 1], self.local)]

    def advance(self, t: int, draws: dict):
        """Emit stage ``t``'s message, move to its child and draw stage ``t + 1``."""
        plan = self.plan
        z = _sum_takes(plan.msg_shares[t - 1], self.local)
        at = self.node * plan.n_msgs[t - 1] + z
        no_mass = plan.no_mass[t - 1]
        if no_mass is not None:
            self.violations += int(np.count_nonzero(no_mass.take(at)))
        child = plan.children[t - 1].take(at)
        missing = child < 0
        if missing.any():
            ep = int(missing.argmax())
            if self.unreachable is None or ep < self.unreachable[0]:
                self.unreachable = (ep, t, int(z[ep]), int(self.node[ep]))
            child = np.where(missing, 0, child)
        self.m = [table.take(k) for table, k in zip(plan.mem_next[t - 1], self.local)]
        self.x = _sample(plan.trans_cols[t - 1], self.xu, draws[("trans", t)])
        self.y = [_sample(plan.obs_cols[t][i], self.x, draws[("obs", t + 1, i)])
                  for i in range(plan.spec.n)]
        self.node, self.z, self.missing = child, z, missing


class _Prefetch:
    """Every block's draws, read on one helper thread one block ahead.

    The helper creates and alone reads the streams.  It draws block ``b + 1``
    once block ``b`` has been handed over, so it draws while the caller
    steps, and at most one block is drawn ahead of the one in use.  Each
    stream is read in order, block after block.  Iterating yields each
    block's first episode and draws, and raises any exception of the
    helper; :meth:`close` stops the helper and joins it.
    """

    def __init__(self, spec: ProblemSpec, seed: int, episodes: int):
        self.episodes = episodes
        self.starts = range(0, episodes, _BLOCK)
        self._asked = threading.Semaphore(1)  # blocks the helper may draw: block 0
        self._drawn = threading.Semaphore(0)  # released once the slot holds a block
        self._slot = None  # the drawn block, or the helper's exception
        self._closed = False
        self._thread = threading.Thread(target=self._draw, args=(spec, seed),
                                        name="cisolver-draws", daemon=True)
        self._thread.start()

    def _draw(self, spec: ProblemSpec, seed: int):
        try:
            streams = _streams(spec, seed)
            for lo in self.starts:
                self._asked.acquire()
                if self._closed:
                    return
                n = min(_BLOCK, self.episodes - lo)
                self._slot = {k: g.random(n) for k, g in streams.items()}
                self._drawn.release()
        except BaseException as exc:  # raised again in the caller
            self._slot = exc
            self._drawn.release()

    def __iter__(self):
        for b, lo in enumerate(self.starts):
            self._drawn.acquire()
            draws, self._slot = self._slot, None
            if isinstance(draws, BaseException):
                raise draws
            if b + 1 < len(self.starts):
                self._asked.release()
            yield lo, draws

    def close(self):
        self._closed = True
        self._asked.release()
        self._thread.join()


def _steps(spec: ProblemSpec, plans, seed: int, episodes: int):
    """Run ``plans`` side by side on shared draws, one block of episodes at a time.

    Yields ``(lo, t, cursors)`` at every stage ``t`` of every block once the
    cursors have acted; ``lo`` is the block's first episode.  From stage 2
    on, the cursors also hold the previous stage's message and missing-child
    mask.  Each stream is read in order, block after block, so episode ``e``
    consumes element ``e`` of it whatever the block size.  The draws come
    from a :class:`_Prefetch`, whose helper is joined when this generator
    finishes or is closed, so callers close it (``contextlib.closing``).
    """
    with closing(_Prefetch(spec, seed, episodes)) as blocks:
        for lo, draws in blocks:
            x0 = _sample(plans[0].init_cols, 0, draws["init"])
            cursors = [_Cursor(plan, x0, draws) for plan in plans]
            for t in range(1, spec.horizon + 1):
                for cur in cursors:
                    cur.act(t)
                yield lo, t, cursors
                if t < spec.horizon:
                    for cur in cursors:
                        cur.advance(t, draws)
            del draws  # before the helper is asked for the block after next


def _trajectories(lo: int, rec: list, cost: np.ndarray,
                  node_ids: list[list[int]]) -> list[Trajectory]:
    """The recorded episodes of one block; ``rec`` holds one entry per stage.

    Nodes are recorded by position in their stage and written as the ids
    ``node_ids[t - 1]`` that the policy document gives them.
    """
    xs, ys, us, ms, nodes, zs = zip(*rec)
    xs, zs = ([a.tolist() for a in field] for field in (xs, zs[1:]))
    nodes = [[ids[k] for k in a.tolist()] for ids, a in zip(node_ids, nodes)]
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

    Episodes are stepped sequentially in blocks of ``_BLOCK`` while one
    helper thread draws the next block.  ``threads`` changes nothing; it
    is kept for the benchmark workloads, which still pass it.

    Recorded trajectories name each node by its ``id`` in the policy.

    Raises:
        SizeOverflow: the per-episode costs cannot be allocated; raised
            before any episode is drawn.
        UnreachableInformation: a realized message has no policy entry; the
            message names the lowest such episode and the id of the node
            that emitted it.
    """
    _check_run(seed, episodes)
    plan = _ExecPlan(spec, policy)
    T = spec.horizon
    try:
        costs = np.empty(episodes)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        raise SizeOverflow(f"the costs of {episodes} episodes do not fit in "
                           f"memory ({8 * episodes} bytes)", size=episodes) from None
    violations = 0
    trajectories = [] if record else None
    with closing(_steps(spec, (plan,), seed, episodes)) as steps:
        for lo, t, (cur,) in steps:
            if record:
                if t == 1:
                    rec = []
                rec.append((cur.x, cur.y, cur.controller_actions(t), cur.m, cur.node,
                            cur.z))
            if t < T:
                continue
            if cur.unreachable is not None:
                ep, stage, z, node = cur.unreachable
                raise UnreachableInformation(
                    f"episode {lo + ep}: no policy entry at stage {stage} for "
                    f"message {z} from node {plan.node_ids[stage - 1][node]}")
            costs[lo:lo + len(cur.cost)] = cur.cost
            violations += cur.violations
            if record:
                trajectories.extend(_trajectories(lo, rec, cur.cost, plan.node_ids))
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
    with closing(_steps(spec, plans, seed, episodes)) as steps:
        for lo, t, (a, b) in steps:
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
