"""Monte Carlo execution of solved policies.

Rollouts are vectorized over episodes and driven by counter-based
randomness: every primitive draw (initial state, common signal, each
stage's transition, each controller's observation) has its own Philox
stream keyed by ``(seed, draw kind, stage, controller)``, and episode
``e`` always consumes element ``e`` of that stream.  Two policies rolled
out under the same seed therefore see the same primitive randomness,
which is what makes paired comparisons exact.

Episodes stream sequentially in fixed blocks of ``_BLOCK`` (16,384).
Each block reads the next uniforms of every stream, so the results do
not depend on the block size.  The working memory is 8 bytes per episode
plus O(block), or O(episodes) when trajectories are recorded: the one
array sized by the episode count holds each episode's cost, and ``mean``
and ``stderr`` are computed from it in place (:func:`_mean_stderr`),
with no second array of its size.  The draws do not depend on the policy,
so every rollout call owns one helper thread that reads the streams
(:class:`_Prefetch`): it draws block ``b + 1`` while block ``b`` is being
stepped, never more than one block ahead.  It is the only reader of the
streams and reads each in the same order as a sequential loop would, so
the results are the same as without it; it is joined before the call
returns or raises.  It draws into two sets of per-stream buffers of
``min(_BLOCK, episodes)`` allocated once per call, block ``b`` into set
``b % 2``.  Two suffice: block ``b + 2`` is drawn only after block ``b + 1``
has been handed over, by which time block ``b``'s draws are dropped, and
nothing stepped from the draws aliases them.  The streams are
counter-based, so which uniform an episode reads does not depend on where
it is written.  Most of the stepping runs inside numpy loops, which run
while the helper draws, so on a machine with a second core the draws
cost little wall time.

Sampling from a categorical row uses the inverse CDF over cumulative rows
computed once per kernel, so equal rows and equal uniforms give equal
samples bitwise, and no uniform draws an outcome of zero mass.

A policy is compiled once into tables over the coordinator's state
(:class:`_ExecPlan`).  At each stage an episode is one integer, its
coordinator-state index ``node * size + state``, where ``state`` ravels
the chain state and every controller's ``(y_i, m_i)``.  The stage cost,
the transition thresholds, the next node and memories, and the rare
missing-child and audit flags are all functions of that index, so a
stage is a few ``take`` calls on flat arrays plus the new draws.  The
tables are only a faster form of the policy and the protocol's maps:
the draws, and so every report and trajectory, are the same as stepping
through those maps.
"""

from __future__ import annotations

import math
import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .coordinator import PrescriptionSpace, message_law, prescribe, root_signals, stage_layout
from .dp import PolicyTree
from .errors import InvalidParameter, SizeOverflow, UnreachableInformation
from .model import ControlStrategy, ProblemSpec

_AUDIT_TOL = 1e-15
_BLOCK = 1 << 14  # episodes per block

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
    """Columns ``0 .. K-2`` of a ``(rows, K)`` kernel's cumulative rows, as thresholds.

    Cumulative sums of non-negative entries do not decrease, so the number
    of these columns below ``u`` in row ``r`` is the inverse-CDF sample
    ``min((cumsum(kernel[r]) < u).sum(), K - 1)``.  A threshold is ``-inf``
    where no positive entry precedes it and ``+inf`` from the row's last
    positive entry on, so no uniform, not ``0.0`` nor one above a row
    that sums to a little less than 1, draws an outcome of zero mass.
    """
    k = kernel.shape[-1] - 1
    cum = np.cumsum(kernel, axis=-1)[:, :k]
    positive = kernel > 0
    cum[~np.logical_or.accumulate(positive, axis=-1)[:, :k]] = -np.inf
    last = k - np.argmax(positive[:, ::-1], axis=-1)  # the last positive entry
    cum[np.arange(k) >= last[:, None]] = np.inf
    return [np.ascontiguousarray(cum[:, j]) for j in range(k)]


def _sample(cols: list[np.ndarray], rows, u: np.ndarray) -> np.ndarray:
    """One categorical sample per uniform in ``u``, from kernel rows ``rows``."""
    if not cols:
        return np.zeros(len(u), dtype=np.int64)
    idx = (cols[0].take(rows) < u).astype(np.int64)
    for col in cols[1:]:
        idx += col.take(rows) < u
    return idx


def _add_sample(out: np.ndarray, cols: list[np.ndarray], rows, u: np.ndarray,
                stride: int):
    """``out += stride * _sample(cols, rows, u)``, in place."""
    for col in cols:
        below = col.take(rows) < u
        out += below if stride == 1 else below * stride


class _ExecPlan:
    """A policy compiled to flat tables over the coordinator state.

    At stage ``t`` an episode is one integer, its **coordinator-state
    index** ``s = node * size + state``: ``node`` is the position of its
    tree node in the stage and ``state`` the stage layout's ravel of
    ``(x, y_1..y_n, m_1..m_n)`` (:class:`~cisolver.coordinator.StageLayout`).
    A node's prescription maps the private part ``(y_i, m_i)`` to actions,
    so everything a step needs is a function of ``s`` and is precomposed
    into one table over ``(node, state)`` per stage:

    * ``cost[t]``: the stage cost ``c_t(x, u)``;
    * ``thr[t]`` (t < T): the ``K - 1`` cumulative transition thresholds of
      the row ``(x, u)`` (:func:`_cum_columns`);
    * ``base[t]`` (t < T): the child node, or node 0 where the child is
      missing, times the next stage's size, plus each next memory times
      its stride;
    * ``flag[t]`` (t < T): int8, bit 0 for a missing child and, for trees,
      bit 1 for a message the node's own belief gives no mass (the audit);
    * ``u[t]`` and ``z[t]`` (t < T): the joint action and message, read
      only to decode recorded or paired episodes.

    The joint action, message and next memories come from
    :func:`~cisolver.coordinator.prescribe`, called once per stage with
    every node's tables.  Every ``(node, state)`` table has the shape of
    the stage's stacked beliefs.
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
        # one root per initial common signal of positive mass, in signal order
        common = spec.initial_common_obs
        self.root_map = np.full(1 if common is None else common.kernel.shape[1], -1,
                                dtype=np.int64)
        signals = root_signals(spec)
        if len(roots) != len(signals):
            raise InvalidParameter(
                f"policy has {len(roots)} roots; the problem has {len(signals)} "
                "initial common signals of positive mass")
        for ystar, (_, node_id) in zip(signals, roots):
            self.root_map[ystar] = local[0][node_id]

        self.init_cols = _cum_columns(spec.initial_dist[None])
        self.common_cols = (None if spec.initial_common_obs is None
                            else _cum_columns(spec.initial_common_obs.kernel))
        self.obs_cols = [[_cum_columns(spec.obs_kernel(i, t)) for i in range(spec.n)]
                         for t in range(1, T + 1)]
        self.cost, self.thr, self.base, self.flag, self.u, self.z = [], [], [], [], [], []
        for t in range(1, T + 1):
            nodes = stages[t - 1]
            per_node = [get_tables(nd, t) for nd in nodes]
            tables = [np.array([tb[i] for tb in per_node], dtype=np.int64)
                      for i in range(spec.n)]  # per controller: (nodes, ny, nm)
            self._compose(t, policy, tables, local[t] if t < T else None)

    def _compose(self, t: int, policy, tables: list[np.ndarray], next_local: dict | None):
        """Append stage ``t``'s tables over ``(node, state)``.

        ``tables`` stacks each controller's action tables over the stage's
        nodes, and ``next_local`` maps each stage-``t + 1`` node id to its
        position.
        """
        spec = self.spec
        layout = self.layouts[t - 1]
        nodes = policy.stages[t - 1]
        u, z, m_next = prescribe(spec, t, tables)
        xu = np.tile(layout.x_of, len(nodes)) * spec.joint_action_count + u
        self.u.append(u)
        self.cost.append(spec.cost(t).ravel().take(xu))
        if t == spec.horizon:
            return
        nx = spec.state_space.cardinality
        self.thr.append([col.take(xu) for col in
                         _cum_columns(spec.transition(t).reshape(-1, nx))])
        nz = math.prod(layout.msg_cards)
        children = np.full((len(nodes), nz), -1, dtype=np.int64)  # positions at t + 1
        for k, nd in enumerate(nodes):
            for msg, child in nd.children.items():
                children[k, msg] = next_local[child]
        at = np.repeat(np.arange(len(nodes), dtype=np.int64) * nz, layout.size) + z
        child = children.ravel().take(at)
        missing = child < 0
        base = np.where(missing, 0, child) * self.layouts[t].size + m_next
        flag = missing.astype(np.int8)
        if self.audited:
            flag |= self._audit_table(policy, t, z).take(at).astype(np.int8) << 1
        self.z.append(z)
        self.base.append(base)
        self.flag.append(flag)

    def enter(self, t: int, s: np.ndarray, x: np.ndarray, draws: dict) -> np.ndarray:
        """Add state ``x`` and fresh stage-``t`` observations to ``s``, in place.

        ``s`` holds each episode's node and memories at stage ``t`` as an
        index over ``(node, state)``.
        """
        sx, *sy = self.layouts[t - 1].strides[:1 + self.spec.n]
        s += x * sx
        for i, (cols, stride) in enumerate(zip(self.obs_cols[t - 1], sy)):
            _add_sample(s, cols, x, draws[("obs", t, i)], stride)
        return s

    def _audit_table(self, tree: PolicyTree, t: int, z: np.ndarray) -> np.ndarray:
        """Raveled ``(nodes, NZ)``: whether a stage-``t`` node's belief gives ``z`` no mass.

        ``z`` holds the message at every ``(node, state)``; the laws are
        :func:`~cisolver.coordinator.message_law` of the stage's stacked
        beliefs, lifted in the reduced variant.
        """
        weights = np.array([nd.belief.weights for nd in tree.stages[t - 1]])
        if tree.variant == "reduced":
            weights = self.layouts[t - 1].lift(weights)
        return message_law(self.spec, t, z, weights).ravel() <= _AUDIT_TOL


class _Cursor:
    """One policy's episodes of one block, as coordinator-state indices.

    ``s`` holds each episode's index over the current stage's ``(node,
    state)`` and ``prev`` the previous stage's.  Steps rebind them rather
    than write into them, except ``cost``, which accumulates, so a caller
    may keep references to them.  A realized message with no child parks
    its episode on node 0 and sets it in ``missing`` (``None`` when no
    episode of the step has one); ``unreachable`` holds ``(episode in
    block, stage, message, node)`` for the lowest such episode at the first
    stage it met one.
    """

    def __init__(self, plan: _ExecPlan, x: np.ndarray, draws: dict):
        self.plan = plan
        if plan.common_cols is None:
            node = np.full(len(x), plan.root_map[0])
        else:
            node = plan.root_map.take(_sample(plan.common_cols, x, draws["common"]))
        self.s = plan.enter(1, node * plan.layouts[0].size, x, draws)
        self.prev = self.missing = self.unreachable = None
        self.cost = np.zeros(len(x))
        self.violations = 0

    def act(self, t: int):
        """Add stage ``t``'s cost."""
        self.cost += self.plan.cost[t - 1].take(self.s)

    def advance(self, t: int, draws: dict):
        """Emit stage ``t``'s message, move to its child and draw stage ``t + 1``."""
        plan, s = self.plan, self.s
        flags = plan.flag[t - 1].take(s)
        self.missing = None
        if flags.any():  # a missing child or an audit violation: rare
            self._flagged(t, flags)
        x = _sample(plan.thr[t - 1], s, draws[("trans", t)])
        self.prev, self.s = s, plan.enter(t + 1, plan.base[t - 1].take(s), x, draws)

    def _flagged(self, t: int, flags: np.ndarray):
        self.violations += int(np.count_nonzero(flags & 2))
        missing = (flags & 1).astype(bool)
        if not missing.any():
            return
        ep = int(missing.argmax())
        if self.unreachable is None or ep < self.unreachable[0]:
            s = int(self.s[ep])
            node = s // self.plan.layouts[t - 1].size
            self.unreachable = (ep, t, int(self.plan.z[t - 1][s]), node)
        self.missing = missing


class _Prefetch:
    """Every block's draws, read on one helper thread one block ahead.

    The helper creates and alone reads the streams.  It draws block ``b + 1``
    once block ``b`` has been handed over, so it draws while the caller
    steps, and at most one block is drawn ahead of the one in use.  Each
    stream is read in order, block after block.  Iterating yields each
    block's first episode and draws, and raises any exception of the
    helper; :meth:`close` stops the helper and joins it.

    The helper allocates two sets of per-stream buffers once and draws
    block ``b`` into set ``b % 2`` (``Generator.random(out=...)``), so the
    draws of a block are overwritten when block ``b + 2`` is drawn.  That
    happens only after block ``b + 1`` has been handed over, and a caller
    drops a block's draws before it asks for the next one (see
    :func:`_steps`); what it builds from them are fresh arrays
    (:func:`_sample`), so no draw is overwritten while in use.
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
            size = min(_BLOCK, self.episodes)
            buffers = [{k: np.empty(size) for k in streams} for _ in range(2)]
            for b, lo in enumerate(self.starts):
                self._asked.acquire()
                if self._closed:
                    return
                n = min(_BLOCK, self.episodes - lo)
                buf = buffers[b % 2]
                self._slot = {k: g.random(out=buf[k][:n]) for k, g in streams.items()}
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
    on, the cursors also hold the previous stage's index and missing-child
    mask.  Each stream is read in order, block after block, so episode
    ``e`` consumes element ``e`` of it whatever the block size.  The draws
    come from a :class:`_Prefetch`, whose helper is joined when this
    generator finishes or is closed, so callers close it
    (``contextlib.closing``).
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


def _trajectories(lo: int, plan: _ExecPlan, rec: list,
                  cost: np.ndarray) -> list[Trajectory]:
    """The recorded episodes of one block; ``rec`` holds each stage's indices.

    Each field is decoded from the coordinator-state indices through the
    stage layouts and the plan's ``u`` and ``z`` tables.  Nodes are
    recorded by position in their stage and written as the ids that the
    policy document gives them.
    """
    spec = plan.spec
    cards = spec.action_cards
    xs, ys, us, ms, nodes, zs = [], [], [], [], [], []
    for t, s in enumerate(rec, start=1):
        layout = plan.layouts[t - 1]
        node, state = np.divmod(s, layout.size)
        u = plan.u[t - 1].take(s)
        xs.append(layout.x_of.take(state).tolist())
        # per stage, one tuple of controller values per episode
        ys.append(list(zip(*(y.take(state).tolist() for y in layout.y_of))))
        ms.append(list(zip(*(m.take(state).tolist() for m in layout.m_of))))
        us.append(list(zip(*((u // stride % card).tolist()
                             for stride, card in zip(layout.act_strides, cards)))))
        ids = plan.node_ids[t - 1]
        nodes.append([ids[k] for k in node.tolist()])
        if t < spec.horizon:
            zs.append(plan.z[t - 1].take(s).tolist())
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

    Episodes are stepped sequentially in blocks of ``_BLOCK`` (16,384),
    each as one coordinator-state index per stage (:class:`_ExecPlan`),
    while one helper thread draws the next block.  ``threads`` changes
    nothing; it is kept for the benchmark workloads, which still pass it.

    Memory is 8 bytes per episode plus O(block), or O(episodes) with
    ``record``: the per-episode costs are the one array sized by the
    episode count, and the variance is computed in that array, in place.

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
                rec.append(cur.s)
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
                trajectories.extend(_trajectories(lo, plan, rec, cur.cost))
    mean, stderr = _mean_stderr(costs)
    return SimReport(episodes=episodes, seed=seed, mean=mean, stderr=stderr,
                     violations=violations, trajectories=trajectories)


def _mean_stderr(costs: np.ndarray) -> tuple[float, float]:
    """The mean of ``costs`` and its standard error; overwrites ``costs``.

    The steps are those of ``costs.mean()`` and ``costs.std(ddof=1) /
    sqrt(n)`` in numpy (``_mean`` and ``_var``): the same pairwise sums
    over the same contiguous array, the same divisions and the same
    square root, so the bits are the same.  Only the deviations are
    written into ``costs`` instead of a second array of its size.
    """
    n = len(costs)
    total = costs.sum(keepdims=True)
    mean = float(total[0] / n)
    if n == 1:
        return mean, 0.0
    np.subtract(costs, total / n, out=costs)
    np.multiply(costs, costs, out=costs)
    return mean, float(np.sqrt(costs.sum() / (n - 1)) / math.sqrt(n))


def paired_rollout(spec: ProblemSpec, tree: PolicyTree, strategy: ControlStrategy,
                   seed: int, episodes: int) -> PairedReport:
    """Run a tree and a strategy on identical primitive randomness.

    Both policies see the same initial states, noise and observation
    draws; if they encode the same behavior, every recorded quantity
    (actions, messages, memories, chain states, observations) agrees on
    every episode.  Divergences are reported at the earliest affected
    stage of each episode.  Messages and actions are compared through the
    plans' ``z`` and ``u`` tables; the other fields are decoded only where
    the two cursors' coordinator-state indices differ.
    """
    _check_run(seed, episodes)
    plans = (_ExecPlan(spec, tree), _ExecPlan(spec, strategy))
    divergences: list[tuple[int, int, str]] = []
    with closing(_steps(spec, plans, seed, episodes)) as steps:
        for lo, t, (a, b) in steps:
            if t == 1:
                diverged = np.zeros(len(a.s), dtype=bool)
                checks = []
            else:  # the step from stage t - 1, in the order its fields arise
                s = t - 1
                za, zb = (cur.plan.z[s - 1].take(cur.prev) for cur in (a, b))
                checks = [(za != zb, s, "message")]
                if a.missing is not None or b.missing is not None:
                    checks.append((_either(a.missing, b.missing), s, "node"))
                checks += _state_checks(plans[0].layouts[t - 1], a.s, b.s, s)
            ua, ub = (cur.plan.u[t - 1].take(cur.s) for cur in (a, b))
            checks.append((ua != ub, t, "action"))
            for mask, stage, field in checks:
                if not mask.any():  # equal policies: the common case
                    continue
                divergences.extend((lo + int(e), stage, field)
                                   for e in np.flatnonzero(mask & ~diverged))
                diverged |= mask
    divergences.sort()
    return PairedReport(episodes=episodes, seed=seed,
                        identical=not divergences, divergences=divergences)


def _either(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray:
    return b if a is None else a if b is None else a | b


def _state_checks(layout, sa: np.ndarray, sb: np.ndarray, stage: int) -> list:
    """The ``memory``, ``state`` and ``obs`` checks of two cursors' indices.

    Where two coordinator-state indices are equal, so are their ``(x, y,
    m)``, so the fields are decoded only where the indices differ.
    """
    where = np.flatnonzero(sa != sb)
    if not len(where):
        return []
    at = [cur.take(where) % layout.size for cur in (sa, sb)]
    checks = []
    for field, tables in (("memory", layout.m_of), ("state", [layout.x_of]),
                          ("obs", layout.y_of)):
        mask = np.zeros(len(sa), dtype=bool)
        for table in tables:
            mask[where] |= table.take(at[0]) != table.take(at[1])
        checks.append((mask, stage, field))
    return checks
