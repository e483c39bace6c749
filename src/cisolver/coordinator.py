"""Coordinator view of a decentralized problem.

The shared memory defines a fictitious coordinator that, at every stage,
sees only the messages appended so far and selects one *prescription*
per controller: a table mapping that controller's current observation
and local memory to an action.  The controllers become passive table
lookups, and the coordinator faces a centralized partially observed
problem whose state is the triple

    (chain state x, current observations y_1..y_n, local memories m_1..m_n)

and whose observation after acting is the joint emitted message.  This
module implements the state space, beliefs over it, prescription
spaces, and the belief update (condition on the emitted message, then
push through the dynamics).  :func:`prescribe` alone works out what
prescriptions do at each coordinator state: the joint action, message
and next memory, from which the stage cost, the message law
(:func:`message_law`) and the belief update (:func:`successors`)
follow, the last two batched over nodes and defined here only.

Beliefs are dense vectors over the stage's state space, flattened
lexicographically as ``(x, y_1, ..., y_n, m_1, ..., m_n)`` with ``x``
most significant.  Joint messages flatten the per-controller message
indices the same way.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SizeOverflow, ZeroProbabilityObservation
from .model import ProblemSpec

#: Message realizations at or below this mass are treated as impossible.
ZERO_MASS = 1e-15
#: Decimal places kept when hashing a belief into its canonical form.
CANON_DECIMALS = 12


def canonical_items(rows: np.ndarray) -> np.ndarray:
    """The canonical key of every row of a batch of belief weight vectors, as items.

    A row is rounded to ``CANON_DECIMALS``, so equal beliefs computed
    along different paths have equal bytes; ``+ 0.0`` turns ``-0.0``
    into ``0.0``.  Each rounded row is viewed as one opaque numpy item,
    so a batch can be deduplicated by ``np.unique``; the bytes of an
    item are its belief's key.
    """
    rounded = np.round(rows, CANON_DECIMALS) + 0.0
    return rounded.view(np.dtype((np.void, rounded.itemsize * rounded.shape[1]))).reshape(-1)


def canonical_keys(rows: np.ndarray) -> list[bytes]:
    """The canonical key of every row of a batch, as ``bytes``."""
    return canonical_items(rows).tolist()


@dataclass(frozen=True, eq=False)
class Belief:
    """Coordinator belief at the start of stage ``t``.

    ``dims`` is ``(|X|, |Y_1|, ..., |Y_n|, |M_1|, ..., |M_n|)`` and
    ``weights`` is the flattened probability vector over that grid.
    """

    t: int
    n: int
    dims: tuple[int, ...]
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedBelief:
    """Belief with current observations marginalized out: over ``(x, m)``."""

    t: int
    n: int
    dims: tuple[int, ...]
    weights: np.ndarray


class StageLayout:
    """Precomputed index arrays for one stage's coordinator state space."""

    def __init__(self, spec: ProblemSpec, t: int):
        self.t = t
        nx = spec.state_space.cardinality
        ny = tuple(sp.cardinality for sp in spec.obs_spaces)
        nm = spec.mem_cards(t)
        self.dims = (nx,) + ny + nm
        self.strides = _strides(self.dims)  # of x, each y_i and each m_i in the ravel
        self.nx, self.ny, self.nm = nx, ny, nm
        self.n_obs = int(np.prod(ny, dtype=np.int64))
        self.n_mem = int(np.prod(nm, dtype=np.int64))
        self.size = nx * self.n_obs * self.n_mem
        grid = np.unravel_index(np.arange(self.size), self.dims)
        self.x_of = grid[0].astype(np.int64)
        self.y_of = [g.astype(np.int64) for g in grid[1:1 + spec.n]]
        self.m_of = [g.astype(np.int64) for g in grid[1 + spec.n:]]
        # controller i's table point (y_i, m_i), flattened row-major, per state
        self.point_of = [y * n_m + m for y, m, n_m in zip(self.y_of, self.m_of, nm)]
        self.act_strides = _strides(spec.action_cards)
        self.msg_cards = spec.msg_cards(t) if _has_msg_stage(spec, t) else None
        self.msg_strides = _strides(self.msg_cards) if self.msg_cards else None
        # product of the stage's observation kernels, (|X|, n_obs)
        prod = np.ones((nx, 1))
        for i in range(spec.n):
            k = spec.obs_kernel(i, t)
            prod = (prod[:, :, None] * k[:, None, :]).reshape(nx, -1)
        self.obs_prod = prod

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Full weights of beliefs over ``(x, m)``, one per row of ``rows``.

        Reattaches the stage's observation law (see :func:`zeta`).
        """
        full = rows.reshape(-1, self.nx, 1, self.n_mem) \
            * self.obs_prod[None, :, :, None]
        return full.reshape(len(full), -1)


def _strides(cards) -> np.ndarray:
    out = np.ones(len(cards), dtype=np.int64)
    for i in range(len(cards) - 2, -1, -1):
        out[i] = out[i + 1] * cards[i + 1]
    return out


def _has_msg_stage(spec: ProblemSpec, t: int) -> bool:
    if spec.mode == "discounted":
        return True
    return t <= len(spec.protocol.msg_slots[0])


_layout_cache: "weakref.WeakKeyDictionary[ProblemSpec, dict]" = weakref.WeakKeyDictionary()


def stage_layout(spec: ProblemSpec, t: int) -> StageLayout:
    if spec.mode == "discounted":
        t = 1
    per_spec = _layout_cache.setdefault(spec, {})
    if t not in per_spec:
        per_spec[t] = StageLayout(spec, t)
    return per_spec[t]


# -- prescriptions --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointPrescription:
    """One coordinator action: an action table per controller.

    ``tables[i]`` has shape ``(|Y_i|, |M_i|)``; ``index`` is the flat
    position in the joint prescription space (controller 0 most
    significant, then table points in row-major ``(y, m)`` order, then
    actions as digits).
    """

    tables: tuple[np.ndarray, ...]
    index: int


class PrescriptionSpace:
    """The joint prescription space at one stage, indexable and iterable.

    Sizes are Python ints (they can exceed 2**63); use ``decode`` for
    random access and iteration for full enumeration.

    ``decode`` remembers every index it was asked for, on this instance
    only, and returns the same :class:`JointPrescription` again for it;
    its tables are read-only, so callers can share them.  A policy tree
    chooses few distinct prescriptions per stage, so consumers that walk
    a tree keep one space per stage and decode each chosen index once.
    Iteration does not go through the memo, so the memo holds at most
    the indices a caller asked for.
    """

    def __init__(self, spec: ProblemSpec, t: int, cap: int | None = None):
        layout = stage_layout(spec, t)
        self.t = t
        self.n = spec.n
        self.shapes = [(layout.ny[i], layout.nm[i]) for i in range(spec.n)]
        self.n_actions = list(spec.action_cards)
        self.points = [ny * nm for ny, nm in self.shapes]
        self.sizes = [self.n_actions[i] ** self.points[i] for i in range(spec.n)]
        self.size = 1
        for s in self.sizes:
            self.size *= s
        if cap is not None and self.size > cap:
            raise SizeOverflow(
                f"joint prescription space at stage {t} has {self.size} elements, "
                f"cap is {cap}", size=self.size)
        self._decoded: dict[int, JointPrescription] = {}

    def decode_controller(self, i: int, idx: int) -> np.ndarray:
        ny, nm = self.shapes[i]
        base = self.n_actions[i]
        flat = np.zeros(self.points[i], dtype=np.int64)
        for p in range(self.points[i] - 1, -1, -1):
            flat[p] = idx % base
            idx //= base
        return flat.reshape(ny, nm)

    def encode_controller(self, i: int, table: np.ndarray) -> int:
        base = self.n_actions[i]
        idx = 0
        for a in np.asarray(table).reshape(-1):
            idx = idx * base + int(a)
        return idx

    def decode(self, index: int) -> JointPrescription:
        """The prescription at ``index``; repeated calls return the same object."""
        gamma = self._decoded.get(index)
        if gamma is None:
            gamma = self._decoded[index] = self._decode(index)
        return gamma

    def _decode(self, index: int) -> JointPrescription:
        parts = []
        rest = index
        for i in range(self.n - 1, -1, -1):
            parts.append(rest % self.sizes[i])
            rest //= self.sizes[i]
        parts.reverse()
        tables = tuple(self.decode_controller(i, parts[i]) for i in range(self.n))
        for table in tables:
            table.setflags(write=False)
        return JointPrescription(tables=tables, index=index)

    def encode(self, tables) -> int:
        idx = 0
        for i in range(self.n):
            idx = idx * self.sizes[i] + self.encode_controller(i, tables[i])
        return idx

    def __len__(self):
        return self.size

    def __iter__(self):
        for idx in range(self.size):
            yield self._decode(idx)


# -- beliefs ----------------------------------------------------------------


def root_signals(spec: ProblemSpec) -> list[int]:
    """The initial common signals that get a root node, in signal order.

    A signal ``y*`` gets one when its own mass ``initial_dist @
    kernel[:, y*]`` exceeds ``ZERO_MASS``; without an initial common
    observation the one root stands for signal 0.
    """
    if spec.initial_common_obs is None:
        return [0]
    kernel = spec.initial_common_obs.kernel
    return [ystar for ystar in range(kernel.shape[1])
            if float(spec.initial_dist @ kernel[:, ystar]) > ZERO_MASS]


def initial_belief(spec: ProblemSpec) -> tuple[tuple[float, Belief], ...]:
    """Root belief nodes with their probabilities.

    Without an initial common observation there is a single root of
    probability one: ``P(x, y) = Q(x) * prod_i P_i(y_i | x)`` with all
    memories empty.  With one, the root splits into one node per signal
    value of :func:`root_signals`, each conditioned on that value.
    """
    layout = stage_layout(spec, 1)
    base = spec.initial_dist[:, None] * layout.obs_prod  # (|X|, n_obs)
    if spec.initial_common_obs is None:
        w = base.reshape(-1)
        total = w.sum()
        return ((1.0, Belief(t=1, n=spec.n, dims=layout.dims, weights=w / total)),)
    kernel = spec.initial_common_obs.kernel
    roots = []
    for ystar in root_signals(spec):
        w = (base * kernel[:, ystar][:, None]).reshape(-1)
        mass = float(w.sum())
        roots.append((mass, Belief(t=1, n=spec.n, dims=layout.dims, weights=w / mass)))
    return tuple(roots)


def prescribe(spec: ProblemSpec, t: int, tables: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """What prescriptions do at every coordinator state of stage ``t``.

    ``tables[i]`` is an integer array that stacks controller ``i``'s action
    tables over a batch of nodes, shape ``(nodes, |Y_i|, |M_i|)``.  Returns
    three int64 arrays over ``(node, state)``, node-major with each node's
    states in the stage layout's ravel: the joint action ``u``, the joint
    message ``z`` and the joint next memory ``m'``.  Memory is least
    significant in the ravel, so ``m'`` is also the next memories' offset
    in the next stage's state index.  ``z`` and ``m'`` are ``None`` at a
    stage with no message stage (the last stage of a finite problem).
    """
    layout = stage_layout(spec, t)
    emits = layout.msg_strides is not None
    if emits:
        mem_strides = stage_layout(spec, t + 1).strides[1 + spec.n:]
    u = z = m_next = 0
    for i, table in enumerate(tables):
        # controller i's action at every (node, state), shape (nodes, size)
        a = table.reshape(len(table), -1).take(layout.point_of[i], axis=1)
        u = u + a * layout.act_strides[i]
        if emits:
            point = (layout.m_of[i], layout.y_of[i], a)  # as the protocol's maps index them
            z = z + spec.msg_map(i, t)[point] * layout.msg_strides[i]
            m_next = m_next + spec.mem_update(i, t)[point] * mem_strides[i]
    if not emits:
        return u.ravel(), None, None
    return u.ravel(), z.ravel(), m_next.ravel()


def _prescribe_one(spec: ProblemSpec, t: int, gamma: JointPrescription):
    """:func:`prescribe` for the single node of one prescription."""
    return prescribe(spec, t, [table[None] for table in gamma.tables])


def expected_cost(spec: ProblemSpec, belief: Belief, gamma: JointPrescription) -> float:
    """Expected one-stage cost of applying ``gamma`` under ``belief``."""
    layout = stage_layout(spec, belief.t)
    u, _, _ = _prescribe_one(spec, belief.t, gamma)
    return float(belief.weights @ spec.cost(belief.t)[layout.x_of, u])


def message_law(spec: ProblemSpec, t: int, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Law of the flat joint message of each node of a batch, one per row.

    ``weights`` holds one node's full belief weights per row, and ``z``
    the message at every ``(node, state)`` as :func:`prescribe` gives it.
    One ``np.bincount`` over ``node * |Z| + z`` adds each node's weights
    in state order, so a row has the same bits in any batch.
    """
    nodes = len(weights)
    nz = math.prod(stage_layout(spec, t).msg_cards)
    at = np.arange(nodes, dtype=np.int64)[:, None] * nz + z.reshape(nodes, -1)
    return np.bincount(at.reshape(-1), weights=weights.reshape(-1),
                       minlength=nodes * nz).reshape(nodes, nz)


def message_distribution(spec: ProblemSpec, belief: Belief,
                         gamma: JointPrescription) -> np.ndarray:
    """Law of the flat joint message emitted this stage; sums to one."""
    _, z, _ = _prescribe_one(spec, belief.t, gamma)
    if z is None:
        raise InvalidParameter(f"stage {belief.t} has no message stage")
    return message_law(spec, belief.t, z, belief.weights[None])[0]


def successors(spec: ProblemSpec, t: int, w: np.ndarray, slot: np.ndarray,
               groups: int, xu: np.ndarray):
    """Masses and successors over ``(x', m')`` of a batch of nodes at stage ``t``.

    Every node's entries fall into ``groups`` message branches: entry
    ``e`` has node ``k``'s weight ``w[k, e]``, branch ``slot[e] //
    |M'|``, next joint memory ``slot[e] % |M'|`` and kernel row ``xu[e]
    = x * |U| + u``.  ``mass[k, g]`` is node ``k``'s weight on branch
    ``g``, and row ``k * groups + g`` of ``succ`` is that branch's
    normalized successor, ``x'`` most significant; the next stage's
    :meth:`StageLayout.lift` reattaches its observations.

    The masses are one ``np.bincount`` over ``node * groups + group``,
    the successors one per ``x'`` over ``node * groups * |M'| + slot``
    of the conditioned weights.  ``np.bincount`` adds in index order and
    the batch only offsets each index by its node's block, so every
    output slot gets the addends of a one-node call in the same order;
    row sums reduce a contiguous axis of fixed length.  So no bit depends
    on the batch, and equal entries in equal order give equal bits.
    """
    layout_next = stage_layout(spec, t + 1)  # stage 1 again when discounted
    nodes, n_mem = len(w), layout_next.n_mem
    offset = np.arange(nodes, dtype=np.int64)[:, None] * groups
    group = slot // n_mem if n_mem > 1 else slot
    index = (offset + group).reshape(-1)
    mass = np.bincount(index, weights=w.reshape(-1), minlength=nodes * groups)
    cond = w / mass[index].reshape(w.shape)
    index = (offset * n_mem + slot).reshape(-1)
    rows = nodes * groups
    succ = np.empty((rows, layout_next.nx, n_mem))
    kernel = spec.transition(t)
    kernel = kernel.reshape(-1, kernel.shape[2])  # rows (x, u), columns x'
    for xn in range(layout_next.nx):
        succ[:, xn, :] = np.bincount(
            index, weights=(cond * kernel[:, xn].take(xu)).reshape(-1),
            minlength=rows * n_mem).reshape(rows, -1)
    succ = succ.reshape(rows, -1)
    succ /= succ.sum(axis=1, keepdims=True)
    return mass.reshape(nodes, groups), succ


def eta_update(spec: ProblemSpec, belief: Belief, gamma: JointPrescription,
               z: int) -> Belief:
    """Next-stage belief given that ``gamma`` was prescribed and ``z`` emitted.

    Conditions the current belief on the states that emit ``z``, then
    pushes the conditional through the chain transition, the next
    stage's observation channels, and the deterministic memory updates:
    one :func:`successors` call with those states as its one branch.

    Raises:
        ZeroProbabilityObservation: ``z`` has probability <= 1e-15.
    """
    t = belief.t
    u, z_all, m_next = _prescribe_one(spec, t, gamma)
    emits = np.flatnonzero((z_all == z) & (belief.weights > 0))
    xu = stage_layout(spec, t).x_of[emits] * spec.joint_action_count + u[emits]
    mass, succ = (successors(spec, t, belief.weights[None, emits], m_next[emits], 1, xu)
                  if len(emits) else (np.zeros((1, 1)), None))  # no 0 / 0
    if mass[0, 0] <= ZERO_MASS:
        raise ZeroProbabilityObservation(
            f"message {z} at stage {t} has probability {float(mass[0, 0])!r}")
    layout_next = stage_layout(spec, t + 1)
    return Belief(t=layout_next.t, n=spec.n, dims=layout_next.dims,
                  weights=layout_next.lift(succ)[0])


def chi(belief: Belief) -> ReducedBelief:
    """Marginalize the current observations out of a coordinator belief."""
    nx = belief.dims[0]
    n_obs = int(np.prod(belief.dims[1:1 + belief.n], dtype=np.int64))
    n_mem = int(np.prod(belief.dims[1 + belief.n:], dtype=np.int64))
    w = belief.weights.reshape(nx, n_obs, n_mem).sum(axis=1)
    dims = (belief.dims[0],) + belief.dims[1 + belief.n:]
    return ReducedBelief(t=belief.t, n=belief.n, dims=dims, weights=w.reshape(-1))


def zeta(spec: ProblemSpec, reduced: ReducedBelief) -> Belief:
    """Reattach the stage's observation channels to a reduced belief.

    Inverse of :func:`chi` on beliefs reachable by the coordinator: the
    current observations are conditionally independent of the memories
    given the chain state, with the stage's kernel law.
    """
    layout = stage_layout(spec, reduced.t)
    return Belief(t=reduced.t, n=spec.n, dims=layout.dims,
                  weights=layout.lift(reduced.weights)[0])
