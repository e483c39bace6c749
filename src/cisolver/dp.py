"""Exact dynamic programming over reachable coordinator beliefs.

The coordinator's belief is a sufficient statistic: the optimal value
satisfies, for every reachable belief ``pi`` at stage ``t``,

    V_t(pi) = min over joint prescriptions gamma of
              E[cost | pi, gamma] + sum_z P(z | pi, gamma) * V_{t+1}(eta(pi, gamma, z))

with ``V_{T+1} = 0``.  The solver grows the reachable belief set forward
from the root (memoizing beliefs by canonical form), then runs the
recursion backward, recording one prescription per belief node in
per-stage arrays.  Tree nodes are built last, by a forward walk from the
roots through the chosen children, for only the beliefs the policy reaches.

Three exact reductions keep the enumeration small without changing any
value or argmin:

* *Support restriction*: two prescriptions that agree on every
  ``(y, m)`` point carrying belief mass have identical cost, message
  law and successor beliefs, so only one representative per equivalence
  class is evaluated.  The representative fixes action 0 on off-support
  points and is the smallest full prescription index in its class, and
  classes are ordered by representative, so the documented
  smallest-index tie-break is preserved exactly.  The representative,
  an exact int, is computed only for the class a node chooses: its
  full tables are built and encoded by
  :meth:`~cisolver.coordinator.PrescriptionSpace.encode`, the one
  encoding of prescription indices.
* *Observation marginalization*: the current observations are
  conditionally independent of the local memories given the state, so
  a finite solve stores, hashes and interns beliefs over ``(x, m)``
  only and reattaches the stage's observation law
  (:meth:`StageLayout.lift`) when it expands a stage.  The last stage,
  the largest, is never lifted whole: its support masks are built from
  a few stored rows at a time, and each batch of its nodes lifts only
  its own rows.  The lift is elementwise, so every weight has the
  bits a whole-stage lift would give.  Both variants
  share this one solve and so have the same nodes, choices and values;
  the reduced tree carries the stored beliefs, the full tree their
  lifts.  Discounted solves still store full beliefs, because
  stationary documents key entries by full-belief bytes.
* *Separable last stage*: at ``t = T`` there is no continuation, so the
  coordinator faces a static team problem.  Once the lead class ``a``
  (the joint class of every controller but the last) is fixed, the last
  controller's best response splits into one minimization per
  on-support ``(y, m)`` point ``q`` of its own:
  ``V(a) = sum_q min_u G[a, q, u]`` (the alternating-maximization step
  for collaborative Bayesian games).  Work per node falls from
  ``|lead classes| * |last classes| * |support|`` to
  ``|lead classes| * |support| * |U_n|``.  The table of ``c(x, u)`` per
  support entry, last action and lead class depends on the support only
  through its *pattern*: each entry's state and the rank of its point
  among each controller's on-support points, not which ``(y, m)``
  points they are.  Supports with one pattern share one table (16 of
  them on ``periodic_4stage``, 225 sharing 16 tables on the
  control-sharing filter member), and each node gathers its own
  support's columns.  The table is laid out as ``(s, u * |lead classes|
  + a)`` with the entries grouped by ``q``, so a batch of nodes is
  contracted with each point's rows by one contiguous matrix product,
  and the minimum over ``u`` is an elementwise minimum of ``|U_n|``
  contiguous slices rather than a reduction over a short strided axis.
  Each ``G`` entry is the same dot product in any column order, minima
  are exact, and ``V`` adds the per-point minima as contiguous slices
  in the order numpy sums a contiguous axis (:func:`_pairwise_sum`), so
  values and ties do not depend on the layout or on which nodes share a
  batch.  Tie-break: the joint class index is ``a * |last classes| +
  b``, and ``b`` puts the last controller's first point most
  significant, so the smallest minimizing class is the first ``argmin``
  of ``V`` over ``a`` followed by the first ``argmin`` over ``u`` at
  each ``q``.  Representatives are encoded the same way, from the
  lead class and the last controller's actions, for only the nodes the
  policy reaches.
  The last stage still reports, and checks against the cap, the number
  of classes it would enumerate.

Branches.  A stage before ``T`` is expanded in batches of nodes.  The
branches of a node are the pairs ``class * |Z| + z`` that occur on its
support, sorted, so in the order of a loop over classes and then
messages: branch ``b`` is class ``cls[b]`` emitting joint message
``z[b]``.  They depend only on the support, so the class structure of a
support holds them once for every node on it.  A branch's mass and
successor depend on the weights only through its *signature*: its
support entries, each with its ``(x, u)`` row and next memory, in entry
order.  Under periodic and delayed sharing the message reveals what the
prescription did, so many branches share one (64 per signature at stage
2 of ``periodic_4stage``).  The structure maps each branch to its
signature once, from per-controller tables that do not depend on the
weights, and keeps the entries of each signature's first branch only
(Oliehoek, Whiteson and Spaan's lossless clustering of equivalent
histories, decided per support).  :func:`_successors` hands a block of
nodes on one support to the one belief update,
:func:`~cisolver.coordinator.successors`, with the signatures as its
groups, and gets flat arrays back, node ``k``'s signatures at offset
``k * |signatures|``; as that function shows, every bit is independent
of the batch and equal to a branch-by-branch computation.  A stage's
nodes are walked in chunks of consecutive nodes whose arrays stay
within a 32nd of ``_BATCH_ENTRIES``; a chunk's nodes are grouped by
support, and its successors are interned by one call in (node,
signature) order, which deduplicates the batch first and creates beliefs in order of first
occurrence.  Signatures are numbered in order of first branch, so node
creation order and node ids are those of a node-by-node,
one-class-at-a-time expansion.  A stage's beliefs live in one array that
grows by doubling, and masses and children are stored per signature.
The backward pass for a group of nodes is ``costs + np.bincount(node *
|classes| + cls, weights=(mass * V_next[child])[:, sig])``, which gathers
each branch's addend from its signature and sums each class's
continuation in message order, then ``argmin`` per node, whose first
minimum is the smallest representative because classes are ordered by
representative.  Only the nodes the forward walk reaches have their
chosen class decoded into a representative and children: at the last
stage the solve keeps each node's support, lead class and the last
controller's actions, and per pattern only what encodes them.

Discounted problems use the same expansion on the stationary tables,
breadth first from the roots until no new belief appears; a graph that
does not close within the belief cap is infeasible.  The closed graph,
with one prescription per belief, is a finite-state controller for the
coordinator, and Howard policy iteration solves its Bellman equation
exactly: each policy is evaluated by one dense solve of ``(I - beta
P) v = c``, or, on a graph too large for an ``n x n`` system, by sweeps
of its own Bellman operator (modified policy iteration), and a belief
switches to its best class only where that beats its current one by
more than a rounding tolerance.  Each belief then takes the first
argmin of its q-values under the final values.  The report's
``iterations`` counts the policy evaluations, ``residual`` is the
Bellman residual of the final values and ``tail_bound = residual / (1
- beta)`` bounds their distance to the fixed point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coordinator import (
    ZERO_MASS,
    Belief,
    PrescriptionSpace,
    ReducedBelief,
    canonical_items,
    canonical_keys,
    chi,
    initial_belief,
    stage_layout,
    successors,
)
from .errors import Infeasible, InvalidParameter, SizeOverflow
from .model import ControlStrategy, ProblemSpec, StrategyNode

DEFAULT_PRESCRIPTION_CAP = 10_000_000
#: Distinct beliefs a finite solve admits per stage: past it a solve would
#: most likely run out of memory.  ``periodic_instance(T=6)`` reaches
#: 1,048,576 at its last stage.
DEFAULT_FINITE_BELIEF_CAP = 2_000_000


@dataclass
class TreeNode:
    """One belief of the policy with its chosen prescription and value."""

    node_id: int
    t: int
    belief: Belief | ReducedBelief
    gamma_index: int | None = None
    value: float = math.nan
    children: dict[int, int] = field(default_factory=dict)  # message -> node_id


@dataclass
class PolicyTree:
    """Optimal coordinator policy over exactly the nodes its roots reach.

    Solved or loaded, it holds only the nodes reached through ``children``.
    """

    variant: str  # "full" or "reduced"
    horizon: int
    roots: tuple[tuple[float, int], ...]  # (probability, node_id)
    stages: list[list[TreeNode]]

    def node(self, node_id: int) -> TreeNode:
        return self._index[node_id]

    def finalize(self):
        self._index = {nd.node_id: nd for stage in self.stages for nd in stage}
        return self


@dataclass
class PolicyEntry:
    """One belief of a stationary policy, under the canonical key it was interned by."""

    key: bytes
    belief: Belief
    gamma_index: int
    value: float
    children: dict[int, bytes]  # message -> canonical key of successor


@dataclass
class StationaryPolicy:
    """Stationary prescription rule, one entry per belief of the closed graph.

    ``iterations`` counts policy evaluations, ``residual`` is the Bellman
    residual of the entry values and ``tail_bound = residual / (1 -
    beta)`` bounds their distance to the fixed point; ``epsilon`` is the
    accuracy that was asked for.
    """

    epsilon: float
    iterations: int
    residual: float
    tail_bound: float
    value: float
    entries: list[PolicyEntry]


@dataclass
class ValueReport:
    """What the solver did: the value and the work it took."""

    value: float
    variant: str
    mode: str
    stage_nodes: list[int]
    prescription_space_sizes: list[int]
    expanded_classes: list[int]
    runtime_s: float
    iterations: int | None = None
    residual: float | None = None
    tail_bound: float | None = None
    #: Deterministic counters kept out of the solve document: per stage,
    #: ``branches`` and distinct branch ``signatures`` expanded (0 at the
    #: last stage of a finite solve); a finite solve adds distinct
    #: ``supports`` and the weight-independent ``tables`` built for them,
    #: one class structure per support before the last stage and one per
    #: support pattern at it.
    stats: dict[str, list[int]] = field(default_factory=dict)


# -- prescription classes ---------------------------------------------------

#: Largest weight-independent table, in entries, built for one support.
_MAX_TABLE_ENTRIES = 50_000_000
#: Entries of one batch of the last stage's best-response array (1 MB), and
#: 32 times the entries of one chunk of an earlier stage's expansion.
#: Small, so a batch and its temporaries never set a solve's peak memory.
_BATCH_ENTRIES = 1 << 17
#: Largest stationary belief graph whose policies are evaluated by one dense
#: solve; its ``n x n`` system takes 8 n**2 bytes, 32 MB at this size.
_DENSE_BELIEFS = 2048
#: Tolerance of policy improvement and of the sweep evaluation, in units of
#: the bound ``max|c| / (1 - beta)`` on values: eight units in the last
#: place, so it scales with the rounding of the values it compares.
_TOLERANCE = 8 * np.finfo(float).eps


def _digits(index, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of ``index``, most significant first, on a new last axis."""
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.asarray(index, dtype=np.int64)[..., None] // powers % base


class _Classes:
    """Support-restricted prescription classes at one support.

    Controller ``i``'s classes are the action assignments to its
    on-support ``(y, m)`` points ``uniq[i]`` (increasing), the first
    point most significant; ``inv[i][s]`` is the point of support entry
    ``s``.  Joint classes are mixed radix over the controllers,
    controller 0 most significant, so they are ordered by representative.
    A class's representative is its full tables, action 0 off the
    support, encoded by the stage's :class:`PrescriptionSpace`: the
    smallest full prescription index in the class.

    Raises:
        SizeOverflow: there are more than ``cap`` classes.
    """

    def __init__(self, spec: ProblemSpec, t: int, support: np.ndarray, cap: int):
        layout = stage_layout(spec, t)
        self.spec, self.t = spec, t
        self.support = support
        self.x_sup = layout.x_of[support]
        self.cards = spec.action_cards
        self.n_points = [ny * nm for ny, nm in zip(layout.ny, layout.nm)]
        self.uniq, self.inv = [], []
        for i in range(spec.n):
            points = layout.point_of[i][support]
            seen = np.zeros(self.n_points[i], dtype=bool)
            seen[points] = True
            uniq = np.flatnonzero(seen)
            self.uniq.append(uniq)
            self.inv.append(np.searchsorted(uniq, points))
        self.counts = [nu ** len(uniq) for nu, uniq in zip(self.cards, self.uniq)]
        self.count = math.prod(self.counts)
        if self.count > cap:
            raise SizeOverflow(
                f"{self.count} support-restricted prescription classes "
                f"at stage {t}, cap is {cap}", size=self.count)

    def _check_table(self, entries: int, t: int):
        if entries > _MAX_TABLE_ENTRIES:
            raise SizeOverflow(
                f"{self.count} prescription classes at stage {t} need a table of "
                f"{entries} entries; lower the prescription cap or shrink the "
                "instance", size=self.count)

    def _point_actions(self, ids, controllers: int) -> list[np.ndarray]:
        """Actions at its points of each controller below ``controllers``.

        ``ids`` index the joint classes of those controllers; entry ``i``
        has shape ``ids.shape + (len(uniq[i]),)``.
        """
        out = []
        for i in reversed(range(controllers)):
            ids, own = np.divmod(ids, self.counts[i])
            out.append(_digits(own, self.cards[i], len(self.uniq[i])))
        return out[::-1]

    def representative(self, ids: int, rest=()) -> int:
        """Smallest full prescription index of a class: action 0 off the support.

        The first controllers play their joint class ``ids``
        (:meth:`_point_actions`); ``rest`` lists the actions of the last
        ``len(rest)`` controllers at their points.
        """
        actions = self._point_actions(ids, len(self.uniq) - len(rest)) + list(rest)
        tables = []
        for uniq, n_points, acts in zip(self.uniq, self.n_points, actions):
            table = np.zeros(n_points, dtype=np.int64)
            table[uniq] = acts
            tables.append(table)
        return PrescriptionSpace(self.spec, self.t).encode(tables)


def _first_ids(keys: np.ndarray):
    """Ids of the items of ``keys``, numbered in order of first occurrence.

    Returns ``(ids, first)``: equal items get equal ids, and ``first[j]``
    is the first position of id ``j``, increasing.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return rank[inverse.reshape(-1)], first[order]


def _split(index: np.ndarray, radices) -> list[np.ndarray]:
    """Mixed-radix digits of ``index``, the first radix most significant."""
    out = []
    for radix in radices[:0:-1]:
        high = index // radix
        out.append(index - high * radix)
        index = high
    return [index] + out[::-1]


def _grid(terms: list[np.ndarray]) -> np.ndarray:
    """Sum of per-controller terms over the joint ``(class, support entry)`` grid.

    ``terms[i][c, s]`` is controller ``i``'s term under its own class
    ``c``; joint classes are mixed radix, controller 0 most significant.
    """
    grid = terms[0]
    for term in terms[1:]:
        grid = (grid[:, None, :] + term[None, :, :]).reshape(-1, term.shape[1])
    return grid


def _own_tables(spec: ProblemSpec, t: int, i: int, points: np.ndarray):
    """Controller ``i``'s tables at its ``points`` of stage ``t``, per class of its own.

    Returns ``(acts, msgs, mems, part)``: the action, message part and
    next memory at each point, and ``part = (ids, count)``, which numbers
    each (own class, message part) by the points that emit the part and
    the actions there.  They depend on the points only, so structures on
    supports with the same points share them.
    """
    layout = stage_layout(spec, t)
    card = spec.action_cards[i]
    y, m = np.divmod(points, layout.nm[i])
    acts = _digits(np.arange(card ** len(points)), card, len(points))
    msgs = spec.msg_map(i, t)[m, y, acts]
    mems = spec.mem_update(i, t)[m, y, acts]
    # per (own class, part): 1 + the action at each point that emits the
    # part, 0 at the others, as one id per row; a point and its action
    # fix the next memory
    code = (acts + 1)[:, None, :] * (
        msgs[:, None, :] == np.arange(layout.msg_cards[i])[:, None])
    key, radix = 0, 1
    for column in code.reshape(-1, len(points)).T:
        if radix * (card + 1) >= 1 << 62:
            key, first = _first_ids(key)
            radix = len(first)
        key, radix = key * (card + 1) + column, radix * (card + 1)
    key, first = _first_ids(key)
    return acts, msgs, mems, (key.reshape(len(acts), -1), len(first))


class _ClassStructure(_Classes):
    """Weight-independent class and branch tables of a stage with a continuation.

    Everything here depends only on the stage and the support pattern,
    so every belief node sharing a support shares one structure.
    ``cost_matrix[c, s]`` is the stage cost of support entry ``s`` under
    class ``c``.  The branches are the pairs ``class * |Z| + z`` that
    occur on the support, sorted, so in (class, message) order: branch
    ``b`` is class ``cls[b]`` emitting joint message ``z[b]``, and class
    ``c`` owns branches ``bounds[c]:bounds[c + 1]``.

    A branch's *signature* is its support entries, each with its ``(x,
    u)`` row of the cost table and the kernel and its next joint memory
    ``m'``, in entry order.  Two branches with equal signatures get the
    same addends in the same order in :func:`_successors`, so their
    masses and successors are equal bit for bit, whatever the weights;
    ``sig[b]`` is branch ``b``'s signature, numbered in order of first
    branch, and ``signatures`` counts them.  The signature is decided
    per controller: for each class of its own and each part of the
    message, which of its points emit that part and with what action (a
    point and its action fix the next memory).  Equal parts for every
    controller give equal branches, so a joint id over those parts is
    exact; it may at most split a signature that entries alone would
    merge.

    Only the first branch of each signature is computed.  Over their
    support entries, by signature and then in entry order, ``sup`` is
    each entry's support position, ``slot`` its ``signature * |M'| +
    m'`` and ``xu`` its ``(x, u)`` row; the kernel's columns are
    gathered through ``xu`` when they are used.  With no repeated branch
    these entries are the whole ``(class, entry)`` grid, so a structure
    holds four tables of at most ``|classes| * |support|`` entries
    whatever ``|X'|``.  ``entries`` is the size of the largest array one
    node adds to a batch of :func:`_successors` or :func:`_backward`.
    ``tables`` holds each controller's :func:`_own_tables` for every
    structure of the solve.
    """

    def __init__(self, spec: ProblemSpec, t: int, support: np.ndarray, cap: int,
                 tables: dict):
        super().__init__(spec, t, support, cap)
        n, n_sup = spec.n, len(support)
        self._check_table(self.count * n_sup, t)
        layout = stage_layout(spec, t)
        layout_next = stage_layout(spec, t + 1)  # stage 1 again when discounted
        mem_strides = layout_next.strides[1 + n:]
        cost = spec.cost(t)
        n_msgs = math.prod(layout.msg_cards)
        # per controller and class of its own, at each support entry: the
        # class's and message part's share of class * |Z| + z, of the (x, u)
        # row and of m'
        pair_terms, xu_terms, mem_terms = [], [], []
        parts = []  # per controller: id of each (own class, message part), and count
        later = self.count  # joint classes of the controllers after i
        for i in range(n):
            later //= self.counts[i]
            key = (t, i, self.uniq[i].tobytes())
            if key not in tables:
                tables[key] = _own_tables(spec, t, i, self.uniq[i])
            acts, msgs, mems, part = tables[key]
            own = np.arange(self.counts[i])[:, None] * (later * n_msgs)
            pair_terms.append((msgs * layout.msg_strides[i] + own)[:, self.inv[i]])
            xu_terms.append((acts * layout.act_strides[i])[:, self.inv[i]])
            mem_terms.append((mems * mem_strides[i])[:, self.inv[i]])
            parts.append(part)
        xu_terms[0] = xu_terms[0] + self.x_sup * cost.shape[1]
        pairs = _grid(pair_terms)
        xu = _grid(xu_terms)
        self.cost_matrix = cost.take(xu)

        # every support entry carries more than ZERO_MASS, so every pair
        # that occurs is a live branch; a class's pairs lie above the
        # previous class's, so sorting each row sorts them all
        flat = np.sort(pairs, axis=1).reshape(-1)
        new = np.empty(len(flat), dtype=bool)
        new[0] = True
        np.not_equal(flat[1:], flat[:-1], out=new[1:])
        flat = flat[new]
        self.cls = flat // n_msgs
        self.z = flat - self.cls * n_msgs
        self.bounds = np.searchsorted(self.cls, np.arange(self.count + 1)).tolist()

        joint = 0
        for (part, distinct), own, msg in zip(
                parts, _split(self.cls, self.counts), _split(self.z, layout.msg_cards)):
            joint = joint * distinct + part[own, msg]
        self.sig, first = _first_ids(joint)
        self.branches, self.signatures = len(flat), len(first)

        # the entries of each signature's first branch, by signature, then entry
        rows = self.cls[first]
        sig, self.sup = np.nonzero(pairs[rows] == flat[first][:, None])
        rows = rows[sig]
        self.slot = sig * layout_next.n_mem + _grid(mem_terms)[rows, self.sup]
        self.xu = xu[rows, self.sup]
        width = layout_next.nx * layout_next.n_mem  # of a successor over (x', m')
        self.entries = max(len(sig), self.signatures * width, self.branches)


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Sum of equal-shape arrays, grouped as ``np.add.reduce`` groups a contiguous axis.

    Term ``k`` plays the axis's element ``k``.  Below 8 terms the sum is
    sequential; up to 128 it runs 8 accumulators over the terms, combined
    as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and adds the
    rest in order; above 128 it splits at ``n // 2 - (n // 2) % 8``.  So
    every element has the bits of the reduction's, ties included.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n < 8:
        total, rest = terms[0].copy(), terms[1:]
    else:
        acc = [term.copy() for term in terms[:8]]
        stop = n - n % 8
        for k in range(8, stop):
            acc[k % 8] += terms[k]
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        rest = terms[stop:]
    for term in rest:
        total += term
    return total


class _LastStage(_Classes):
    """Exact separable best response at one support pattern of the last stage.

    With no continuation, fixing the lead class ``a`` (controllers
    ``0..n-2``) splits the last controller's choice into one
    minimization per on-support point ``q``:
    ``V(a) = sum_q min_u G[q, u, a]`` with
    ``G[q, u, a] = sum_{s at q} w_s * C[s, u, a]`` and
    ``C[s, u, a] = c(x_s, u_lead(a, s), u)``.  ``C`` does not depend on
    the weights, nor on which ``(y, m)`` points the support holds: only
    on each entry's state and on the rank of its point among each
    controller's on-support points, the support's *pattern*
    (:func:`_patterns`).  So the nodes of every support of one pattern
    share it, each row with its own support's columns.

    ``C`` is stored in an ``(s, u * lead + a)`` layout, one block per
    point: ``order`` sorts the support entries stably by point, point
    ``q`` owns positions ``cuts[q] = (lo, hi)`` of that order, and row
    ``j`` of ``blocks[q]`` is ``C`` at entry ``order[lo + j]``.  Lead
    classes are decoded by :meth:`_Classes._point_actions`.
    """

    def __init__(self, spec: ProblemSpec, t: int, support: np.ndarray, cap: int):
        super().__init__(spec, t, support, cap)
        layout = stage_layout(spec, t)
        last = spec.n - 1
        n_u = self.cards[last]
        lead = self.count // self.counts[last]
        self._check_table(lead * len(support) * n_u, t)
        self.shape = (len(self.uniq[last]), n_u, lead)
        self.order = np.argsort(self.inv[last], kind="stable")
        cost = spec.cost(t)
        # flat index into the cost table of C[s, u, a], first as (s, a)
        flat = (self.x_sup[self.order] * cost.shape[1])[:, None]
        for i, acts in enumerate(self._point_actions(np.arange(lead), last)):
            # acts[a, k]: lead controller i's action at its k-th point
            flat = flat + acts.T[self.inv[i][self.order]] * layout.act_strides[i]
        flat = flat[:, None, :] + np.arange(n_u)[:, None] * layout.act_strides[last]
        table = cost.take(flat).reshape(len(support), -1)
        ends = np.cumsum(np.bincount(self.inv[last])).tolist()
        self.cuts = list(zip([0] + ends[:-1], ends))
        self.blocks = [table[lo:hi] for lo, hi in self.cuts]

    def best(self, w: np.ndarray):
        """Best class of every row of ``w`` (nodes x support entries in ``order``).

        One matrix product per point ``q`` fills ``g[:, q, u * lead + a]``
        with ``G[q, u, a]``.  Each entry is a dot product of the node's
        weights at ``q`` with one column of costs, so no entry depends on
        where its column sits.  The minimum over ``u`` reduces ``g`` into
        ``low[row, q, a]``, an elementwise minimum of contiguous slices;
        minima are exact.  ``V`` adds the contiguous slices ``low[:, q]``
        by :func:`_pairwise_sum`, in the order numpy sums a contiguous
        axis of ``|points|`` elements.  So every value, and every tie, has
        the same bits in any column order of ``C``.  Nor do a row's
        results depend on the other rows, as long as there are at least
        two: a one-row product would be a matrix-vector product, whose
        sums are grouped differently.

        Returns ``(value, lead, acts)``: the smallest minimizing class is
        lead class ``lead[k]`` with the last controller playing
        ``acts[k, q]`` at point ``q``, because the first ``argmin`` over
        lead classes and then over actions at each point is the smallest
        minimizing class index.
        """
        rows = len(w)
        points, n_u, lead = self.shape
        g = np.empty((rows, points, n_u * lead))
        for (lo, hi), block, out in zip(self.cuts, self.blocks, g.transpose(1, 0, 2)):
            np.matmul(w[:, lo:hi], block, out=out)
        g = g.reshape(rows, points, n_u, lead)
        low = np.minimum.reduce(g, axis=2)
        v = _pairwise_sum([low[:, q] for q in range(points)])
        best = v.argmin(axis=1)
        r = np.arange(rows)
        return v[r, best], best, g[r, :, :, best].argmin(axis=2)


def _supports(rows: np.ndarray, lift):
    """The distinct supports of the full beliefs of ``rows``, and each row's.

    ``lift`` maps a block of ``rows`` to their full weights.  The masks
    are built in chunks of rows whose lifts hold at most a 32nd of
    ``_BATCH_ENTRIES`` entries, so only a chunk is ever lifted at once,
    and kept packed, one bit per entry.  Returns ``(supports, which)``:
    the supports as arrays of positions, in order of their first row,
    and the index in ``supports`` of each row's.  :func:`_first_ids`
    over the packed masks, each viewed as one opaque item, finds them.
    """
    width = lift(rows[:1]).shape[1]
    step = max(1, _BATCH_ENTRIES // 32 // width)
    packed = np.empty((len(rows), -(-width // 8)), dtype=np.uint8)
    for lo in range(0, len(rows), step):
        packed[lo:lo + step] = np.packbits(lift(rows[lo:lo + step]) > ZERO_MASS, axis=1)
    items = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    which, first = _first_ids(items)
    masks = np.unpackbits(packed[first], axis=1, count=width)
    return [np.flatnonzero(mask) for mask in masks], which


def _patterns(layout, supports: list[np.ndarray]):
    """Pattern id of each support, numbered in order of first support, and the count.

    A support's pattern is, at each of its entries in order, the entry's
    state and, per controller, the rank of the entry's point among the
    support's points (:attr:`_Classes.inv`); a :class:`_LastStage`
    depends on its support through the pattern only.  The ranks come
    from one ``seen`` mask per controller over every support at once, by
    its running count, and each entry's state and ranks make one
    mixed-radix code below ``layout.size``.
    """
    sizes = [len(support) for support in supports]
    entries = np.concatenate(supports)
    owner = np.repeat(np.arange(len(supports)), sizes)
    code = layout.x_of[entries]
    for of, ny, nm in zip(layout.point_of, layout.ny, layout.nm):
        points = of[entries]
        seen = np.zeros((len(supports), ny * nm), dtype=bool)
        seen[owner, points] = True
        code = code * (ny * nm) + (np.cumsum(seen, axis=1) - 1)[owner, points]
    ids: dict[bytes, int] = {}
    pattern = [ids.setdefault(code[hi - size:hi].tobytes(), len(ids))
               for hi, size in zip(np.cumsum(sizes).tolist(), sizes)]
    return np.array(pattern, dtype=np.int64), len(ids)


class _LastChoices:
    """Every last-stage node's best class, as the solve keeps it.

    ``which[node]`` is the node's support in ``supports`` and
    ``pattern[s]`` support ``s``'s pattern.  Per pattern, in order of
    first node, ``groups`` holds ``(nodes, lead, acts)``: the pattern's
    nodes in increasing order and, for node ``nodes[k]``, its best lead
    class ``lead[k]`` and the last controller's actions ``acts[k]`` at
    its points.  The classes of a support, which give its points, are
    built only for the supports of the nodes asked for.
    """

    def __init__(self, spec: ProblemSpec, t: int, cap: int, supports, which, pattern):
        self.spec, self.t, self.cap = spec, t, cap
        self.supports, self.which, self.pattern = supports, which, pattern
        self.groups = []
        self._classes: dict[int, _Classes] = {}

    def representative(self, node: int) -> int:
        """Full prescription index of ``node``'s best class."""
        s = int(self.which[node])
        nodes, lead, acts = self.groups[self.pattern[s]]
        row = int(np.searchsorted(nodes, node))
        if s not in self._classes:
            self._classes[s] = _Classes(self.spec, self.t, self.supports[s], self.cap)
        return self._classes[s].representative(int(lead[row]), [acts[row]])


def _solve_last_stage(spec: ProblemSpec, t: int, stored: np.ndarray, cap: int):
    """Value and best class of every last-stage node, and what it took.

    ``stored`` holds one node's stored belief over ``(x, m)`` per row.
    Nodes are grouped by the pattern of their support
    (:func:`_patterns`), one :class:`_LastStage` per pattern, and each
    group is solved in batches of rows in increasing node order, small
    enough that a batch's ``g`` and ``low`` hold at most
    ``_BATCH_ENTRIES`` entries together, or else of one node.  Each
    batch lifts only its own rows (:meth:`StageLayout.lift`), which is
    elementwise, so the stage is never lifted whole and every weight is
    the one a whole-stage lift would give; each row then gathers its own
    support's entries in the table's ``order``, through one ``(supports,
    entries)`` column table per pattern.

    Returns ``(values, choices, counts)``: ``choices`` is a
    :class:`_LastChoices`, and ``counts`` holds the number of classes
    the stage would enumerate, of its distinct supports and of its
    patterns.  The tables of ``C`` are dropped with each pattern's
    :class:`_LastStage`.
    """
    layout = stage_layout(spec, t)
    supports, which = _supports(stored, layout.lift)
    pattern, count = _patterns(layout, supports)
    # each pattern's nodes in increasing order; a narrow sort key keeps
    # the stage's per-node int64 arrays to ``which`` and the order itself
    key = pattern.astype(np.min_scalar_type(count - 1))
    sizes = np.bincount(pattern, weights=np.bincount(which)).astype(np.int64)
    nodes_of = np.split(np.argsort(key[which], kind="stable"), np.cumsum(sizes)[:-1])
    choices = _LastChoices(spec, t, cap, supports, which, pattern)
    values = np.empty(len(stored))
    classes = 0
    # patterns in order of their first node, so a cap overflow reports the
    # count of the first node over the cap, as a node-by-node pass would
    for p, nodes in enumerate(nodes_of):
        members = np.flatnonzero(pattern == p)  # its supports, increasing
        stage = _LastStage(spec, t, supports[members[0]], cap)
        classes += stage.count * len(nodes)
        points, n_u, lead = stage.shape
        rows = max(1, _BATCH_ENTRIES // (lead * points * (n_u + 1)) - 1)
        columns = np.stack([supports[s] for s in members])[:, stage.order]
        best = np.empty(len(nodes), dtype=np.int64)
        acts = np.empty((len(nodes), points), dtype=np.int64)
        for lo in range(0, len(nodes), rows):
            part = nodes[lo:lo + rows]
            # and a row of zeros, so that a batch of one node is still
            # contracted as a matrix, with the same sums as in any batch
            w = np.zeros((len(part) + 1, columns.shape[1]))
            w[:-1] = np.take_along_axis(
                layout.lift(stored[part]),
                columns[np.searchsorted(members, which[part])], axis=1)
            value, best_part, acts_part = stage.best(w)
            values[part] = value[:-1]
            best[lo:lo + rows], acts[lo:lo + rows] = best_part[:-1], acts_part[:-1]
        choices.groups.append((nodes, best, acts))
    return values, choices, (classes, len(supports), count)


def _structure(spec: ProblemSpec, t: int, support: np.ndarray, cap: int,
               structures: dict) -> _ClassStructure:
    """The class structure of ``support`` at stage ``t``, built once per solve.

    ``structures`` is owned by one solve, so every node on the same
    support shares the tables; only a node's stage costs, branch masses
    and successors depend on its weights.  It also holds each
    controller's :func:`_own_tables`, keyed by stage, controller and
    points.
    """
    key = (t, support.tobytes())
    structure = structures.get(key)
    if structure is None:
        structure = structures[key] = _ClassStructure(spec, t, support, cap, structures)
    return structure


def _successors(spec: ProblemSpec, t: int, structure: _ClassStructure,
                w_sup: np.ndarray):
    """:func:`~cisolver.coordinator.successors` of nodes on one support, by signature.

    ``w_sup`` holds one node's full weights on the support per row; branch
    ``b``'s mass and successor are those of signature ``structure.sig[b]``.
    """
    return successors(spec, t, w_sup.take(structure.sup, axis=1), structure.slot,
                      structure.signatures, structure.xu)


class _BeliefTable:
    """Deduplicated beliefs of one stage, in creation order, at most ``cap``.

    ``keys`` maps each belief's canonical key
    (:func:`~cisolver.coordinator.canonical_items`) to its index.  The
    rows live in one array that grows by doubling; ``weights`` is a view
    of its first ``count`` rows, row ``i`` belief ``i``'s, so
    ``canonical_keys(weights)[i]`` is belief ``i``'s key.
    """

    def __init__(self, width: int, cap: int, what: str):
        self.keys = {}
        self.count = 0
        self.cap, self.what = cap, what
        self._rows = np.empty((0, width))

    @property
    def weights(self) -> np.ndarray:
        return self._rows[:self.count]

    def release_keys(self):
        """Free the key index of a complete stage; it admits no more rows."""
        self.keys = None

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """Index of every row's belief, adding new ones in row order.

        The batch is deduplicated before the table is consulted:
        :func:`_first_ids` over the rows' canonical items finds the
        distinct rows, and only those are looked up or added, in order of
        first occurrence, so beliefs are created in the order a row-by-row
        pass would create them.  New beliefs are copied into the table's
        array, so the batch can be freed.

        Raises:
            Infeasible: the table would hold more than ``cap`` beliefs.
        """
        items = canonical_items(rows)
        which, first = _first_ids(items)
        known = self.count
        # a key not yet in the table gets the next index
        ids = np.array([self.keys.setdefault(key, len(self.keys))
                        for key in items[first].tolist()], dtype=np.int64)
        self.count = len(self.keys)
        if self.count > self.cap:
            raise Infeasible(f"{self.what} exceed cap {self.cap}", count=self.count)
        if self.count > len(self._rows):
            grown = np.empty((max(self.count, 2 * len(self._rows)), rows.shape[1]))
            grown[:known] = self._rows[:known]
            self._rows = grown
        self._rows[known:self.count] = rows[first[ids >= known]]
        return ids[which]


def _expand_stage(spec: ProblemSpec, t: int, weights: np.ndarray,
                  table: _BeliefTable, cap: int, structures: dict):
    """Expand every node of stage ``t < T``, interning successors into ``table``.

    A discounted solve expands its stationary stage ``t = 1`` the same way.

    ``weights`` holds one node's full weights per row.  Nodes are walked
    in order, in chunks of consecutive nodes whose entries
    (:attr:`_ClassStructure.entries`) total at most ``_BATCH_ENTRIES //
    32``, or else of one node.  About eight arrays of a chunk's entries
    are alive at once; at this bound each holds at most 32 KB.  Chunks
    twice as large expanded ``periodic_4stage`` about a tenth faster,
    but changed how the allocator reused the freed memory, so that a
    rollout after the solve peaked up to 1 MB higher.  A chunk's nodes
    are grouped by support, each group is expanded by one
    :func:`_successors` call, and the chunk's successors are interned by
    one call, in (node, signature) order, so node ids are those of a
    node-by-node, branch-by-branch expansion.  Stage costs stay one
    matrix-vector product per node: a matrix product over the group
    would group the sums differently.

    Returns ``(groups, counts)``: per group ``(structure, nodes, costs,
    mass, child)``, with row ``k`` of ``costs``, ``mass`` and ``child``
    belonging to node ``nodes[k]`` and ``mass`` and ``child`` per
    signature; and the numbers of classes, branches and signatures
    expanded and of distinct supports, one class structure each.
    """
    supports, which = _supports(weights, lambda rows: rows)  # full already
    kinds = [_structure(spec, t, support, cap, structures) for support in supports]
    node_structures = [kinds[k] for k in which.tolist()]
    bound = _BATCH_ENTRIES // 32
    groups = []
    lo = 0
    while lo < len(weights):
        hi, entries = lo + 1, node_structures[lo].entries
        while (hi < len(weights)
               and entries + node_structures[hi].entries <= bound):
            entries += node_structures[hi].entries
            hi += 1
        members: dict[_ClassStructure, list[int]] = {}
        for node in range(lo, hi):
            members.setdefault(node_structures[node], []).append(node)
        parts = []  # per group: (structure, nodes, costs, mass, succ)
        start = np.empty(hi - lo, dtype=np.int64)  # of each node's rows in parts
        size = np.empty(hi - lo, dtype=np.int64)
        base = 0
        for structure, nodes in members.items():
            w_sup = weights[np.ix_(nodes, structure.support)]
            mass, succ = _successors(spec, t, structure, w_sup)
            costs = np.array([structure.cost_matrix @ w for w in w_sup])
            parts.append((structure, nodes, costs, mass, succ))
            at = np.asarray(nodes) - lo
            start[at] = base + np.arange(len(nodes)) * mass.shape[1]
            size[at] = mass.shape[1]
            base += mass.size
        # the chunk's rows in node order, and their indices back in group order
        order = np.repeat(start - np.cumsum(size) + size, size) + np.arange(base)
        child = np.empty(base, dtype=np.int64)
        child[order] = table.intern(np.concatenate([part[4] for part in parts])[order])
        base = 0
        for structure, nodes, costs, mass, _ in parts:
            groups.append((structure, nodes, costs, mass,
                           child[base:base + mass.size].reshape(mass.shape)))
            base += mass.size
        lo = hi
    counts = np.bincount(which) @ np.array(
        [(kind.count, kind.branches, kind.signatures) for kind in kinds], dtype=np.int64)
    return groups, counts.tolist() + [len(kinds)]


def _backward(groups, values_next: np.ndarray, values: np.ndarray, best: np.ndarray):
    """Best class and value of every node of one expanded stage.

    Per group, ``q = costs + np.bincount(node * count + cls, weights=(mass
    * values_next[child])[:, sig])`` sums each class's continuation in
    message order, as a one-node, branch-by-branch pass would: a
    branch's addend is its signature's product.  The first ``argmin`` of
    each row is its smallest representative, because classes are ordered
    by representative; ``best[node]`` becomes that class.
    """
    for structure, nodes, costs, mass, child in groups:
        rows, count = costs.shape
        index = np.arange(rows, dtype=np.int64)[:, None] * count + structure.cls
        cont = (mass * values_next[child])[:, structure.sig]
        q = costs + np.bincount(index.reshape(-1), weights=cont.reshape(-1),
                                minlength=rows * count).reshape(rows, count)
        choice = q.argmin(axis=1)
        values[nodes] = q[np.arange(rows), choice]
        best[nodes] = choice


def _chosen(structure: _ClassStructure, b: int, child: np.ndarray):
    """Representative and ``{z: child}`` of class ``b``, from a node's children by signature."""
    lo, hi = structure.bounds[b], structure.bounds[b + 1]
    return structure.representative(b), dict(zip(structure.z[lo:hi].tolist(),
                                                 child[structure.sig[lo:hi]].tolist()))


def _locate(groups, n: int):
    """Group and row of each of a stage's ``n`` nodes; ``group[1]`` lists its nodes."""
    sizes = [len(group[1]) for group in groups]
    nodes = np.concatenate([group[1] for group in groups])
    group_of, row_of = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    group_of[nodes] = np.repeat(np.arange(len(groups)), sizes)
    row_of[nodes] = np.arange(len(nodes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return group_of, row_of


# -- finite horizon ----------------------------------------------------------


def _solve_finite(spec: ProblemSpec, variant: str, cap: int, cap_beliefs: int):
    """One solve over reduced beliefs; ``variant`` only picks what nodes carry.

    The ``"reduced"`` tree carries the stored rows over ``(x, m)``, the
    ``"full"`` tree their lifts, bit for bit those the expansion used.
    """
    if spec.mode != "finite":
        raise InvalidParameter("finite-horizon solver requires mode='finite'")
    started = time.perf_counter()
    T = spec.horizon
    structures: dict = {}

    layouts = [stage_layout(spec, t) for t in range(1, T + 1)]
    stages = [_BeliefTable(layout.nx * layout.n_mem, cap_beliefs,
                           f"beliefs at stage {layout.t}") for layout in layouts]
    roots = initial_belief(spec)
    first = stages[0].intern(np.stack([chi(bel).weights for _, bel in roots]))
    stages[0].release_keys()
    roots = [(float(prob), int(idx)) for (prob, _), idx in zip(roots, first)]

    expansions = []  # per stage t < T: its groups from _expand_stage
    expanded_classes, branches, signatures = [0] * T, [0] * T, [0] * T
    supports, tables = [0] * T, [0] * T
    for t in range(1, T):
        groups, (expanded_classes[t - 1], branches[t - 1], signatures[t - 1],
                 supports[t - 1]) = \
            _expand_stage(spec, t, layouts[t - 1].lift(stages[t - 1].weights),
                          stages[t], cap, structures)
        tables[t - 1] = supports[t - 1]
        stages[t].release_keys()  # stage t + 1 is complete
        expansions.append(groups)

    values = [np.zeros(table.count) for table in stages]
    values[T - 1], last, (expanded_classes[T - 1], supports[T - 1], tables[T - 1]) = \
        _solve_last_stage(spec, T, stages[T - 1].weights, cap)
    best = [np.empty(table.count, dtype=np.int64) for table in stages[:-1]]
    for t in range(T - 1, 0, -1):
        _backward(expansions[t - 1], values[t], values[t - 1], best[t - 1])

    total = sum(prob * values[0][idx] for prob, idx in roots)

    # globally sequential node ids over the whole DP, stage by stage
    offset = [0]
    for table in stages:
        offset.append(offset[-1] + table.count)
    # tree nodes for the nodes the roots reach through chosen children only;
    # their representatives and children are decoded here, and nowhere else
    tree_stages = []
    reached = sorted({idx for _, idx in roots})
    for t, layout in enumerate(layouts, start=1):
        if t < T:
            groups = expansions[t - 1]
            group_of, row_of = _locate(groups, stages[t - 1].count)
        rows = stages[t - 1].weights[reached]
        if variant == "full":
            # lift is elementwise, so these are the bits the solve used
            cls, dims = Belief, layout.dims
            rows = layout.lift(rows)
        else:
            cls, dims = ReducedBelief, (layout.nx,) + layout.nm
        nodes, kids = [], set()
        for idx, w in zip(reached, rows):
            if t < T:
                group, row = groups[group_of[idx]], row_of[idx]
                rep, children = _chosen(group[0], int(best[t - 1][idx]), group[4][row])
            else:
                rep, children = last.representative(idx), {}
            kids.update(children.values())
            # each belief owns its weights: a view would keep a whole stage alive
            nodes.append(TreeNode(
                node_id=offset[t - 1] + idx, t=t,
                belief=cls(t=t, n=spec.n, dims=dims, weights=np.copy(w)),
                gamma_index=rep, value=float(values[t - 1][idx]),
                children={z: offset[t] + child for z, child in children.items()},
            ))
        tree_stages.append(nodes)
        reached = sorted(kids)

    tree = PolicyTree(
        variant=variant,
        horizon=T,
        roots=tuple(roots),
        stages=tree_stages,
    ).finalize()
    report = ValueReport(
        value=float(total),
        variant=variant,
        mode="finite",
        stage_nodes=[table.count for table in stages],
        prescription_space_sizes=[PrescriptionSpace(spec, t).size
                                  for t in range(1, T + 1)],
        expanded_classes=expanded_classes,
        runtime_s=time.perf_counter() - started,
        stats={"branches": branches, "signatures": signatures,
               "supports": supports, "tables": tables},
    )
    return report, tree


def solve_finite(spec: ProblemSpec, cap_prescriptions: int = DEFAULT_PRESCRIPTION_CAP,
                 cap_beliefs: int = DEFAULT_FINITE_BELIEF_CAP):
    """Solve a finite-horizon problem exactly over full coordinator beliefs.

    Returns ``(ValueReport, PolicyTree)``.  Ties between prescriptions
    with equal cost-to-go break toward the smallest full prescription
    index.  Message branches of probability <= 1e-15 are pruned.

    Raises:
        SizeOverflow: a node needs more prescription classes than
            ``cap_prescriptions``.
        Infeasible: a stage reaches more than ``cap_beliefs`` distinct
            beliefs.
    """
    return _solve_finite(spec, "full", cap_prescriptions, cap_beliefs)


def solve_finite_reduced(spec: ProblemSpec,
                         cap_prescriptions: int = DEFAULT_PRESCRIPTION_CAP,
                         cap_beliefs: int = DEFAULT_FINITE_BELIEF_CAP):
    """The same solve; each node carries its belief over ``(x, m)`` instead."""
    return _solve_finite(spec, "reduced", cap_prescriptions, cap_beliefs)


# -- strategy extraction ------------------------------------------------------


def extract_control_strategy(spec: ProblemSpec, tree: PolicyTree) -> ControlStrategy:
    """Read the per-controller strategies off a solved policy tree.

    Controller ``i`` acts at stage ``t`` by looking up the current tree
    node (a function of the shared memory), its observation and its
    local memory in the node's action table; the emitted joint message
    selects the next node.  Nodes that chose the same prescription share
    its read-only tables.
    """
    stages = []
    for t in range(1, tree.horizon + 1):
        space = PrescriptionSpace(spec, t)
        nodes = []
        for nd in tree.stages[t - 1]:
            gamma = space.decode(nd.gamma_index)
            nodes.append(StrategyNode(
                node_id=nd.node_id, t=t, tables=gamma.tables,
                children=dict(nd.children)))
        stages.append(nodes)
    return ControlStrategy(n=spec.n, horizon=tree.horizon,
                           roots=tree.roots, stages=stages).finalize()


# -- discounted ---------------------------------------------------------------


class _StationaryTable(_BeliefTable):
    """Full stationary beliefs.

    :func:`_expand_stage` interns successors over ``(x', m')``; this
    table lifts them first, so it stores and keys full beliefs, as
    stationary documents do.
    """

    def __init__(self, layout, cap: int):
        super().__init__(layout.size, cap, "reachable stationary beliefs")
        self.layout = layout

    intern_full = _BeliefTable.intern

    def intern(self, rows: np.ndarray) -> np.ndarray:
        return self.intern_full(self.layout.lift(rows))


def _first_argmin(q: np.ndarray, low: np.ndarray, owner: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Index of each belief's first class whose ``q`` equals its minimum ``low``.

    Belief ``i`` owns classes ``starts[i]:starts[i + 1]``; ``owner[c]`` is
    the belief of class ``c``.
    """
    hit = np.where(q == low[owner], np.arange(len(q)), len(q))
    return np.minimum.reduceat(hit, starts[:-1])


def _policy_values(beta: float, tol: float, cost: np.ndarray, src: np.ndarray,
                   dst: np.ndarray, mass: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Values of a policy whose branches go ``src -> dst`` with ``mass``.

    Up to ``_DENSE_BELIEFS`` beliefs, one dense solve of
    ``(I - beta P) v = cost``.  Above, sweeps ``v <- cost + beta P v``
    from ``start``, each one ``np.bincount`` over the branches, until
    ``beta / (1 - beta) * |v_k - v_{k-1}|`` (a bound on the distance to
    the policy's values) is at most ``tol``.  A step shrinks by ``beta``
    per sweep, so it halves within ``patience`` sweeps; when it sets no
    new low for that long, it has reached the rounding of the sums, and
    the sweeps stop there too.
    """
    n = len(cost)
    if n <= _DENSE_BELIEFS:
        system = np.bincount(src * n + dst, weights=mass, minlength=n * n).reshape(n, n)
        system *= -beta
        system.flat[::n + 1] += 1.0
        return np.linalg.solve(system, cost)
    patience = math.ceil(math.log(0.5) / math.log(beta)) if beta > 0 else 1
    values, least, stale = start, math.inf, 0
    while stale < patience:
        new = cost + beta * np.bincount(src, weights=mass * values[dst], minlength=n)
        step = float(np.abs(new - values).max())
        values = new
        if beta / (1.0 - beta) * step <= tol:
            break
        least, stale = (step, 0) if step < least else (least, stale + 1)
    return values


def solve_discounted(spec: ProblemSpec, epsilon: float = 1e-4,
                     cap_prescriptions: int = DEFAULT_PRESCRIPTION_CAP,
                     cap_beliefs: int = 100_000):
    """Solve the discounted fixed point exactly on the closed belief graph.

    Expands the stationary beliefs the roots reach, breadth first, until
    no new belief appears, and solves the Bellman equation on that graph
    by Howard policy iteration: ``iterations`` counts the policy
    evaluations.  Each belief then takes the first argmin of its
    q-values under the final values, so ties go to the smallest
    representative, and its entry value is that minimum.  ``residual``
    is the Bellman residual of the final values and ``tail_bound =
    residual / (1 - beta)`` bounds their distance to the fixed point.
    ``epsilon`` is the accuracy asked for; it is validated and recorded,
    and the exact solve meets it.  When ``beta * max|c| == 0`` the
    continuation vanishes and only the roots are expanded.  Returns
    ``(ValueReport, StationaryPolicy)``.

    Raises:
        InvalidParameter: ``epsilon`` is not a finite number > 0.
        Infeasible: more than ``cap_beliefs`` distinct beliefs reached,
            as on a graph that does not close.
    """
    if spec.mode != "discounted":
        raise InvalidParameter("fixed-point solver requires mode='discounted'")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidParameter(f"epsilon must be finite and > 0, got {epsilon}")
    started = time.perf_counter()
    beta = spec.discount
    max_c = spec.max_abs_cost
    layout = stage_layout(spec, 1)
    structures: dict = {}
    table = _StationaryTable(layout, cap_beliefs)
    roots = initial_belief(spec)
    root_ids = table.intern_full(np.stack([bel.weights for _, bel in roots]))

    groups = []  # per support group: (structure, beliefs, costs, mass, child)
    expanded = [0, 0, 0]  # classes, branches, signatures
    n = 0  # beliefs expanded so far, in creation order
    while n < table.count:
        frontier = table.weights[n:]
        got, counts = _expand_stage(spec, 1, frontier, table, cap_prescriptions,
                                    structures)
        groups += [(structure, n + np.asarray(nodes), costs, mass, child)
                   for structure, nodes, costs, mass, child in got]
        expanded = [a + b for a, b in zip(expanded, counts[:3])]
        n += len(frontier)
        if beta * max_c == 0.0:
            break  # no continuation: the roots' values are their stage costs

    # belief i owns the classes starts[i]:starts[i + 1], in class order; the
    # branches are flat over every group, each class's in message order, and
    # each takes its signature's mass and child
    counts = np.empty(n, dtype=np.int64)
    rows = [None] * n  # per belief: (structure, its children by branch)
    for structure, nodes, _, _, child in groups:
        counts[nodes] = structure.count
        for node, kids in zip(nodes.tolist(), child):
            rows[node] = (structure, kids)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    owner = np.repeat(np.arange(n), counts)
    at, costs, cls, mass, child = map(np.concatenate, zip(*(
        ((starts[nodes][:, None] + np.arange(structure.count)).reshape(-1),
         costs.reshape(-1), (starts[nodes][:, None] + structure.cls).reshape(-1),
         mass[:, structure.sig].reshape(-1), child[:, structure.sig].reshape(-1))
        for structure, nodes, costs, mass, child in groups)))
    cost = np.empty(starts[-1])
    cost[at] = costs
    live = child < n  # every branch, unless only the roots were expanded
    cls, mass, child = cls[live], mass[live], child[live]

    # Howard policy iteration from the first argmin of the stage costs; a
    # belief switches only to a class better by more than tol, so rounding
    # cannot make the policies cycle
    tol = _TOLERANCE * max_c / (1.0 - beta)
    choice = _first_argmin(cost, np.minimum.reduceat(cost, starts[:-1]), owner, starts)
    values = np.zeros(n)
    iterations = 0
    while True:
        chosen = np.zeros(len(cost), dtype=bool)
        chosen[choice] = True
        on = chosen[cls]
        values = _policy_values(beta, tol, cost[choice], owner[cls[on]], child[on],
                                mass[on], values)
        iterations += 1
        q = cost + beta * np.bincount(cls, weights=mass * values[child],
                                      minlength=len(cost))
        low = np.minimum.reduceat(q, starts[:-1])
        better = low < q[choice] - tol
        if not better.any():
            break
        choice[better] = _first_argmin(q, low, owner, starts)[better]
    choice = _first_argmin(q, low, owner, starts) - starts[:-1]
    residual = float(np.abs(values - low).max())
    tail = residual / (1.0 - beta)
    value = float(sum(prob * low[i] for (prob, _), i in zip(roots, root_ids.tolist())))

    keys = canonical_keys(table.weights)  # the key each belief was interned by
    entries = []
    for i, ((structure, kids), best) in enumerate(zip(rows, choice.tolist())):
        rep, children = _chosen(structure, best, kids)
        entries.append(PolicyEntry(
            key=keys[i],
            belief=Belief(t=1, n=spec.n, dims=layout.dims,
                          weights=np.copy(table.weights[i])),
            gamma_index=rep, value=float(low[i]),
            children={z: keys[c] for z, c in children.items()}))

    policy = StationaryPolicy(
        epsilon=epsilon, iterations=iterations, residual=residual,
        tail_bound=tail, value=value, entries=entries)
    report = ValueReport(
        value=value, variant="full", mode="discounted",
        stage_nodes=[n],
        prescription_space_sizes=[PrescriptionSpace(spec, 1).size],
        expanded_classes=[expanded[0]],
        runtime_s=time.perf_counter() - started,
        iterations=iterations, residual=residual, tail_bound=tail,
        stats={"branches": [expanded[1]], "signatures": [expanded[2]]})
    return report, policy
