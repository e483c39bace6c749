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
  an exact int, is computed only for the class a node chooses.
* *Observation marginalization*: the current observations are
  conditionally independent of the local memories given the state, so
  a finite solve stores, hashes and interns beliefs over ``(x, m)``
  only and reattaches the stage's observation law
  (:meth:`StageLayout.lift`) when it expands a stage.  Both variants
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
  support entry, last action and lead class is shared by every node on
  the support.  It is laid out as ``(s, u * |lead classes| + a)`` with
  the entries grouped by ``q``, so a batch of nodes is contracted with
  each point's rows by one contiguous matrix product, and the minimum
  over ``u`` is an elementwise minimum of ``|U_n|`` contiguous slices
  rather than a reduction over a short strided axis.  Each ``G`` entry
  is the same dot product in any column order, minima are exact, and
  ``V`` sums over ``q`` along a contiguous axis, so values and ties do
  not depend on the layout.  Tie-break: the joint class index is
  ``a * |last classes| + b``, and ``b`` puts the last controller's first
  point most significant, so the smallest minimizing class is the first
  ``argmin`` of ``V`` over ``a`` followed by the first ``argmin`` over
  ``u`` at each ``q``.  Representatives are sums of per-point place
  values, exact ints computed once per distinct lead class and per node.
  The last stage still reports, and checks against the cap, the number
  of classes it would enumerate.

Branches.  A stage before ``T`` is expanded in batches of nodes.  The
branches of a node are the pairs ``class * |Z| + z`` that occur on its
support, sorted, so in the order of a loop over classes and then
messages: branch ``b`` is class ``cls[b]`` emitting joint message
``z[b]``.  They depend only on the support, so the class structure of a
support holds them once, with each ``(class, support entry)``'s branch
and next-memory slot, for every node on it.  :func:`_successors` takes
a block of nodes on one support and returns flat arrays, node ``k``'s
branches at offset ``k * |branches|``: the masses from one
``np.bincount`` over ``node * |branches| + branch``, and the successor
beliefs over ``(x', m')`` from one ``np.bincount`` per ``x'`` over
``(node * |branches| + branch) * |M'| + m'``.  ``np.bincount`` adds in
index order, so each mass and successor weight receives the same addends
in the same order as in a one-node call, and the row sums that normalize
the successors reduce a contiguous axis of fixed length: every bit is
independent of the batch.  A stage's nodes are walked in chunks of
consecutive nodes whose arrays stay within a 32nd of
``_BATCH_ENTRIES``; a chunk's nodes are grouped by support, and its
successors are interned by one call in (node, class, message) order,
which deduplicates the batch first and creates beliefs in order of first
occurrence, so node creation order and node ids are those of a
node-by-node, one-class-at-a-time expansion.  The backward pass for a
group of nodes is ``costs + np.bincount(node * |classes| + cls,
weights=mass * V_next[child])``, which sums each class's continuation in
message order, then ``argmin`` per node, whose first minimum is the
smallest representative because classes are ordered by representative.

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
import operator
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .coordinator import (
    ZERO_MASS,
    Belief,
    PrescriptionSpace,
    ReducedBelief,
    canonical_rows,
    chi,
    initial_belief,
    stage_layout,
)
from .errors import Infeasible, InvalidParameter, SizeOverflow
from .model import ControlStrategy, ProblemSpec, StrategyNode

DEFAULT_PRESCRIPTION_CAP = 10_000_000


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
    A class's representative plays action 0 off the support, so it is
    the sum of its actions times their place values: ``place[i][k]``,
    an exact int in an object array, is the weight of controller ``i``'s
    action at point ``uniq[i][k]`` in a full prescription index.

    Raises:
        SizeOverflow: there are more than ``cap`` classes.
    """

    def __init__(self, spec: ProblemSpec, t: int, support: np.ndarray, cap: int):
        layout = stage_layout(spec, t)
        self.support = support
        self.x_sup = layout.x_of[support]
        self.cards = spec.action_cards
        n_points = [ny * nm for ny, nm in zip(layout.ny, layout.nm)]
        self.uniq, self.inv, self.place = [], [], []
        for i in range(spec.n):
            points = layout.point_of[i][support]
            seen = np.zeros(n_points[i], dtype=bool)
            seen[points] = True
            uniq = np.flatnonzero(seen)
            self.uniq.append(uniq)
            self.inv.append(np.searchsorted(uniq, points))
            # prescriptions of the controllers after i
            later = math.prod(nu ** k for nu, k in
                              zip(self.cards[i + 1:], n_points[i + 1:]))
            self.place.append(np.array([self.cards[i] ** (n_points[i] - 1 - p) * later
                                        for p in uniq.tolist()], dtype=object))
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

    def _encode(self, actions) -> int:
        """Full prescription index of on-support actions, action 0 elsewhere.

        ``actions[i]`` lists controller ``i``'s actions at its points, as
        ints; controllers past ``len(actions)`` contribute nothing.
        """
        return sum(map(operator.mul, chain.from_iterable(self.place[:len(actions)]),
                       chain.from_iterable(actions)))


class _ClassStructure(_Classes):
    """Weight-independent class and branch tables of a stage with a continuation.

    Everything here depends only on the stage and the support pattern,
    so every belief node sharing a support shares one structure.
    ``cost_matrix[c, s]`` is the stage cost of support entry ``s`` under
    class ``c``.  The branches are the pairs ``class * |Z| + z`` that
    occur on the support, sorted, so in (class, message) order: branch
    ``b`` is class ``cls[b]`` emitting joint message ``z[b]``, and class
    ``c`` owns branches ``bounds[c]:bounds[c + 1]``.  Over the raveled
    ``(class, support entry)`` grid, ``branch`` is each entry's branch,
    ``slot`` its ``branch * |M'| + m'`` with ``m'`` the next joint
    memory, and ``xu`` its ``(x, u)`` row of the cost table and the
    kernel.  The kernel's columns are gathered through ``xu`` when they
    are used, so a structure holds four tables of ``|classes| *
    |support|`` entries whatever ``|X'|``.  ``entries`` is the size of
    the largest array one node adds to a batch of :func:`_successors`.
    Representatives are computed once per class.
    """

    def __init__(self, spec: ProblemSpec, t: int, support: np.ndarray, cap: int):
        super().__init__(spec, t, support, cap)
        n = spec.n
        self._check_table(self.count * len(support), t)
        layout = stage_layout(spec, t)
        layout_next = stage_layout(spec, t + 1 if spec.mode == "finite" else 1)
        mem_strides = np.ones(n, dtype=np.int64)
        for i in range(n - 2, -1, -1):
            mem_strides[i] = mem_strides[i + 1] * layout_next.nm[i + 1]

        ids = np.arange(self.count, dtype=np.int64)
        u_flat = np.zeros((self.count, len(support)), dtype=np.int64)
        z_flat = np.zeros_like(u_flat)
        m_next = np.zeros_like(u_flat)
        later = self.count  # joint classes of the controllers after i
        for i in range(n):
            later //= self.counts[i]
            # controller i's terms per class of its own, then per joint class
            acts = _digits(np.arange(self.counts[i]), self.cards[i],
                           len(self.uniq[i]))[:, self.inv[i]]  # (own class, S)
            mi, yi = layout.m_of[i][support], layout.y_of[i][support]
            own = ids // later % self.counts[i]
            u_flat += (acts * layout.act_strides[i])[own]
            z_flat += (spec.msg_map(i, t)[mi, yi, acts] * layout.msg_strides[i])[own]
            m_next += (spec.mem_update(i, t)[mi, yi, acts] * mem_strides[i])[own]
        # the (x, u) row of the cost table and the kernel at each
        # (class, support entry)
        cost = spec.cost(t)
        self.xu = (self.x_sup * cost.shape[1] + u_flat).reshape(-1)
        self.cost_matrix = cost.take(self.xu).reshape(u_flat.shape)

        n_msgs = int(np.prod(layout.msg_cards, dtype=np.int64))
        # every support entry carries more than ZERO_MASS, so every pair
        # that occurs is a live branch
        pairs, branch = np.unique(ids[:, None] * n_msgs + z_flat, return_inverse=True)
        self.cls, self.z = pairs // n_msgs, pairs % n_msgs
        self.bounds = np.searchsorted(self.cls, np.arange(self.count + 1)).tolist()
        self.branch = branch.reshape(-1)
        self.slot = self.branch * layout_next.n_mem + m_next.reshape(-1)
        width = layout_next.nx * layout_next.n_mem  # of a successor over (x', m')
        self.entries = max(self.count * len(support), len(pairs) * width)
        self._representatives: dict[int, int] = {}

    def representative(self, c: int) -> int:
        """Smallest full prescription index in class ``c``, computed once."""
        rep = self._representatives.get(c)
        if rep is None:
            rep = self._representatives[c] = self._encode(
                [acts.tolist() for acts in self._point_actions(c, len(self.uniq))])
        return rep


class _LastStage(_Classes):
    """Exact separable best response at one support of the last stage.

    With no continuation, fixing the lead class ``a`` (controllers
    ``0..n-2``) splits the last controller's choice into one
    minimization per on-support point ``q``:
    ``V(a) = sum_q min_u G[q, u, a]`` with
    ``G[q, u, a] = sum_{s at q} w_s * C[s, u, a]`` and
    ``C[s, u, a] = c(x_s, u_lead(a, s), u)``.  ``C`` does not depend on
    the weights, so every node on the support shares it.

    ``C`` is stored in an ``(s, u * lead + a)`` layout, one block per
    point: ``order`` sorts the support entries stably by point, point
    ``q`` owns positions ``cuts[q] = (lo, hi)`` of that order, and row
    ``j`` of ``blocks[q]`` is ``C`` at entry ``order[lo + j]``.  Lead
    class ``a`` plays ``a // divisors[i][k] % |U_i|`` at point
    ``uniq[i][k]`` of lead controller ``i``.
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
        self.divisors, below = [], lead
        for i in range(last):
            below //= self.counts[i]
            div = below * self.cards[i] ** np.arange(len(self.uniq[i]) - 1, -1, -1)
            self.divisors.append(div.tolist())
            digits = np.arange(lead) // div[:, None] % self.cards[i]  # (point, a)
            flat = flat + digits[self.inv[i][self.order]] * layout.act_strides[i]
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
        where its column sits.  The minimum over ``u`` is an elementwise
        minimum of the ``|U_n|`` contiguous slices
        ``g[:, q, u * lead:(u + 1) * lead]``, written to
        ``low[row, a, q]``; minima are exact.  ``V`` sums the C-ordered
        ``low`` along its last axis.  So every value, and every tie, has
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
        low = np.empty((rows, lead, points))
        np.minimum.reduce(g.transpose(2, 0, 3, 1), axis=0, out=low)
        v = low.sum(axis=2)
        best = v.argmin(axis=1)
        r = np.arange(rows)
        return v[r, best], best, g[r, :, :, best].argmin(axis=2)

    def representatives(self, lead: np.ndarray, acts: np.ndarray) -> np.ndarray:
        """Smallest full prescription index of each row's class from :meth:`best`.

        Returns exact ints in an object array.  The lead controllers'
        part of an index is computed once per distinct lead class.
        """
        lead = lead.tolist()
        parts = {a: self._encode([[a // d % nu for d in div]
                                  for div, nu in zip(self.divisors, self.cards)])
                 for a in set(lead)}
        return acts @ self.place[-1] + np.array([parts[a] for a in lead], dtype=object)


def _solve_last_stage(spec: ProblemSpec, t: int, weights: np.ndarray, cap: int):
    """Value, representative and class count of every last-stage node.

    ``weights`` holds one full belief per row.  Nodes are grouped by
    support, and each group is solved in batches of rows, small enough
    that a batch's ``g`` and ``low`` hold at most ``_BATCH_ENTRIES``
    entries together, or else of one node.
    """
    mask = weights > ZERO_MASS
    groups: dict[bytes, list[int]] = {}
    for node, key in enumerate(np.packbits(mask, axis=1)):
        groups.setdefault(key.tobytes(), []).append(node)
    values = np.empty(len(weights))
    representatives = np.empty(len(weights), dtype=object)
    classes = 0
    # groups in order of their first node, so a cap overflow reports the
    # count of the first node over the cap, as a node-by-node pass would
    for nodes in groups.values():
        support = np.flatnonzero(mask[nodes[0]])
        stage = _LastStage(spec, t, support, cap)
        classes += stage.count * len(nodes)
        points, n_u, lead = stage.shape
        rows = max(1, _BATCH_ENTRIES // (lead * points * (n_u + 1)) - 1)
        columns = support[stage.order]
        for lo in range(0, len(nodes), rows):
            part = nodes[lo:lo + rows]
            # and a row of zeros, so that a batch of one node is still
            # contracted as a matrix, with the same sums as in any batch
            w = np.zeros((len(part) + 1, len(columns)))
            w[:-1] = weights[np.ix_(part, columns)]
            value, best, acts = stage.best(w)
            values[part] = value[:-1]
            representatives[part] = stage.representatives(best[:-1], acts[:-1])
    return values, representatives.tolist(), classes


def _structure(spec: ProblemSpec, t: int, support: np.ndarray, cap: int,
               structures: dict) -> _ClassStructure:
    """The class structure of ``support`` at stage ``t``, built once per solve.

    ``structures`` is owned by one solve, so every node on the same
    support shares the tables; only a node's stage costs, branch masses
    and successors depend on its weights.
    """
    key = (t, support.tobytes())
    structure = structures.get(key)
    if structure is None:
        structure = structures[key] = _ClassStructure(spec, t, support, cap)
    return structure


def _successors(spec: ProblemSpec, t: int, structure: _ClassStructure,
                w_sup: np.ndarray):
    """Every live branch of a batch of nodes on one support.

    ``w_sup`` holds one node's full weights on the structure's support
    per row.  Every node has the structure's branches, so node ``k``'s
    branches sit at offset ``k * len(structure.cls)`` of the flat
    arrays.  Returns ``(mass, succ)``: ``mass[k, b]`` is the probability
    that node ``k`` takes branch ``b``, and row ``k * len(cls) + b`` of
    ``succ`` is that branch's normalized successor belief over
    ``(x', m')``, flattened with ``x'`` most significant.

    Each output slot receives the same addends in the same order as in a
    one-node batch: ``np.bincount`` adds its weights in index order, and
    the batch only offsets every index by its node's block.  Row sums
    reduce a contiguous axis of fixed length.  So no result depends on
    the batch.
    """
    layout_next = stage_layout(spec, t + 1 if spec.mode == "finite" else 1)
    nodes = len(w_sup)
    count, n_sup = structure.cost_matrix.shape
    n_branches = len(structure.cls)
    offset = np.arange(nodes, dtype=np.int64)[:, None] * n_branches
    w = np.broadcast_to(w_sup[:, None, :], (nodes, count, n_sup)).reshape(nodes, -1)
    index = (offset + structure.branch).reshape(-1)
    mass = np.bincount(index, weights=w.reshape(-1), minlength=nodes * n_branches)
    cond = w / mass[index].reshape(w.shape)
    index = (offset * layout_next.n_mem + structure.slot).reshape(-1)
    rows = nodes * n_branches
    succ = np.empty((rows, layout_next.nx, layout_next.n_mem))
    kernel = spec.transition(t)
    kernel = kernel.reshape(-1, kernel.shape[2])  # rows (x, u), columns x'
    for xn in range(layout_next.nx):
        p = kernel[:, xn].take(structure.xu)
        succ[:, xn, :] = np.bincount(
            index, weights=(cond * p).reshape(-1),
            minlength=rows * layout_next.n_mem).reshape(rows, -1)
    succ = succ.reshape(rows, -1)
    succ /= succ.sum(axis=1, keepdims=True)
    return mass.reshape(nodes, n_branches), succ


class _BeliefTable:
    """Deduplicated beliefs of one stage, in creation order.

    ``keys`` maps each belief's canonical key to its index and lists the
    keys in creation order; ``weights[i]`` is belief ``i``'s row.
    """

    def __init__(self):
        self.keys = {}
        self.weights = []

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """Index of every row's belief, adding new ones in row order.

        The batch is deduplicated before the table is consulted: one
        ``np.unique`` over the canonical rows, viewed as one opaque item
        each, finds the distinct rows, and only those are looked up or
        added, in order of first occurrence, so beliefs are created in
        the order a row-by-row pass would create them.  A new belief
        stores a copy of its row, so the batch it came from can be freed.
        """
        rounded = canonical_rows(rows)
        items = rounded.view(np.dtype((np.void, rounded.itemsize * rounded.shape[1])))
        distinct, first, inverse = np.unique(items.reshape(-1), return_index=True,
                                             return_inverse=True)
        order = np.argsort(first)
        known = len(self.weights)
        # a key not yet in the table gets the next index
        ids = np.array([self.keys.setdefault(key, len(self.keys))
                        for key in distinct[order].tolist()], dtype=np.int64)
        self.weights.extend(map(np.copy, rows[first[order[ids >= known]]]))
        out = np.empty(len(ids), dtype=np.int64)
        out[order] = ids
        return out[inverse]


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
    one call, in (node, class, message) order, so node ids are those of
    a node-by-node expansion.  Stage costs stay one matrix-vector
    product per node: a matrix product over the group would group the
    sums differently.

    Returns ``(groups, classes)``: per group ``(structure, nodes, costs,
    mass, child)``, with row ``k`` of ``costs``, ``mass`` and ``child``
    belonging to node ``nodes[k]``, and the number of classes expanded.
    """
    node_structures = [
        _structure(spec, t, np.flatnonzero(w > ZERO_MASS), cap, structures)
        for w in weights]
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
    return groups, sum(structure.count for structure in node_structures)


def _backward(groups, values_next: np.ndarray, values: np.ndarray, chosen: list):
    """Best class, value and children of every node of one expanded stage.

    Per group, ``q = costs + np.bincount(node * count + cls, weights=mass
    * values_next[child])`` sums each class's continuation in message
    order, as a one-node pass would, and the first ``argmin`` of each
    row is its smallest representative, because classes are ordered by
    representative.  ``chosen[node]`` becomes ``(representative,
    {z: child})``.
    """
    for structure, nodes, costs, mass, child in groups:
        rows, count = costs.shape
        index = np.arange(rows, dtype=np.int64)[:, None] * count + structure.cls
        q = costs + np.bincount(index.reshape(-1),
                                weights=(mass * values_next[child]).reshape(-1),
                                minlength=rows * count).reshape(rows, count)
        best = q.argmin(axis=1)
        values[nodes] = q[np.arange(rows), best]
        for node, b, kids in zip(nodes, best.tolist(), child):
            lo, hi = structure.bounds[b], structure.bounds[b + 1]
            chosen[node] = (structure.representative(b),
                            dict(zip(structure.z[lo:hi].tolist(), kids[lo:hi].tolist())))


# -- finite horizon ----------------------------------------------------------


def _solve_finite(spec: ProblemSpec, variant: str, cap: int):
    """One solve over reduced beliefs; ``variant`` only picks what nodes carry.

    The ``"reduced"`` tree carries the stored rows over ``(x, m)``, the
    ``"full"`` tree their lifts, bit for bit those the expansion used.
    """
    if spec.mode != "finite":
        raise InvalidParameter("finite-horizon solver requires mode='finite'")
    started = time.perf_counter()
    T = spec.horizon
    structures: dict = {}

    stages = [_BeliefTable() for _ in range(T)]
    roots = initial_belief(spec)
    first = stages[0].intern(np.stack([chi(bel).weights for _, bel in roots]))
    roots = [(float(prob), int(idx)) for (prob, _), idx in zip(roots, first)]

    def lifted(t):  # the full weights of stage t's stored beliefs, by row
        return stage_layout(spec, t).lift(np.stack(stages[t - 1].weights))

    expansions = []  # per stage t < T: its groups from _expand_stage
    expanded_classes = [0] * T
    for t in range(1, T):
        groups, expanded_classes[t - 1] = _expand_stage(
            spec, t, lifted(t), stages[t], cap, structures)
        expansions.append(groups)

    values = [np.zeros(len(table.weights)) for table in stages]
    values[T - 1], last_reps, expanded_classes[T - 1] = \
        _solve_last_stage(spec, T, lifted(T), cap)
    # per node: (representative, {z: child})
    chosen = [[None] * len(table.weights) for table in stages]
    chosen[T - 1] = [(rep, {}) for rep in last_reps]
    for t in range(T - 1, 0, -1):
        _backward(expansions[t - 1], values[t], values[t - 1], chosen[t - 1])

    total = sum(prob * values[0][idx] for prob, idx in roots)

    # globally sequential node ids over the whole DP, stage by stage
    offset = [0]
    for table in stages:
        offset.append(offset[-1] + len(table.weights))
    # tree nodes for the nodes the roots reach through chosen children only
    tree_stages = []
    reached = sorted({idx for _, idx in roots})
    for t in range(1, T + 1):
        layout = stage_layout(spec, t)
        rows = [stages[t - 1].weights[idx] for idx in reached]  # each a copy
        if variant == "full":
            # lift is elementwise, so these are the bits the solve used; the
            # rows are views of one array, so each belief gets its own copy
            cls, dims = Belief, layout.dims
            rows = map(np.copy, layout.lift(np.stack(rows)))
        else:
            cls, dims = ReducedBelief, (layout.nx,) + layout.nm
        nodes = []
        for idx, w in zip(reached, rows):
            rep, children = chosen[t - 1][idx]
            nodes.append(TreeNode(
                node_id=offset[t - 1] + idx, t=t,
                belief=cls(t=t, n=spec.n, dims=dims, weights=w),
                gamma_index=rep, value=float(values[t - 1][idx]),
                children={z: offset[t] + child for z, child in children.items()},
            ))
        tree_stages.append(nodes)
        reached = sorted({child for idx in reached
                          for child in chosen[t - 1][idx][1].values()})

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
        stage_nodes=[len(table.weights) for table in stages],
        prescription_space_sizes=[PrescriptionSpace(spec, t).size
                                  for t in range(1, T + 1)],
        expanded_classes=expanded_classes,
        runtime_s=time.perf_counter() - started,
    )
    return report, tree


def solve_finite(spec: ProblemSpec, cap_prescriptions: int = DEFAULT_PRESCRIPTION_CAP):
    """Solve a finite-horizon problem exactly over full coordinator beliefs.

    Returns ``(ValueReport, PolicyTree)``.  Ties between prescriptions
    with equal cost-to-go break toward the smallest full prescription
    index.  Message branches of probability <= 1e-15 are pruned.

    Raises:
        SizeOverflow: a node needs more prescription classes than
            ``cap_prescriptions``.
    """
    return _solve_finite(spec, "full", cap_prescriptions)


def solve_finite_reduced(spec: ProblemSpec,
                         cap_prescriptions: int = DEFAULT_PRESCRIPTION_CAP):
    """The same solve; each node carries its belief over ``(x, m)`` instead."""
    return _solve_finite(spec, "reduced", cap_prescriptions)


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
    """Full stationary beliefs, at most ``cap`` of them.

    :func:`_expand_stage` interns successors over ``(x', m')``; this
    table lifts them first, so it stores and keys full beliefs, as
    stationary documents do.
    """

    def __init__(self, layout, cap: int):
        super().__init__()
        self.layout, self.cap = layout, cap

    def intern_full(self, rows: np.ndarray) -> np.ndarray:
        out = super().intern(rows)
        if len(self.weights) > self.cap:
            raise Infeasible(f"reachable stationary beliefs exceed cap {self.cap}",
                             count=len(self.weights))
        return out

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
    expanded_classes = 0
    n = 0  # beliefs expanded so far, in creation order
    while n < len(table.weights):
        frontier = np.stack(table.weights[n:])
        got, classes = _expand_stage(spec, 1, frontier, table, cap_prescriptions,
                                     structures)
        groups += [(structure, n + np.asarray(nodes), costs, mass, child)
                   for structure, nodes, costs, mass, child in got]
        expanded_classes += classes
        n += len(frontier)
        if beta * max_c == 0.0:
            break  # no continuation: the roots' values are their stage costs

    # belief i owns the classes starts[i]:starts[i + 1], in class order; the
    # branches are flat over every group, each class's in message order
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
         mass.reshape(-1), child.reshape(-1))
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

    keys = list(table.keys)  # in creation order, so keys[i] is belief i's key
    entries = []
    for i, ((structure, kids), best) in enumerate(zip(rows, choice.tolist())):
        lo, hi = structure.bounds[best], structure.bounds[best + 1]
        entries.append(PolicyEntry(
            belief=Belief(t=1, n=spec.n, dims=layout.dims, weights=table.weights[i]),
            gamma_index=structure.representative(best), value=float(low[i]),
            children={z: keys[c] for z, c in zip(structure.z[lo:hi].tolist(),
                                                  kids[lo:hi].tolist())}))

    policy = StationaryPolicy(
        epsilon=epsilon, iterations=iterations, residual=residual,
        tail_bound=tail, value=value, entries=entries)
    report = ValueReport(
        value=value, variant="full", mode="discounted",
        stage_nodes=[n],
        prescription_space_sizes=[PrescriptionSpace(spec, 1).size],
        expanded_classes=[expanded_classes],
        runtime_s=time.perf_counter() - started,
        iterations=iterations, residual=residual, tail_bound=tail)
    return report, policy
