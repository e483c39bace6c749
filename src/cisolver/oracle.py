"""Brute-force ground truth for small decentralized problems.

Everything here works directly on the model tables (kernels, cost
tables, message maps, memory updates) with explicit measures over
``(x, observations, memories)`` tuples; none of it shares code with the
belief-space solver, so agreement between the two is evidence, not
tautology.

Three operations:

* exact expected cost of a given control strategy, by summing over all
  trajectory branches weighted by their kernel probabilities;
* enumeration of all *basic* strategies: every deterministic assignment
  of actions to the decision points ``(shared-memory node, observation,
  local memory)`` that are realizable under the strategy being built,
  enumerated depth-first over the realizable node tree;
* enumeration of coordinator strategies: every joint prescription at
  every distinct (stage, belief) node, with nodes deduplicated by their
  conditional measure, the way a centralized reformulation would count
  its options.

Both enumerations return the minimizing strategy in executable form.

Each public call first compiles the model into a private per-stage view
of plain Python values (:class:`_Stage`): cost rows, message maps and
memory updates as nested lists, each transition row as its positive
``(x', p)`` pairs, the joint positive observations, the strides and the
prescription radix.  The loops read that view instead of indexing numpy
arrays one element at a time.  Every float in it is the double numpy
held, and every sum and product is formed from the same operands in the
same order, so counts, minima and strategies are those of reading the
arrays.  The view is the model, not the solver's structures: this module
still imports nothing from ``dp``, ``coordinator`` or ``sim``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidParameter, UnreachableInformation
from .model import ControlStrategy, ProblemSpec, StrategyNode

#: Conditional-measure entries are rounded to this many decimals when two
#: enumeration nodes are tested for equality.
_CANON_DECIMALS = 12
_ZERO = 1e-15


@dataclass
class EnumerationReport:
    """Outcome of a brute-force enumeration."""

    kind: str  # "basic" or "coordinator"
    count: int  # strategies examined / prescription evaluations performed
    minimum: float
    strategy: ControlStrategy
    runtime_s: float


def _require_finite(spec: ProblemSpec, what: str):
    if spec.mode != "finite":
        raise InvalidParameter(f"{what} requires a finite-horizon problem")


def _strides(cards) -> list[int]:
    """Mixed-radix strides, the first entry most significant."""
    strides = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]
    return strides


def _positive_obs(spec: ProblemSpec, t: int) -> list[list[list[tuple[int, float]]]]:
    """Per controller, per state: the positive-probability observations."""
    out = []
    for i in range(spec.n):
        rows = spec.obs_kernel(i, t).tolist()
        out.append([[(y, py) for y, py in enumerate(row) if py > 0.0] for row in rows])
    return out


def _digits(index: int, bases: list[int]) -> tuple[int, ...]:
    """``index`` in the mixed radix ``bases``, the first digit most significant."""
    digits = []
    for base in reversed(bases):
        digits.append(index % base)
        index //= base
    digits.reverse()
    return tuple(digits)


class _Stage:
    """One stage of the model as Python values, read by the oracles' loops.

    Every float is the double numpy held (``tolist``), so sums and products
    over these values are bitwise those over the arrays.

    * ``cost[x][u_flat]``; the joint-action strides ``act_strides``; ``ny``
      and ``nm``, per controller;
    * ``bases``: one digit base ``|U_i|`` per (controller, point ``(y, m)``),
      controller 0 and ``y * nm_i + m`` = 0 most significant, so a joint
      prescription index is a number in this radix; controller ``i``'s
      digits start at ``offsets[i]``;
    * before the last stage: ``msg_map[i][m][y][a]``,
      ``mem_update[i][m][y][a]``, the message strides ``zstr``,
      ``trans[x][u_flat]`` as the positive ``(x', p)`` pairs in state order,
      and ``obs_next[x']`` as ``(ys, probabilities)`` for every joint
      positive-probability observation at the next stage, in product order.
    """

    def __init__(self, spec: ProblemSpec, t: int):
        n = spec.n
        self.act_strides = _strides(spec.action_cards)
        self.cost = spec.cost(t).tolist()
        self.ny = [spec.obs_spaces[i].cardinality for i in range(n)]
        self.nm = list(spec.mem_cards(t))
        self.bases = [spec.action_cards[i] for i in range(n)
                      for _ in range(self.ny[i] * self.nm[i])]
        self.offsets = [sum(self.ny[j] * self.nm[j] for j in range(i)) for i in range(n)]
        if t == spec.horizon:
            return
        self.msg_map = [spec.msg_map(i, t).tolist() for i in range(n)]
        self.mem_update = [spec.mem_update(i, t).tolist() for i in range(n)]
        self.zstr = _strides(spec.msg_cards(t))
        self.trans = [[[(x2, px) for x2, px in enumerate(row) if px > 0.0]
                       for row in rows] for rows in spec.transition(t).tolist()]
        obs = _positive_obs(spec, t + 1)
        self.obs_next = [
            [(tuple(y for y, _ in combo), tuple(py for _, py in combo))
             for combo in itertools.product(*(obs[i][x2] for i in range(n)))]
            for x2 in range(spec.state_space.cardinality)]

    def positions(self, ys, ms) -> tuple[int, ...]:
        """Each controller's digit position in a joint prescription at ``(ys, ms)``."""
        return tuple(o + y * nm + m for o, nm, y, m in zip(self.offsets, self.nm, ys, ms))

    def u_flat(self, u) -> int:
        return sum(a * s for a, s in zip(u, self.act_strides))

    def message(self, ys, ms, u) -> int:
        """The joint message that actions ``u`` emit at ``(ys, ms)``."""
        return sum(self.msg_map[i][ms[i]][ys[i]][a] * self.zstr[i]
                   for i, a in enumerate(u))

    def extend(self, state, p: float, u, sink: dict, prefix: tuple = (),
               counter: list | None = None, cap: int = 0):
        """Push one weighted state through this stage's dynamics into ``sink``.

        Keys are ``prefix + (x', observations, memories)``.
        """
        x, ys, ms = state
        m_next = tuple(self.mem_update[i][ms[i]][ys[i]][a] for i, a in enumerate(u))
        for x2, px in self.trans[x][self.u_flat(u)]:
            px = p * px
            for ys2, pys in self.obs_next[x2]:
                q = px
                for py in pys:
                    q *= py
                if counter is not None:
                    counter[0] += 1
                    if counter[0] > cap:
                        raise Infeasible(
                            f"trajectory branches exceed cap {cap} "
                            f"(reached {counter[0]})", count=counter[0])
                if q > 0.0:
                    key = prefix + (x2, ys2, m_next)
                    sink[key] = sink.get(key, 0.0) + q


def _costed(st: _Stage, measure: dict, positions) -> list:
    """Per measure entry, in measure order: ``p * cost[x]`` as a row over
    ``u_flat``, and ``(digit position, action stride)`` per controller.

    A choice's stage cost is the sum over entries of ``row[u_flat]``, added
    in measure order: the same products, added in the same order, as
    ``p * cost[x][u_flat]`` entry by entry.
    """
    return [([p * c for c in st.cost[x]], tuple(zip(positions(ys, ms), st.act_strides)))
            for (x, ys, ms), p in measure.items()]


def _compile(spec: ProblemSpec) -> list[_Stage]:
    """The model's stages as Python values, built once per public call."""
    return [_Stage(spec, t) for t in range(1, spec.horizon + 1)]


def _initial_joint(spec: ProblemSpec):
    """Joint initial measures, one per strategy root, in root order.

    Yields ``(root_position, measure)`` where the measure maps
    ``(x, observations, empty memories)`` to its probability, already
    weighted by the root probability.
    """
    obs1 = _positive_obs(spec, 1)
    m0 = tuple(0 for _ in range(spec.n))

    def measure_for(weight_of_x):
        measure = {}
        for x in range(spec.state_space.cardinality):
            base = weight_of_x(x)
            if base <= 0.0:
                continue
            for combo in itertools.product(*(obs1[i][x] for i in range(spec.n))):
                p = base
                for _, py in combo:
                    p *= py
                if p > 0.0:
                    measure[(x, tuple(y for y, _ in combo), m0)] = p
        return measure

    if spec.initial_common_obs is None:
        yield 0, measure_for(lambda x: float(spec.initial_dist[x]))
        return
    kernel = spec.initial_common_obs.kernel
    pos = 0
    for ystar in range(spec.initial_common_obs.space.cardinality):
        mass = float(spec.initial_dist @ kernel[:, ystar])
        if mass <= _ZERO:
            continue
        yield pos, measure_for(
            lambda x, ys=ystar: float(spec.initial_dist[x] * kernel[x, ys]))
        pos += 1


def exact_cost_of_strategy(spec: ProblemSpec, strategy: ControlStrategy,
                           cap_branches: int = 100_000_000) -> float:
    """Exact expected total cost of ``strategy``, by trajectory summation.

    Raises:
        UnreachableInformation: the strategy has no child for a message
            that occurs with positive probability.
        Infeasible: more than ``cap_branches`` trajectory branches.
    """
    _require_finite(spec, "exact cost evaluation")
    if strategy.horizon != spec.horizon or strategy.n != spec.n:
        raise InvalidParameter("strategy shape does not match the problem")
    counter = [0]
    roots = list(strategy.roots)
    measure: dict = {}
    for pos, joint in _initial_joint(spec):
        if pos >= len(roots):
            raise InvalidParameter(
                "strategy has fewer root nodes than the problem has "
                "positive-probability common-signal values")
        root_id = roots[pos][1]
        for state, p in joint.items():
            measure[(root_id,) + state] = measure.get((root_id,) + state, 0.0) + p

    stages = _compile(spec)
    tables: dict = {}  # node id -> per controller, its action table as lists

    def actions(node_id, ys, ms):
        got = tables.get(node_id)
        if got is None:
            got = tables[node_id] = [np.asarray(tb, dtype=np.int64).tolist()
                                     for tb in strategy.node(node_id).tables]
        return tuple(tb[y][m] for tb, y, m in zip(got, ys, ms))

    total = 0.0
    for t, st in enumerate(stages, start=1):
        cost = st.cost
        stage_cost = 0.0
        us = []
        for (node_id, x, ys, ms), p in measure.items():
            u = actions(node_id, ys, ms)
            us.append(u)
            stage_cost += p * cost[x][st.u_flat(u)]
        total += stage_cost
        if t == spec.horizon:
            break
        nxt: dict = {}
        for ((node_id, x, ys, ms), p), u in zip(measure.items(), us):
            z = st.message(ys, ms, u)
            child = strategy.node(node_id).children.get(z)
            if child is None:
                raise UnreachableInformation(
                    f"strategy node {node_id} at stage {t} has no successor for "
                    f"message {z}, which occurs with probability {p!r}")
            st.extend((x, ys, ms), p, u, nxt, (child,), counter, cap_branches)
        measure = nxt
    return float(total)


# -- basic-strategy enumeration ----------------------------------------------


class _EnumNode:
    """One realizable node while a strategy is being built depth-first.

    An assignment gives an action to each realizable decision point
    ``(y_i, m_i)``, the points of controller 0 first and each controller's
    in sorted order; its index is a number in the radix ``bases``, the first
    point most significant.
    """

    __slots__ = ("label", "measure", "bases", "n_assign", "where", "entries", "costed")

    def __init__(self, spec: ProblemSpec, st: _Stage, label, measure: dict):
        self.label = label
        self.measure = measure
        # realizable decision points per controller, sorted
        points = [sorted({(ys[i], ms[i]) for (x, ys, ms) in measure})
                  for i in range(spec.n)]
        self.bases = [spec.action_cards[i] for i in range(spec.n) for _ in points[i]]
        self.n_assign = math.prod(self.bases)
        # per controller: point -> its position in an assignment's digits
        self.where = []
        for pts in points:
            offset = sum(map(len, self.where))
            self.where.append({pt: offset + k for k, pt in enumerate(pts)})
        # per measure entry: (state, p, each controller's digit position)
        self.entries = [(state, p, self.positions(state[1], state[2]))
                        for state, p in measure.items()]
        self.costed = _costed(st, measure, self.positions)

    def positions(self, ys, ms) -> tuple[int, ...]:
        return tuple(w[(y, m)] for w, y, m in zip(self.where, ys, ms))

    def actions(self, assignment: int):
        """Per-controller point -> action maps for one assignment index."""
        digits = _digits(assignment, self.bases)
        return tuple({pt: digits[k] for pt, k in w.items()} for w in self.where)

    def stage_cost(self, digits) -> float:
        """The stage cost of the assignment with these digits."""
        out = 0.0
        for row, terms in self.costed:
            u_flat = 0
            for k, stride in terms:
                u_flat += digits[k] * stride
            out += row[u_flat]
        return out


def enumerate_basic_strategies(spec: ProblemSpec,
                               cap_strategies: int = 10_000_000) -> EnumerationReport:
    """Enumerate every deterministic strategy on realizable decision points.

    A strategy assigns an action to each (shared-memory node,
    observation, local memory) triple that has positive probability
    *under the strategy itself*; the enumeration walks the realizable
    node tree depth-first, choosing stage assignments level by level, so
    the count equals the product of per-node assignment counts along
    each realized tree.  Returns the count, the minimum cost, and one
    minimizing strategy (earliest in enumeration order among ties).

    Raises:
        Infeasible: the strategy count exceeds ``cap_strategies``.
    """
    _require_finite(spec, "basic-strategy enumeration")
    started = time.perf_counter()
    T = spec.horizon
    stages = _compile(spec)
    counted = [0]
    best = [np.inf, None]  # minimum, snapshot of (levels, leaf assignment indices)

    root_nodes = [_EnumNode(spec, stages[0], (pos,), joint)
                  for pos, joint in _initial_joint(spec)]

    def children_of(nodes, assignment_digits, t):
        st = stages[t - 1]
        buckets: dict = {}
        for nd, digits in zip(nodes, assignment_digits):
            for (x, ys, ms), p, pos in nd.entries:
                u = tuple(digits[k] for k in pos)
                label = nd.label + (st.message(ys, ms, u),)
                st.extend((x, ys, ms), p, u, buckets.setdefault(label, {}))
        return [_EnumNode(spec, stages[t], label, buckets[label])
                for label in sorted(buckets)]

    def leaf_sweep(nodes, t, acc, path):
        sizes = [nd.n_assign for nd in nodes]
        total = math.prod(sizes)
        if counted[0] + total > cap_strategies:
            raise Infeasible(
                f"basic strategies exceed cap {cap_strategies} "
                f"(reached {counted[0] + total})", count=counted[0] + total)
        counted[0] += total
        acc_arr = np.array([acc])
        for nd in nodes:
            costs = np.array([nd.stage_cost(digits) for digits
                              in itertools.product(*map(range, nd.bases))])
            acc_arr = (acc_arr[:, None] + costs[None, :]).reshape(-1)
        pos = int(np.argmin(acc_arr))
        if acc_arr[pos] < best[0]:
            best[0] = float(acc_arr[pos])
            best[1] = path + [(nodes, list(_digits(pos, sizes)))]

    def dfs(nodes, t, acc, path):
        if t == T:
            leaf_sweep(nodes, t, acc, path)
            return
        for assignment_ids in itertools.product(*(range(nd.n_assign) for nd in nodes)):
            digits = [_digits(a, nd.bases) for nd, a in zip(nodes, assignment_ids)]
            stage = acc
            for nd, d in zip(nodes, digits):
                stage += nd.stage_cost(d)
            kids = children_of(nodes, digits, t)
            dfs(kids, t + 1, stage, path + [(nodes, list(assignment_ids))])

    dfs(root_nodes, 1, 0.0, [])
    strategy = _strategy_from_snapshot(spec, best[1])
    return EnumerationReport(
        kind="basic", count=counted[0], minimum=best[0], strategy=strategy,
        runtime_s=time.perf_counter() - started)


def _strategy_from_snapshot(spec: ProblemSpec, snapshot) -> ControlStrategy:
    """Build an executable strategy from one DFS path's nodes and choices."""
    ids = {}
    counter = 0
    for level, (nodes, _) in enumerate(snapshot, start=1):
        for nd in nodes:
            ids[(level, nd.label)] = counter
            counter += 1
    out_stages = []
    for level, (nodes, assignment_ids) in enumerate(snapshot, start=1):
        out = []
        for nd, a in zip(nodes, assignment_ids):
            maps = nd.actions(a)
            tables = []
            for i in range(spec.n):
                ny = spec.obs_spaces[i].cardinality
                table = np.zeros((ny, spec.mem_cards(level)[i]), dtype=np.int64)
                for (y, m), act in maps[i].items():
                    table[y, m] = act
                tables.append(table)
            children = {}
            if level < len(snapshot):
                for child_nd in snapshot[level][0]:
                    if child_nd.label[:-1] == nd.label:
                        children[child_nd.label[-1]] = ids[(level + 1, child_nd.label)]
            out.append(StrategyNode(
                node_id=ids[(level, nd.label)], t=level,
                tables=tuple(tables), children=children))
        out_stages.append(out)
    roots = []
    for nd in snapshot[0][0]:
        prob = sum(nd.measure.values())
        roots.append((float(prob), ids[(1, nd.label)]))
    return ControlStrategy(n=spec.n, horizon=spec.horizon,
                           roots=tuple(roots), stages=out_stages).finalize()


# -- coordinator-strategy enumeration ------------------------------------------


def _canon_measure(measure: dict):
    items = []
    for state in sorted(measure):
        p = round(measure[state], _CANON_DECIMALS)
        if p > 0.0:
            items.append((state, p))
    return tuple(items)


def enumerate_coordinator_strategies(spec: ProblemSpec,
                                     cap_evaluations: int = 10_000_000
                                     ) -> EnumerationReport:
    """Evaluate every joint prescription at every distinct belief node.

    Nodes are (stage, conditional measure) pairs reached from the root
    by positive-probability messages, deduplicated by measure; at each
    node all ``prod_i |U_i| ** (|Y_i| * |M_i|)`` joint prescriptions are
    evaluated once.  ``count`` is the total number of prescription
    evaluations.  Returns the optimum and one optimal strategy
    (smallest prescription indices among ties).

    Raises:
        Infeasible: evaluations exceed ``cap_evaluations``.
    """
    _require_finite(spec, "coordinator enumeration")
    started = time.perf_counter()
    T = spec.horizon
    stages = _compile(spec)
    evaluated = [0]
    memo: dict = {}  # (t, canonical measure) -> (value, gamma index, children)

    def push(st, entries, digits):
        """Conditional successor measures per message, with message masses.

        ``entries`` holds ``(state, p, digit positions)`` in state order.
        """
        masses: dict = {}
        moves = []
        for state, p, pos in entries:
            _, ys, ms = state
            u = tuple(digits[k] for k in pos)
            z = st.message(ys, ms, u)
            masses[z] = masses.get(z, 0.0) + p
            moves.append((state, p, u, z))
        sinks: dict = {}
        for state, p, u, z in moves:
            if masses[z] <= _ZERO:
                continue
            st.extend(state, p / masses[z], u, sinks.setdefault(z, {}))
        return [(z, masses[z], sinks[z]) for z in sorted(sinks)]

    def evaluate(t, measure):
        """Minimum expected cost-to-go per unit mass of a normalized measure."""
        key = (t, _canon_measure(measure))
        got = memo.get(key)
        if got is not None:
            return got[0], key
        st = stages[t - 1]
        joint = math.prod(st.bases)
        evaluated[0] += joint
        if evaluated[0] > cap_evaluations:
            raise Infeasible(
                f"prescription evaluations exceed cap {cap_evaluations} "
                f"(reached {evaluated[0]})", count=evaluated[0])
        costed = _costed(st, measure, st.positions)
        pushed = [(state, measure[state], st.positions(state[1], state[2]))
                  for state in sorted(measure)]
        best, best_gamma, best_children = np.inf, None, None
        # prescriptions in index order: the last digit runs fastest
        for index, digits in enumerate(itertools.product(*map(range, st.bases))):
            q = 0.0
            for row, terms in costed:
                u_flat = 0
                for k, stride in terms:
                    u_flat += digits[k] * stride
                q += row[u_flat]
            children = {}
            if t < T:
                for z, mass, child in push(st, pushed, digits):
                    value, child_key = evaluate(t + 1, child)
                    q += mass * value
                    children[z] = child_key
            if q < best:
                best, best_gamma, best_children = q, index, children
        memo[key] = (best, best_gamma, best_children)
        return best, key

    roots = []
    total = 0.0
    for pos, joint in _initial_joint(spec):
        mass = sum(joint.values())
        normalized = {state: p / mass for state, p in joint.items()}
        value, key = evaluate(1, normalized)
        total += mass * value
        roots.append((mass, key))

    strategy = _strategy_from_memo(spec, stages, memo, roots)
    return EnumerationReport(
        kind="coordinator", count=evaluated[0], minimum=float(total),
        strategy=strategy, runtime_s=time.perf_counter() - started)


def _gamma_tables(st: _Stage, index: int) -> tuple[np.ndarray, ...]:
    """Flat joint prescription index -> per-controller ``(y, m)`` action tables."""
    digits = _digits(index, st.bases)
    return tuple(np.array(digits[o:o + ny * nm], dtype=np.int64).reshape(ny, nm)
                 for o, ny, nm in zip(st.offsets, st.ny, st.nm))


def _strategy_from_memo(spec, compiled, memo, roots) -> ControlStrategy:
    """Stitch the per-node argmins into one executable strategy."""
    ids = {}
    stages = [[] for _ in range(spec.horizon)]
    frontier = [key for _, key in roots]
    counter = 0
    seen = set()
    while frontier:
        nxt = []
        for key in frontier:
            if key in seen:
                continue
            seen.add(key)
            t = key[0]
            ids[key] = counter
            counter += 1
            _, gamma, children = memo[key]
            stages[t - 1].append((key, gamma, children))
            if children:
                nxt.extend(children.values())
        frontier = nxt
    out_stages = []
    for t in range(1, spec.horizon + 1):
        out = []
        for key, gamma, children in stages[t - 1]:
            tables = _gamma_tables(compiled[t - 1], gamma)
            out.append(StrategyNode(
                node_id=ids[key], t=t, tables=tables,
                children={z: ids[ck] for z, ck in children.items()}))
        out_stages.append(out)
    return ControlStrategy(
        n=spec.n, horizon=spec.horizon,
        roots=tuple((float(mass), ids[key]) for mass, key in roots),
        stages=out_stages).finalize()
