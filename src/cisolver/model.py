"""Finite decentralized control problems with partial information sharing.

A problem couples a controlled finite Markov chain with ``n`` controllers.
At every stage each controller sees the state through its own noisy
channel, keeps a bounded local memory, acts, and then appends a chosen
part of its local data (a *message*) to a shared append-only memory that
every controller can read.  All primitives live over finite index sets:

* stochastic kernels are dense row-stochastic ``numpy`` arrays,
* the sharing protocol is a structural *witness* per controller and
  stage that ties every memory/message coordinate to a concrete past
  variable (an observation or an action at some stage), so that the
  subset/no-overlap rules of the information structure can be checked
  mechanically; the deterministic message map ``sigma`` and memory
  update ``mu`` are the coordinate projections of those slots.

Stages are 1-based throughout the public API; internal sequences are
0-based (stage ``t`` lives at list index ``t - 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidDistribution, InvalidParameter, MissingEntry

KIND_OBS = "obs"
KIND_ACT = "act"

#: Mass below which a probability row entry counts as violating nonnegativity.
_NEG_TOL = 1e-12
#: Tolerance on probability rows summing to one.
_ROW_TOL = 1e-9


class Slot(NamedTuple):
    """One coordinate of a memory or message: which variable it stores.

    ``kind`` is ``"obs"`` or ``"act"``; ``time`` is the 1-based stage at
    which the variable was generated.
    """

    kind: str
    time: int


@dataclass(frozen=True)
class FiniteSpace:
    """A finite index set ``{0, ..., cardinality - 1}`` with optional labels."""

    cardinality: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.cardinality < 1:
            raise InvalidParameter(f"cardinality must be >= 1, got {self.cardinality}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.cardinality:
                raise InvalidParameter(
                    f"{len(labels)} labels for cardinality {self.cardinality}"
                )
            if len(set(labels)) != len(labels):
                raise InvalidParameter("labels must be unique")


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """A finite noise source: values ``0..|W|-1`` with a fixed distribution."""

    space: FiniteSpace
    dist: np.ndarray

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", dist)
        if dist.shape != (self.space.cardinality,):
            raise InvalidParameter(
                f"noise dist has shape {dist.shape}, space has cardinality "
                f"{self.space.cardinality}"
            )
        if not np.all(np.isfinite(dist)):
            raise InvalidDistribution("noise distribution has non-finite entries")
        if np.any(dist < -_NEG_TOL):
            raise InvalidDistribution("noise distribution has negative mass")
        if abs(dist.sum() - 1.0) > _ROW_TOL:
            raise InvalidDistribution(
                f"noise distribution sums to {dist.sum()!r}, expected 1"
            )


@dataclass(frozen=True, eq=False)
class InitialCommonObs:
    """A one-shot common signal drawn alongside the initial state.

    Every controller (and the coordinator) sees the same draw ``y*`` with
    law ``kernel[x, y*]`` given the initial state ``x``, before stage 1.
    It splits the root belief into one node per signal value.
    """

    space: FiniteSpace
    kernel: np.ndarray  # (|X|, |Y*|)

    def __post_init__(self):
        object.__setattr__(self, "kernel", np.asarray(self.kernel, dtype=float))


@dataclass(frozen=True, eq=False)
class SharingProtocol:
    """Per-stage local-memory and message structure for every controller.

    For controller ``i`` (0-based) and stage ``t`` (1-based):

    * ``mem_slots[i][t-1]`` is the structural witness of the local memory
      at the start of stage ``t`` (empty at stage 1): the tuple of
      :class:`Slot` coordinates a memory value encodes, mixed radix with
      the first slot most significant,
    * ``msg_slots[i][t-1]`` (``t <= n_stages - 1``) is the witness of the
      message; index 0 is the reserved null message, real messages encode
      the slots by mixed radix plus one.

    The slots are the whole protocol.  The number of controllers and
    stages is their shape, :func:`slots_cardinality` turns them into
    memory and message cardinalities (:meth:`ProblemSpec.mem_cards`), and
    :func:`slot_projection` turns them into the message map and memory
    update tables (:meth:`ProblemSpec.msg_map`, :meth:`ProblemSpec.mem_update`),
    so every protocol is consistent with its slots.
    """

    mem_slots: tuple[tuple[tuple[Slot, ...], ...], ...]
    msg_slots: tuple[tuple[tuple[Slot, ...], ...], ...]

    def __post_init__(self):
        for name in ("mem_slots", "msg_slots"):
            object.__setattr__(self, name, tuple(
                tuple(tuple(slots) for slots in per_i) for per_i in getattr(self, name)))

    @property
    def n(self) -> int:
        return len(self.mem_slots)

    @property
    def n_stages(self) -> int:
        return len(self.mem_slots[0])


def slot_cardinality(slot: Slot, i: int, obs_spaces, action_spaces) -> int:
    if slot.kind == KIND_OBS:
        return obs_spaces[i].cardinality
    if slot.kind == KIND_ACT:
        return action_spaces[i].cardinality
    raise InvalidParameter(f"unknown slot kind {slot.kind!r}")


def encode_mixed_radix(values: Sequence[int], cards: Sequence[int]) -> int:
    """Pack digit tuple into one index, first digit most significant."""
    out = 0
    for v, c in zip(values, cards):
        out = out * c + v
    return out


def decode_mixed_radix(index: int, cards: Sequence[int]) -> tuple[int, ...]:
    out = []
    for c in reversed(cards):
        out.append(index % c)
        index //= c
    return tuple(reversed(out))


def _slot_values(slot: Slot, t: int, mem_vals: Mapping[Slot, int], y: int, u: int) -> int:
    if slot.time == t:
        return y if slot.kind == KIND_OBS else u
    return mem_vals[slot]


def _slot_cards(slots: Sequence[Slot], i: int, obs_spaces, action_spaces) -> list[int]:
    """Cardinality of every slot of a tuple, in order."""
    return [slot_cardinality(s, i, obs_spaces, action_spaces) for s in slots]


def slots_cardinality(slots: Sequence[Slot], i: int, obs_spaces, action_spaces,
                      message: bool = False) -> int:
    """Number of values of a memory, or with ``message`` a message, over ``slots``.

    A memory packs its slot values by mixed radix, so it has the product
    of their cardinalities (1 if there are none).  A message adds index
    0, the null message, unless it has no slot and is always null.
    """
    size = math.prod(_slot_cards(slots, i, obs_spaces, action_spaces))
    return 1 + size if message and slots else size


def slot_projection(
    i: int,
    t: int,
    mem_slots_t: tuple[Slot, ...],
    out_slots: tuple[Slot, ...],
    obs_spaces,
    action_spaces,
    message: bool = False,
) -> np.ndarray:
    """Build the stage-``t`` table implied by the witness slots.

    Output shape ``(|M_t|, |Y^i|, |U^i|)``; entry ``[m, y, u]`` is the
    mixed-radix packing of the ``out_slots`` values, read from the
    current memory, observation and action: the memory update.  With
    ``message`` it is the message map: ``1 +`` that packing, and 0, the
    null message, everywhere when there is no message slot.
    """
    mem_cards = _slot_cards(mem_slots_t, i, obs_spaces, action_spaces)
    out_cards = _slot_cards(out_slots, i, obs_spaces, action_spaces)
    n_y = obs_spaces[i].cardinality
    n_u = action_spaces[i].cardinality
    table = np.zeros((slots_cardinality(mem_slots_t, i, obs_spaces, action_spaces),
                      n_y, n_u), dtype=np.int64)
    if message and not out_slots:
        return table
    for m in range(len(table)):
        mem_vals = dict(zip(mem_slots_t, decode_mixed_radix(m, mem_cards)))
        for y in range(n_y):
            for u in range(n_u):
                vals = [_slot_values(s, t, mem_vals, y, u) for s in out_slots]
                table[m, y, u] = int(message) + encode_mixed_radix(vals, out_cards)
    return table


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A fully specified decentralized control problem.

    Attributes:
        n: number of controllers.
        mode: ``"finite"`` (total cost over ``horizon`` stages) or
            ``"discounted"`` (stationary tables, discount in ``[0, 1)``).
        horizon: number of stages ``T`` in finite mode, ``None`` otherwise.
        discount: discount factor in discounted mode, ``None`` otherwise.
        state_space: the chain's state space.
        obs_spaces / action_spaces: per-controller spaces.
        initial_dist: law of the initial state, shape ``(|X|,)``.
        transitions: per-stage kernels ``(|X|, |U_flat|, |X|)``; finite
            mode has ``T - 1`` of them, discounted mode exactly one.
        obs_kernels: ``obs_kernels[i][t-1]`` has shape ``(|X|, |Y^i|)``;
            finite mode has ``T`` per controller, discounted mode one.
        costs: per-stage cost tables ``(|X|, |U_flat|)``; ``T`` in finite
            mode, one in discounted mode.
        protocol: the sharing protocol.
        initial_common_obs: optional root-splitting common signal.

    Joint actions are flattened with controller 0 most significant:
    ``u_flat = sum_i u_i * prod_{j>i} |U_j|``.
    """

    n: int
    mode: str
    horizon: int | None
    discount: float | None
    state_space: FiniteSpace
    obs_spaces: tuple[FiniteSpace, ...]
    action_spaces: tuple[FiniteSpace, ...]
    initial_dist: np.ndarray
    transitions: tuple[np.ndarray, ...]
    obs_kernels: tuple[tuple[np.ndarray, ...], ...]
    costs: tuple[np.ndarray, ...]
    protocol: SharingProtocol
    initial_common_obs: InitialCommonObs | None = None

    def __post_init__(self):
        object.__setattr__(self, "obs_spaces", tuple(self.obs_spaces))
        object.__setattr__(self, "action_spaces", tuple(self.action_spaces))
        object.__setattr__(self, "initial_dist",
                           np.asarray(self.initial_dist, dtype=float))
        object.__setattr__(self, "transitions",
                           tuple(np.asarray(k, dtype=float) for k in self.transitions))
        object.__setattr__(self, "obs_kernels",
                           tuple(tuple(np.asarray(k, dtype=float) for k in per_i)
                                 for per_i in self.obs_kernels))
        object.__setattr__(self, "costs",
                           tuple(np.asarray(c, dtype=float) for c in self.costs))

    # -- index helpers ---------------------------------------------------

    @property
    def action_cards(self) -> tuple[int, ...]:
        return tuple(sp.cardinality for sp in self.action_spaces)

    @property
    def joint_action_count(self) -> int:
        return int(np.prod(self.action_cards, dtype=np.int64))

    @property
    def max_abs_cost(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.costs)

    def _at(self, per_stage: Sequence, t: int):
        """Stage ``t``'s entry of ``per_stage`` (its only one in discounted mode)."""
        if self.mode == "discounted":
            return per_stage[0]
        if not 1 <= t <= len(per_stage):
            raise InvalidParameter(f"stage {t} outside 1..{len(per_stage)}")
        return per_stage[t - 1]

    def transition(self, t: int) -> np.ndarray:
        """Kernel applied between stages ``t`` and ``t + 1``."""
        return self._at(self.transitions, t)

    def obs_kernel(self, i: int, t: int) -> np.ndarray:
        return self._at(self.obs_kernels[i], t)

    def cost(self, t: int) -> np.ndarray:
        return self._at(self.costs, t)

    @cached_property
    def _protocol_tables(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
        """Each controller's message map and memory update at every stage
        but the last, projected from the slots on first use."""
        proto, spaces = self.protocol, (self.obs_spaces, self.action_spaces)
        return tuple(
            tuple((slot_projection(i, t, mem[t - 1], msg[t - 1], *spaces, message=True),
                   slot_projection(i, t, mem[t - 1], mem[t], *spaces))
                  for t in range(1, proto.n_stages))
            for i, (mem, msg) in enumerate(zip(proto.mem_slots, proto.msg_slots)))

    def msg_map(self, i: int, t: int) -> np.ndarray:
        """Controller ``i``'s message at stage ``t``, indexed ``[m, y, u]``."""
        return self._at(self._protocol_tables[i], t)[0]

    def mem_update(self, i: int, t: int) -> np.ndarray:
        """Controller ``i``'s next local memory after stage ``t``, as ``msg_map``."""
        return self._at(self._protocol_tables[i], t)[1]

    def mem_cards(self, t: int) -> tuple[int, ...]:
        """Each controller's number of local memories at stage ``t``."""
        return tuple(slots_cardinality(self._at(self.protocol.mem_slots[i], t), i,
                                       self.obs_spaces, self.action_spaces)
                     for i in range(self.n))

    def msg_cards(self, t: int) -> tuple[int, ...]:
        """Each controller's number of messages at stage ``t``, null included."""
        return tuple(slots_cardinality(self._at(self.protocol.msg_slots[i], t), i,
                                       self.obs_spaces, self.action_spaces, message=True)
                     for i in range(self.n))


def flatten_action(actions: Sequence[int], cards: Sequence[int]) -> int:
    """Joint action index, controller 0 most significant."""
    return encode_mixed_radix(actions, cards)


def unflatten_action(u_flat: int, cards: Sequence[int]) -> tuple[int, ...]:
    return decode_mixed_radix(u_flat, cards)


def build_kernel_from_functional(
    f_table,
    noise: NoiseModel,
    n_states: int | None = None,
    n_actions: int | None = None,
) -> np.ndarray:
    """Turn a functional system equation into a transition kernel.

    ``f_table`` maps ``(x, u_flat, w)`` to the next state, either as a
    dict keyed by triples or as a nested sequence indexed
    ``[x][u_flat][w]``.  The kernel is
    ``K[x, u, x'] = sum_w 1[f(x, u, w) = x'] * P(w)`` and its rows sum
    to one within 1e-12 by construction.

    Raises:
        MissingEntry: the table does not cover the full grid.
        InvalidParameter: a table value is not a valid state index.
    """
    n_noise = noise.space.cardinality
    if isinstance(f_table, Mapping):
        if not f_table:
            raise MissingEntry("empty functional table")
        xs = {k[0] for k in f_table}
        us = {k[1] for k in f_table}
        ws = {k[2] for k in f_table}
        nx = n_states if n_states is not None else max(xs | set(f_table.values())) + 1
        nu = n_actions if n_actions is not None else max(us) + 1
        if ws - set(range(n_noise)):
            raise InvalidParameter("functional table uses noise values outside the model")
        arr = np.empty((nx, nu, n_noise), dtype=np.int64)
        for x in range(nx):
            for u in range(nu):
                for w in range(n_noise):
                    try:
                        arr[x, u, w] = f_table[(x, u, w)]
                    except KeyError:
                        raise MissingEntry(
                            f"functional table missing entry (x={x}, u={u}, w={w})"
                        ) from None
    else:
        arr = np.asarray(f_table, dtype=np.int64)
        if arr.ndim != 3:
            raise InvalidParameter(
                f"functional table must be indexed [x][u][w], got ndim={arr.ndim}")
        if arr.shape[2] != n_noise:
            raise MissingEntry(
                f"functional table covers {arr.shape[2]} noise values, "
                f"noise model has {n_noise}")
        if n_states is not None and arr.shape[0] != n_states:
            raise MissingEntry(
                f"functional table covers {arr.shape[0]} states, expected {n_states}")
        if n_actions is not None and arr.shape[1] != n_actions:
            raise MissingEntry(
                f"functional table covers {arr.shape[1]} joint actions, "
                f"expected {n_actions}")
        nx, nu = arr.shape[0], arr.shape[1]
    if arr.min() < 0 or arr.max() >= nx:
        raise MissingEntry(
            f"functional table maps into state {int(arr.max())} "
            f"but only {nx} states have rows")
    kernel = np.zeros((nx, nu, nx))
    for w in range(n_noise):
        np.add.at(kernel, (np.arange(nx)[:, None], np.arange(nu)[None, :], arr[:, :, w]),
                  noise.dist[w])
    return kernel


@dataclass
class StrategyNode:
    """One reachable shared-memory node of a control strategy."""

    node_id: int
    t: int
    tables: tuple[np.ndarray, ...]  # per controller, (|Y_i|, |M_i|) action tables
    children: dict[int, int]  # flat joint message -> next node_id


@dataclass(eq=False)
class ControlStrategy:
    """Per-controller strategies indexed by the shared memory.

    The shared memory evolves along a tree of nodes: every stage each
    controller looks up its action in the current node's table under its
    own observation and local memory, and the joint emitted message
    selects the child node.  ``roots`` pairs each root node with its
    probability (several roots only when the problem has an initial
    common observation, ordered by signal value).
    """

    n: int
    horizon: int
    roots: tuple[tuple[float, int], ...]
    stages: list[list[StrategyNode]]

    def finalize(self) -> "ControlStrategy":
        self._index = {nd.node_id: nd for stage in self.stages for nd in stage}
        return self

    def node(self, node_id: int) -> StrategyNode:
        return self._index[node_id]


# -- validation ----------------------------------------------------------


@dataclass(frozen=True)
class ValidationFinding:
    """One violated invariant: a short code, a location, and details."""

    code: str
    where: str
    detail: str

    def __str__(self):
        return f"[{self.code}] {self.where}: {self.detail}"


@dataclass
class ValidationReport:
    findings: list[ValidationFinding]

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(f) for f in self.findings)


def _check_rows(arr, shape, where, findings, kind="kernel"):
    """Check one stochastic table: shape, finiteness, nonnegativity, unit row sums.

    Every comparison with NaN is false, so a NaN row would pass the sign
    and sum checks; it is reported as not finite instead.
    """
    if arr.shape != shape:
        findings.append(ValidationFinding(
            "shape", where, f"expected shape {shape}, got {arr.shape}"))
        return
    rows = arr.reshape(-1, arr.shape[-1])
    sums = rows.sum(axis=1)
    lead = arr.shape[:-1]

    def at(r):
        return where + str(list(map(int, np.unravel_index(r, lead) if lead else ())))

    for r in np.nonzero(~np.isfinite(rows).all(axis=1))[0]:
        findings.append(ValidationFinding(
            f"{kind}-not-finite", at(r), "row has non-finite entries"))
    for r in np.nonzero((rows < -_NEG_TOL).any(axis=1))[0]:
        findings.append(ValidationFinding(
            f"{kind}-negative", at(r), "row has negative mass"))
    for r in np.nonzero(np.abs(sums - 1.0) > _ROW_TOL)[0]:
        findings.append(ValidationFinding(
            f"{kind}-row-sum", at(r), f"row sums to {float(sums[r])!r}, expected 1"))


def _check_protocol_stage(spec, i, t, findings):
    """Witness checks for controller ``i`` at stage ``t``."""
    proto = spec.protocol
    mem_here = proto.mem_slots[i][t - 1]
    where = f"protocol[i={i}][t={t}]"

    current = {Slot(KIND_OBS, t), Slot(KIND_ACT, t)}

    def check_slots(slots, max_time, label):
        if len(set(slots)) != len(slots):
            findings.append(ValidationFinding(
                "slot-duplicate", where, f"{label} slots repeat a coordinate"))
        for s in slots:
            if s.kind not in (KIND_OBS, KIND_ACT) or not 1 <= s.time <= max_time:
                findings.append(ValidationFinding(
                    "slot-time", where,
                    f"{label} slot {s} is not a past variable of stage {t}"))

    check_slots(mem_here, t - 1, "memory")
    if t > len(proto.msg_slots[i]):
        return
    msg_here = proto.msg_slots[i][t - 1]
    check_slots(msg_here, t, "message")

    avail = set(mem_here) | current
    for s in msg_here:
        if s not in avail:
            findings.append(ValidationFinding(
                "message-source", where,
                f"message slot {s} is not in local memory or current data"))

    mem_next = proto.mem_slots[i][t] if t < proto.n_stages else ()
    overlap = set(mem_next) & set(msg_here)
    for s in sorted(overlap):
        findings.append(ValidationFinding(
            "memory-message-overlap", where,
            f"slot {s} is both shared at stage {t} and retained in memory"))
    for s in mem_next:
        if s not in avail and s not in overlap:
            findings.append(ValidationFinding(
                "memory-source", where,
                f"next-memory slot {s} is not in local memory or current data"))


def validate_problem(spec: ProblemSpec) -> ValidationReport:
    """Check every structural and probabilistic invariant of a problem.

    Returns a report listing all violations (empty report means the
    problem is well formed).  Solvers assume a validated spec.
    """
    findings: list[ValidationFinding] = []
    f = findings.append

    if spec.mode not in ("finite", "discounted"):
        f(ValidationFinding("mode", "spec", f"unknown mode {spec.mode!r}"))
        return ValidationReport(findings)
    if spec.n < 1 or len(spec.obs_spaces) != spec.n or len(spec.action_spaces) != spec.n:
        f(ValidationFinding("controllers", "spec",
                            f"n={spec.n} but {len(spec.obs_spaces)} observation and "
                            f"{len(spec.action_spaces)} action spaces"))
        return ValidationReport(findings)

    if spec.mode == "finite":
        if spec.horizon is None or spec.horizon < 1:
            f(ValidationFinding("horizon", "spec",
                                f"finite mode needs horizon >= 1, got {spec.horizon}"))
            return ValidationReport(findings)
        n_trans, n_obs, n_cost = spec.horizon - 1, spec.horizon, spec.horizon
    else:
        if spec.discount is None or not 0.0 <= spec.discount < 1.0:
            f(ValidationFinding("discount-range", "spec",
                                f"discount must be in [0, 1), got {spec.discount}"))
            return ValidationReport(findings)
        n_trans, n_obs, n_cost = 1, 1, 1

    nx = spec.state_space.cardinality
    nu = spec.joint_action_count

    if len(spec.transitions) != n_trans:
        f(ValidationFinding("table-count", "transitions",
                            f"expected {n_trans} stage kernels, got {len(spec.transitions)}"))
    if len(spec.costs) != n_cost:
        f(ValidationFinding("table-count", "costs",
                            f"expected {n_cost} stage tables, got {len(spec.costs)}"))
    for i in range(spec.n):
        if len(spec.obs_kernels[i]) != n_obs:
            f(ValidationFinding("table-count", f"obs_kernels[i={i}]",
                                f"expected {n_obs} stage kernels, "
                                f"got {len(spec.obs_kernels[i])}"))

    _check_rows(spec.initial_dist[None, :], (1, nx), "initial_dist", findings,
                kind="dist")
    for k, arr in enumerate(spec.transitions):
        _check_rows(arr, (nx, nu, nx), f"transition[t={k + 1}]", findings)
    for i in range(spec.n):
        ny = spec.obs_spaces[i].cardinality
        for k, arr in enumerate(spec.obs_kernels[i]):
            _check_rows(arr, (nx, ny), f"obs_kernel[i={i}][t={k + 1}]", findings)
    for k, arr in enumerate(spec.costs):
        where = f"cost[t={k + 1}]"
        if arr.shape != (nx, nu):
            f(ValidationFinding("shape", where,
                                f"expected shape {(nx, nu)}, got {arr.shape}"))
        elif not np.all(np.isfinite(arr)):
            f(ValidationFinding("cost-not-finite", where,
                                "cost table contains non-finite entries"))

    if spec.initial_common_obs is not None:
        ico = spec.initial_common_obs
        _check_rows(ico.kernel, (nx, ico.space.cardinality),
                    "initial_common_obs", findings)

    proto = spec.protocol
    if proto.n != spec.n:
        f(ValidationFinding("controllers", "protocol",
                            f"protocol is for {proto.n} controllers, spec has {spec.n}"))
        return ValidationReport(findings)
    expect_stages = spec.horizon if spec.mode == "finite" else 2
    if proto.n_stages != expect_stages:
        f(ValidationFinding("protocol-horizon", "protocol",
                            f"protocol covers {proto.n_stages} stages, "
                            f"expected {expect_stages}"))
        return ValidationReport(findings)

    for i in range(spec.n):
        if proto.mem_slots[i][0]:
            f(ValidationFinding("initial-memory-nonempty", f"protocol[i={i}][t=1]",
                                "stage-1 local memory must be empty"))
        for t in range(1, proto.n_stages + 1):
            _check_protocol_stage(spec, i, t, findings)
        if spec.mode == "discounted":
            for t, slots in enumerate(proto.mem_slots[i], start=1):
                # a slot of unknown kind is reported as slot-time above
                known = [s for s in slots if s.kind in (KIND_OBS, KIND_ACT)]
                if slots_cardinality(known, i, spec.obs_spaces, spec.action_spaces) != 1:
                    f(ValidationFinding(
                        "memory-not-stationary", f"protocol[i={i}][t={t}]",
                        "discounted mode requires a time-invariant (singleton) "
                        "local memory; this protocol accumulates local data"))

    return ValidationReport(findings)
