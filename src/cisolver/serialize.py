"""JSON documents for problems, policies, and run reports.

Everything the command line reads or writes goes through this module so
the on-disk formats live in one place.  Output text is deterministic:
keys are sorted, floats use the shortest decimal form that round-trips
exactly, and no timing data is embedded.  Policy documents carry a
sha256 digest of the canonical problem encoding so a policy can never
silently be replayed against a different problem.

``dumps`` writes every document, as ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)`` and a newline.

A finite-horizon policy document holds the nodes of its tree, those its
roots reach, under their solver ids; the loader recomputes the belief and
the value of every such node, and the value of a solve result's report,
rejects a document whose stored numbers disagree, and drops any node no
root reaches.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import Any

import numpy as np

from .coordinator import (
    Belief,
    PrescriptionSpace,
    ReducedBelief,
    chi,
    eta_update,
    expected_cost,
    initial_belief,
    message_distribution,
    stage_layout,
    zeta,
)
from .dp import PolicyTree, StationaryPolicy, TreeNode, ValueReport
from .errors import InvalidParameter, SolverError, ZeroProbabilityObservation
from .model import (
    KIND_ACT,
    KIND_OBS,
    ControlStrategy,
    FiniteSpace,
    InitialCommonObs,
    NoiseModel,
    ProblemSpec,
    SharingProtocol,
    Slot,
    StrategyNode,
    ValidationFinding,
    ValidationReport,
    build_kernel_from_functional,
    validate_problem,
)
from .oracle import EnumerationReport
from .protocols import (
    control_sharing_protocol,
    delayed_sharing_protocol,
    no_sharing_protocol,
    periodic_sharing_protocol,
)
from .sim import SimReport, Trajectory

_PRESET_ALIASES = {
    "delayed": "delayed",
    "delayed_sharing": "delayed",
    "delayed_state": "delayed_state",
    "delayed_state_sharing": "delayed_state",
    "periodic": "periodic",
    "periodic_sharing": "periodic",
    "control": "control",
    "control_sharing": "control",
    "no_sharing": "no_sharing",
}


def dumps(doc: Any) -> str:
    """Serialize a document to deterministic, human-readable JSON text.

    NaN and infinities raise ValueError.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_file(path: str) -> Any:
    """Load raw JSON; parse errors propagate as json.JSONDecodeError.

    So does nesting deeper than the parser's recursion limit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


# -- problem documents -----------------------------------------------------


def _space_to_dict(sp: FiniteSpace) -> dict:
    doc: dict = {"cardinality": sp.cardinality}
    if sp.labels is not None:
        doc["labels"] = list(sp.labels)
    return doc


class _Reader:
    """Collects structural findings while pulling fields out of a document."""

    def __init__(self):
        self.findings: list[ValidationFinding] = []

    def bad(self, code: str, where: str, detail: str):
        self.findings.append(ValidationFinding(code, where, detail))

    @property
    def ok(self) -> bool:
        return not self.findings

    def space(self, doc, where) -> FiniteSpace | None:
        if isinstance(doc, int):
            card, labels = doc, None
        elif isinstance(doc, dict):
            card = doc.get("cardinality")
            labels = doc.get("labels")
        else:
            self.bad("bad-type", where,
                     "expected an integer or an object with 'cardinality'")
            return None
        try:
            return FiniteSpace(card, tuple(labels) if labels else None)
        except (SolverError, TypeError, ValueError) as exc:
            self.bad("bad-space", where, str(exc))
            return None

    def array(self, doc, where, dtype=float) -> np.ndarray | None:
        try:
            return np.asarray(doc, dtype=dtype)
        except (TypeError, ValueError) as exc:
            self.bad("bad-array", where, f"not a rectangular numeric array: {exc}")
            return None

    def stage_list(self, doc, where, dtype=float) -> tuple | None:
        # may legitimately be empty: a one-stage problem has no transitions
        if not isinstance(doc, list):
            self.bad("bad-type", where, "expected a list of stage tables")
            return None
        out = []
        for k, item in enumerate(doc):
            arr = self.array(item, f"{where}[t={k + 1}]", dtype)
            if arr is None:
                return None
            out.append(arr)
        return tuple(out)

    def slot(self, item, where) -> Slot | None:
        if (isinstance(item, (list, tuple)) and len(item) == 2
                and item[0] in (KIND_OBS, KIND_ACT) and isinstance(item[1], int)):
            return Slot(item[0], item[1])
        self.bad("bad-slot", where, f"expected [\"obs\"|\"act\", stage], got {item!r}")
        return None


def _noise_from(reader: _Reader, doc, where) -> NoiseModel | None:
    if not isinstance(doc, dict) or "dist" not in doc:
        reader.bad("bad-type", where, "expected an object with a 'dist' list")
        return None
    dist = reader.array(doc["dist"], f"{where}.dist")
    if dist is None:
        return None
    card = doc.get("cardinality", len(dist))
    try:
        return NoiseModel(FiniteSpace(card), dist)
    except SolverError as exc:
        reader.bad("bad-noise", where, str(exc))
        return None


def _transitions_from(reader: _Reader, doc, mode, n_states, n_actions,
                      horizon) -> tuple | None:
    if not isinstance(doc, dict) or len(doc.keys() & {"kernel", "functional"}) != 1:
        reader.bad("bad-transition", "transition",
                   "expected exactly one of 'kernel' or 'functional'")
        return None
    if "kernel" in doc:
        return reader.stage_list(doc["kernel"], "transition.kernel")
    sub = doc["functional"]
    if not isinstance(sub, dict) or "f_table" not in sub or "noise" not in sub:
        reader.bad("bad-transition", "transition.functional",
                   "expected an object with 'f_table' and 'noise'")
        return None
    noise = _noise_from(reader, sub["noise"], "transition.functional.noise")
    if noise is None:
        return None
    try:
        kernel = build_kernel_from_functional(
            sub["f_table"], noise, n_states=n_states, n_actions=n_actions)
    except SolverError as exc:
        reader.bad("bad-transition", "transition.functional", str(exc))
        return None
    except (TypeError, ValueError) as exc:
        reader.bad("bad-transition", "transition.functional",
                   f"f_table is not a rectangular integer array: {exc}")
        return None
    # the functional form is time-homogeneous: one stage law for all stages
    copies = 1 if mode == "discounted" else max(horizon - 1, 0)
    return (kernel,) * copies


def _protocol_from_preset(reader: _Reader, name, params, horizon,
                          obs_spaces, action_spaces) -> SharingProtocol | None:
    if not isinstance(name, str):
        reader.bad("bad-protocol", "protocol.preset", f"preset name {name!r}")
        return None
    canon = _PRESET_ALIASES.get(name.strip().lower().replace("-", "_"))
    if canon is None:
        reader.bad("unknown-preset", "protocol.preset",
                   f"unknown preset {name!r}; known: "
                   f"{sorted(set(_PRESET_ALIASES.values()))}")
        return None
    params = params if isinstance(params, dict) else {}
    try:
        if canon in ("delayed", "delayed_state"):
            delays = params.get("delays", params.get("s", params.get("delay")))
            if delays is None:
                reader.bad("bad-protocol", "protocol.params",
                           f"preset {canon!r} needs 'delays' (or scalar 's')")
                return None
            return delayed_sharing_protocol(delays, horizon, obs_spaces,
                                            action_spaces)
        if canon == "periodic":
            period = params.get("period", params.get("s"))
            if period is None:
                reader.bad("bad-protocol", "protocol.params",
                           "preset 'periodic' needs 'period' (or 's')")
                return None
            return periodic_sharing_protocol(period, horizon, obs_spaces,
                                             action_spaces)
        if canon == "control":
            return control_sharing_protocol(horizon, obs_spaces, action_spaces)
        window = params.get("window", params.get("s", 0))
        return no_sharing_protocol(window, horizon, obs_spaces, action_spaces)
    except (SolverError, TypeError, ValueError) as exc:
        reader.bad("bad-protocol", "protocol.params", str(exc))
        return None


def _protocol_from_explicit(reader: _Reader, doc, n: int) -> SharingProtocol | None:
    needed = ("memory_slots", "message_slots", "message_maps", "memory_updates")
    if not isinstance(doc, dict) or any(k not in doc for k in needed):
        reader.bad("bad-protocol", "protocol.explicit",
                   f"expected an object with {', '.join(needed)}")
        return None

    def slot_lists(field, expect_len):
        raw = doc[field]
        if not isinstance(raw, list) or len(raw) != n:
            reader.bad("bad-protocol", f"protocol.explicit.{field}",
                       f"expected one list per controller ({n})")
            return None
        out = []
        for i, per_i in enumerate(raw):
            if not isinstance(per_i, list) or (
                    expect_len is not None and len(per_i) != expect_len):
                reader.bad("bad-protocol", f"protocol.explicit.{field}[i={i}]",
                           "wrong number of stages")
                return None
            stages = []
            for t, per_t in enumerate(per_i, start=1):
                if not isinstance(per_t, list):
                    reader.bad("bad-protocol",
                               f"protocol.explicit.{field}[i={i}][t={t}]",
                               "expected a list of slots")
                    return None
                slots = tuple(
                    reader.slot(s, f"protocol.explicit.{field}[i={i}][t={t}]")
                    for s in per_t)
                if any(s is None for s in slots):
                    return None
                stages.append(slots)
            out.append(tuple(stages))
        return tuple(out)

    mem_slots = slot_lists("memory_slots", None)
    if mem_slots is None:
        return None
    n_stages = len(mem_slots[0])
    if n_stages < 1 or any(len(per_i) != n_stages for per_i in mem_slots):
        reader.bad("bad-protocol", "protocol.explicit.memory_slots",
                   "controllers disagree on the number of stages")
        return None
    msg_slots = slot_lists("message_slots", n_stages - 1)
    if msg_slots is None:
        return None

    def tables_ok(field):
        # the tables themselves are compared with the slots' projections
        # once the slots validate (_declared_table_findings)
        raw = doc[field]
        if not isinstance(raw, list) or len(raw) != n:
            reader.bad("bad-protocol", f"protocol.explicit.{field}",
                       f"expected one list per controller ({n})")
            return False
        for i, per_i in enumerate(raw):
            if not isinstance(per_i, list) or len(per_i) != n_stages - 1:
                reader.bad("bad-protocol", f"protocol.explicit.{field}[i={i}]",
                           f"expected {n_stages - 1} stage tables")
                return False
            for t, per_t in enumerate(per_i, start=1):
                if reader.array(per_t, f"protocol.explicit.{field}[i={i}][t={t}]",
                                dtype=np.int64) is None:
                    return False
        return True

    if not (tables_ok("message_maps") and tables_ok("memory_updates")):
        return None
    return SharingProtocol(mem_slots=mem_slots, msg_slots=msg_slots)


def problem_from_dict(doc) -> tuple[ProblemSpec | None, list[ValidationFinding]]:
    """Build a ProblemSpec from a parsed JSON document.

    Structural problems (missing fields, ragged arrays, unknown presets)
    come back as findings with a None spec; probabilistic and witness
    invariants are left to validate_problem.
    """
    reader = _Reader()
    if not isinstance(doc, dict):
        reader.bad("bad-document", "$", "top level must be a JSON object")
        return None, reader.findings

    for field in ("n", "mode", "state", "obs", "actions", "initial_dist",
                  "transition", "obs_kernels", "cost", "protocol"):
        if field not in doc:
            reader.bad("missing-field", field, "required field is absent")
    if not reader.ok:
        return None, reader.findings

    mode = doc["mode"]
    if mode not in ("finite", "discounted"):
        reader.bad("mode", "mode", f"expected 'finite' or 'discounted', got {mode!r}")
        return None, reader.findings
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        reader.bad("bad-type", "n", f"expected a positive integer, got {n!r}")
        return None, reader.findings

    horizon = None
    discount = None
    if mode == "finite":
        horizon = doc.get("T")
        if not isinstance(horizon, int) or horizon < 1:
            reader.bad("bad-type", "T", "finite mode needs a positive integer T")
            return None, reader.findings
    else:
        discount = doc.get("discount")
        if not isinstance(discount, (int, float)) or isinstance(discount, bool):
            reader.bad("bad-type", "discount",
                       "discounted mode needs a numeric discount")
            return None, reader.findings
        discount = float(discount)

    state_space = reader.space(doc["state"], "state")
    obs_docs, act_docs = doc["obs"], doc["actions"]
    for field, value in (("obs", obs_docs), ("actions", act_docs)):
        if not isinstance(value, list) or len(value) != n:
            reader.bad("bad-type", field, f"expected a list of {n} spaces")
            return None, reader.findings
    obs_spaces = [reader.space(d, f"obs[i={i}]") for i, d in enumerate(obs_docs)]
    action_spaces = [reader.space(d, f"actions[i={i}]")
                     for i, d in enumerate(act_docs)]
    if state_space is None or None in obs_spaces or None in action_spaces:
        return None, reader.findings

    initial_dist = reader.array(doc["initial_dist"], "initial_dist")
    n_actions = int(np.prod([sp.cardinality for sp in action_spaces],
                            dtype=np.int64))
    transitions = _transitions_from(reader, doc["transition"], mode,
                                    state_space.cardinality, n_actions, horizon)
    costs = reader.stage_list(doc["cost"], "cost")

    raw_obs = doc["obs_kernels"]
    obs_kernels = None
    if not isinstance(raw_obs, list) or len(raw_obs) != n:
        reader.bad("bad-type", "obs_kernels",
                   f"expected one stage list per controller ({n})")
    else:
        per_i = [reader.stage_list(raw_obs[i], f"obs_kernels[i={i}]")
                 for i in range(n)]
        if None not in per_i:
            obs_kernels = tuple(per_i)

    proto_doc = doc["protocol"]
    protocol = None
    if not isinstance(proto_doc, dict) or len(
            proto_doc.keys() & {"preset", "explicit"}) != 1:
        reader.bad("bad-protocol", "protocol",
                   "expected exactly one of 'preset' or 'explicit'")
    elif "preset" in proto_doc:
        proto_horizon = horizon if mode == "finite" else 2
        protocol = _protocol_from_preset(
            reader, proto_doc["preset"], proto_doc.get("params"), proto_horizon,
            obs_spaces, action_spaces)
    else:
        protocol = _protocol_from_explicit(reader, proto_doc["explicit"], n)

    common = None
    if doc.get("initial_common_obs") is not None:
        ico = doc["initial_common_obs"]
        if not isinstance(ico, dict) or "kernel" not in ico:
            reader.bad("bad-type", "initial_common_obs",
                       "expected an object with 'cardinality' and 'kernel'")
        else:
            kernel = reader.array(ico["kernel"], "initial_common_obs.kernel")
            space = reader.space(ico.get("cardinality",
                                         np.shape(ico["kernel"])[-1]
                                         if kernel is not None else 0),
                                 "initial_common_obs")
            if kernel is not None and space is not None:
                common = InitialCommonObs(space, kernel)

    if not reader.ok or initial_dist is None or transitions is None \
            or costs is None or obs_kernels is None or protocol is None:
        return None, reader.findings

    spec = ProblemSpec(
        n=n, mode=mode, horizon=horizon, discount=discount,
        state_space=state_space, obs_spaces=tuple(obs_spaces),
        action_spaces=tuple(action_spaces), initial_dist=initial_dist,
        transitions=transitions, obs_kernels=obs_kernels, costs=costs,
        protocol=protocol, initial_common_obs=common)
    return spec, reader.findings


def _declared_table_findings(spec: ProblemSpec, explicit) -> list[ValidationFinding]:
    """Compare an explicit protocol's declared tables with those its slots give."""
    findings = []
    for i in range(spec.n):
        for t in range(1, spec.protocol.n_stages):
            where = f"protocol[i={i}][t={t}]"
            for field, code, name, want in (
                    ("message_maps", "message-map-mismatch", "message map",
                     spec.msg_map(i, t)),
                    ("memory_updates", "memory-update-mismatch", "memory update",
                     spec.mem_update(i, t))):
                declared = np.asarray(explicit[field][i][t - 1], dtype=np.int64)
                if not np.array_equal(declared, want):
                    findings.append(ValidationFinding(code, where, (
                        f"{name} of shape {declared.shape} disagrees with the "
                        f"witness slot projection of shape {want.shape}")))
    return findings


def problem_from_document(doc) -> tuple[ProblemSpec | None, ValidationReport]:
    """Parse and fully validate a problem document.

    The tables of an explicit protocol are checked against its slots
    once ``validate_problem`` has checked the slots and found them well
    formed: a projection needs well-formed slots.
    """
    spec, findings = problem_from_dict(doc)
    if spec is None:
        return None, ValidationReport(findings)
    findings += validate_problem(spec).findings
    # validate_problem stops before the protocol on a discount out of range
    slots_checked = not any(f.where.startswith("protocol") or f.code == "discount-range"
                            for f in findings)
    explicit = doc["protocol"].get("explicit")
    if explicit is not None and slots_checked:
        findings += _declared_table_findings(spec, explicit)
    return spec, ValidationReport(findings)


def load_problem(path: str) -> tuple[ProblemSpec | None, ValidationReport]:
    """Read a problem file; JSON syntax errors propagate to the caller."""
    return problem_from_document(parse_file(path))


def _slots_to_json(slots_per_i) -> list:
    return [[[[s.kind, s.time] for s in per_t] for per_t in per_i]
            for per_i in slots_per_i]


def problem_to_dict(spec: ProblemSpec) -> dict:
    """Canonical document for a spec; protocols are always explicit.

    A preset problem and its explicit expansion produce the same
    canonical document, so they share one digest.
    """
    proto = spec.protocol
    stages = range(1, proto.n_stages)
    doc = {
        "n": spec.n,
        "T": spec.horizon,
        "mode": spec.mode,
        "discount": spec.discount,
        "state": _space_to_dict(spec.state_space),
        "obs": [_space_to_dict(sp) for sp in spec.obs_spaces],
        "actions": [_space_to_dict(sp) for sp in spec.action_spaces],
        "initial_dist": spec.initial_dist.tolist(),
        "transition": {"kernel": [k.tolist() for k in spec.transitions]},
        "obs_kernels": [[k.tolist() for k in per_i] for per_i in spec.obs_kernels],
        "cost": [c.tolist() for c in spec.costs],
        "protocol": {"explicit": {
            "memory_slots": _slots_to_json(proto.mem_slots),
            "message_slots": _slots_to_json(proto.msg_slots),
            "message_maps": [[spec.msg_map(i, t).tolist() for t in stages]
                             for i in range(spec.n)],
            "memory_updates": [[spec.mem_update(i, t).tolist() for t in stages]
                               for i in range(spec.n)],
        }},
    }
    if spec.initial_common_obs is not None:
        ico = spec.initial_common_obs
        doc["initial_common_obs"] = {
            "cardinality": ico.space.cardinality,
            "kernel": ico.kernel.tolist(),
        }
    return doc


def problem_digest(spec: ProblemSpec) -> str:
    """sha256 of the canonical problem encoding."""
    text = json.dumps(problem_to_dict(spec), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- policy documents --------------------------------------------------------


def _belief_to_dict(belief) -> dict:
    return {"dims": list(belief.dims), "weights": belief.weights.tolist()}


def _gamma_docs(space: PrescriptionSpace, indices) -> dict:
    """One ``gamma`` document per distinct prescription index in ``indices``.

    Each chosen prescription is decoded once, however many nodes chose it.
    """
    return {index: {"index": int(index),
                    "tables": [t.tolist() for t in space.decode(index).tables]}
            for index in set(indices)}


def _check_links(spec: ProblemSpec, horizon, roots, stages):
    """Raise InvalidParameter unless every root and child names a node.

    Every stage has a node, since every episode passes through every
    stage, and node ids are distinct ints.  Roots must be stage-1 nodes; a
    stage-t node's children map joint messages of stage t to nodes of
    stage t + 1, and the last stage has none.
    """
    if horizon != spec.horizon or len(stages) != horizon:
        raise InvalidParameter(
            f"policy has horizon {horizon!r} and {len(stages)} stages; the "
            f"problem has horizon {spec.horizon}")
    for t, stage in enumerate(stages, start=1):
        if not stage:
            raise InvalidParameter(f"policy stage {t} has no nodes")
    ids = [nd.node_id for stage in stages for nd in stage]
    if not all(type(node_id) is int for node_id in ids) or len(set(ids)) != len(ids):
        raise InvalidParameter("policy node ids must be distinct integers")
    next_ids = {nd.node_id for nd in stages[0]}
    for _, node_id in roots:
        if node_id not in next_ids:
            raise InvalidParameter(f"root {node_id} is not a stage-1 node")
    for t, stage in enumerate(stages, start=1):
        last = t == horizon
        n_msgs = 0 if last else int(np.prod(spec.msg_cards(t), dtype=np.int64))
        next_ids = set() if last else {nd.node_id for nd in stages[t]}
        for nd in stage:
            for z, child in nd.children.items():
                if not 0 <= z < n_msgs:
                    raise InvalidParameter(
                        f"node {nd.node_id} at t={t}: message {z} is not one "
                        f"of the stage's {n_msgs} joint messages")
                if child not in next_ids:
                    raise InvalidParameter(
                        f"node {nd.node_id} at t={t}: child {child} is not a "
                        f"node of stage {t + 1}")


def _check_indices(spec: ProblemSpec, stages):
    """Raise InvalidParameter unless every node's prescription index is in range.

    An index is an int in ``[0, PrescriptionSpace(spec, t).size)``.
    """
    for t, stage in enumerate(stages, start=1):
        size = PrescriptionSpace(spec, t).size
        for nd in stage:
            index = nd.gamma_index
            if type(index) is not int or not 0 <= index < size:
                raise InvalidParameter(
                    f"node {nd.node_id} at t={t}: prescription index "
                    f"{index!r} is not an integer below the stage's {size} "
                    "prescriptions")


def _all_ints(value) -> bool:
    """Whether every leaf of a JSON value's nested lists is an int.

    Booleans and floats are not ints here, though numpy reads a boolean
    among ints as an int.  The lists are walked one nesting level at a
    time, so the numbers of a whole stage's tables are typed in one pass.
    """
    level = [value]
    while True:
        types = set(map(type, level))
        if list not in types:
            return types <= {int}
        if not types <= {int, list}:
            return False
        level = list(chain.from_iterable([v for v in level if type(v) is list]))


def _check_tree_nodes(spec: ProblemSpec, variant, stages, stage_docs):
    """Raise InvalidParameter unless every tree node agrees with its stage and index.

    A node's belief has its stage's ``dims`` in the tree's variant, over
    ``(x, y, m)`` or, reduced, ``(x, m)``, with one weight per grid point,
    and its ``gamma.tables`` are the tables its index decodes to, written
    as ints.
    """
    for t, (stage, docs) in enumerate(zip(stages, stage_docs), start=1):
        layout = stage_layout(spec, t)
        dims = (layout.nx,) + layout.nm if variant == "reduced" else layout.dims
        size = int(np.prod(dims, dtype=np.int64))
        space = PrescriptionSpace(spec, t)
        stage_ints = _all_ints([doc["gamma"]["tables"] for doc in docs])
        expected = {}  # prescription index -> its tables as nested lists
        for nd, doc in zip(stage, docs):
            belief = nd.belief
            if nd.t != t or belief.dims != dims or belief.weights.shape != (size,):
                raise InvalidParameter(
                    f"node {nd.node_id} at stage {t}: its t is {nd.t!r} and its "
                    f"belief has dims {list(belief.dims)} and "
                    f"{belief.weights.size} weights; a {variant} belief at "
                    f"stage {t} has dims {list(dims)} and {size} weights")
            tables = doc["gamma"]["tables"]
            expect = expected.get(nd.gamma_index)
            if expect is None:
                expect = expected[nd.gamma_index] = [
                    e.tolist() for e in space.decode(nd.gamma_index).tables]
            # list equality is exact once every entry is an int
            if not (stage_ints or _all_ints(tables)) or tables != expect:
                raise InvalidParameter(
                    f"node {nd.node_id} at t={t}: gamma.tables are not the "
                    f"tables of prescription index {nd.gamma_index}")


def _check_tables(spec: ProblemSpec, stages, stage_docs):
    """Raise InvalidParameter unless every node has a valid action table per controller.

    Controller ``i``'s table at stage ``t`` is an integer array of shape
    ``(|Y_i|, |M_i|)`` with entries in ``[0, |U_i|)``, written as ints.
    """
    for t, (stage, docs) in enumerate(zip(stages, stage_docs), start=1):
        space = PrescriptionSpace(spec, t)
        stage_ints = _all_ints([doc["tables"] for doc in docs])
        for nd, doc in zip(stage, docs):
            if len(nd.tables) != spec.n:
                raise InvalidParameter(
                    f"node {nd.node_id} at t={t}: {len(nd.tables)} action "
                    f"tables for {spec.n} controllers")
            for i, (table, table_doc) in enumerate(zip(nd.tables, doc["tables"])):
                if (not (stage_ints or _all_ints(table_doc)) or table.dtype.kind not in "iu"
                        or table.shape != space.shapes[i]
                        or table.min() < 0 or table.max() >= space.n_actions[i]):
                    raise InvalidParameter(
                        f"node {nd.node_id} at t={t}: controller {i}'s table "
                        f"must be integers of shape {space.shapes[i]} below "
                        f"{space.n_actions[i]}")


#: Largest sup-norm gap between a stored belief and its recomputation, and
#: largest gap between a root's stored probability and the problem's.
BELIEF_TOL = 1e-9
#: Largest gap between a stored value and its recomputation, relative to the
#: recomputed value once that exceeds one in magnitude.
VALUE_TOL = 1e-9


def _json_number(value, what: str) -> float:
    """``value`` as a float; InvalidParameter unless it is a JSON number a float holds.

    JSON booleans and strings are not numbers here, though ``float``
    reads ``true`` and ``"0.5"``.
    """
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an int beyond the range of floats
            pass
    raise InvalidParameter(f"{what} must be a number in the range of floats, "
                           f"got {value!r}")


def _json_int(value, what: str) -> int:
    """``value``; InvalidParameter unless it is a JSON int.

    ``int`` reads ``"0"``, ``0.0`` and ``true`` as ids, so the type is
    checked; a value ``int`` cannot read at all, such as an infinite
    number, still raises from ``int`` and makes the document malformed.
    """
    int(value)
    if type(value) is not int:
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")
    return value


def _json_children(node_doc) -> dict[int, int]:
    """A node document's children, as ``{message: child id}``."""
    return {int(z): _json_int(c, f"node {node_doc['id']!r}'s child for message {z}")
            for z, c in node_doc["children"].items()}


def _json_roots(doc) -> tuple[tuple[float, int], ...]:
    """A policy document's roots, as ``(probability, node id)`` pairs."""
    return tuple((_json_number(p, "a root probability"), _json_int(i, "a root id"))
                 for p, i in doc["roots"])


def _check_root_probabilities(spec: ProblemSpec, roots):
    """Raise InvalidParameter unless the roots carry the problem's initial law.

    There is one root per initial common signal of positive mass, in
    signal order, and each root's probability is within ``BELIEF_TOL`` of
    its signal's; a NaN probability fails.  Returns the problem's
    ``initial_belief``.
    """
    initial = initial_belief(spec)
    if len(roots) != len(initial):
        raise InvalidParameter(
            f"policy has {len(roots)} roots; the problem has {len(initial)} "
            "initial common signals of positive mass")
    for (prob, node_id), (want, _) in zip(roots, initial):
        if not abs(prob - want) <= BELIEF_TOL:
            raise InvalidParameter(
                f"root {node_id}: its probability is {prob!r}; the problem's "
                f"initial law gives {want!r}")
    return initial


def _value_gap_ok(stored, want) -> bool:
    """Whether ``stored`` is within ``VALUE_TOL`` of ``want``; never for a NaN."""
    return abs(stored - want) <= VALUE_TOL * max(1.0, abs(want))


def _check_beliefs(spec: ProblemSpec, tree: PolicyTree) -> list[list]:
    """Raise InvalidParameter unless every reachable node stores the belief its path gives.

    Roots must carry the problem's initial beliefs and their
    probabilities (:func:`_check_root_probabilities`).  Each child must
    carry the update of its parent's stored belief under the parent's
    prescription and the message that leads to it (through ``zeta`` and
    ``chi`` in the reduced variant).
    Stages are checked in order, so every parent was checked before its
    update is taken.  A gap above ``BELIEF_TOL`` in sup-norm fails, and
    so does a NaN weight or probability.  Nodes that no root reaches are
    left unchecked; the loader drops them.

    Returns, per stage, ``(node, belief over (x, y, m), prescription)``
    for every reachable node.
    """
    initial = _check_root_probabilities(spec, tree.roots)
    reduced = tree.variant == "reduced"

    def check(node_id, t, belief, origin):
        want = chi(belief).weights if reduced else belief.weights
        gap = float(np.max(np.abs(tree.node(node_id).belief.weights - want)))
        if not gap <= BELIEF_TOL:
            raise InvalidParameter(
                f"node {node_id} at t={t}: its belief is {gap!r} away in "
                f"sup-norm from the one {origin} gives")

    for (_, node_id), (_, belief) in zip(tree.roots, initial):
        check(node_id, 1, belief, "the problem's initial law")
    reached = dict.fromkeys(node_id for _, node_id in tree.roots)
    stages = []
    for t in range(1, tree.horizon + 1):
        space = PrescriptionSpace(spec, t)
        expanded, children = [], {}
        for node_id in reached:
            nd = tree.node(node_id)
            belief = zeta(spec, nd.belief) if reduced else nd.belief
            gamma = space.decode(nd.gamma_index)
            expanded.append((nd, belief, gamma))
            for z, child in sorted(nd.children.items()):  # none at the last stage
                try:
                    after = eta_update(spec, belief, gamma, z)
                except ZeroProbabilityObservation:
                    raise InvalidParameter(
                        f"node {node_id} at t={t}: message {z} leads to child "
                        f"{child}, but the node's belief gives it no mass") from None
                check(child, t + 1, after, f"node {node_id} and message {z}")
                children[child] = None
        stages.append(expanded)
        reached = children
    return stages


def _check_values(spec: ProblemSpec, stages: list[list]):
    """Raise InvalidParameter unless every reachable node stores its subtree's value.

    ``stages`` is what :func:`_check_beliefs` returns.  Values are
    recomputed from the last stage back: a node's value is the expected
    stage cost of its prescription under its belief, plus each child's
    recomputed value weighted by the probability of the message that
    leads to it.  A gap above ``VALUE_TOL`` fails, and so does a NaN.
    """
    values = {}
    for t in range(len(stages), 0, -1):
        for nd, belief, gamma in stages[t - 1]:
            want = expected_cost(spec, belief, gamma)
            if nd.children:
                dist = message_distribution(spec, belief, gamma)
                want += sum(dist[z] * values[child]
                            for z, child in sorted(nd.children.items()))
            if not _value_gap_ok(nd.value, want):
                raise InvalidParameter(
                    f"node {nd.node_id} at t={t}: its value is {nd.value!r}; its "
                    f"stage cost and children give {want!r}")
            values[nd.node_id] = want


def policy_tree_to_dict(spec: ProblemSpec, tree: PolicyTree) -> dict:
    """The document of a finite-horizon policy tree.

    The tree holds only the nodes its roots reach, so its stages are
    written as they are, in order and under their solver ids.
    """
    stages = []
    for t, stage in enumerate(tree.stages, start=1):
        gammas = _gamma_docs(PrescriptionSpace(spec, t),
                             (nd.gamma_index for nd in stage))
        stages.append([{
            "id": nd.node_id,
            "t": nd.t,
            "belief": _belief_to_dict(nd.belief),
            "gamma": gammas[nd.gamma_index],
            "value": float(nd.value),
            "children": {str(z): int(c) for z, c in sorted(nd.children.items())},
        } for nd in stage])
    return {
        "kind": "policy_tree",
        "variant": tree.variant,
        "horizon": tree.horizon,
        "problem_digest": problem_digest(spec),
        "roots": [[float(p), int(i)] for p, i in tree.roots],
        "stages": stages,
    }


def policy_tree_from_dict(doc, spec: ProblemSpec) -> PolicyTree:
    """Decode and check a policy tree document.

    A document may also carry nodes that no root reaches, as documents
    written before pruning do: their links, indices and shapes are
    checked, and the returned tree, in document order, leaves them out.
    """
    variant = doc["variant"]
    if variant not in ("full", "reduced"):
        raise InvalidParameter(
            f"a policy tree's variant must be \"full\" or \"reduced\", got {variant!r}")
    cls = ReducedBelief if variant == "reduced" else Belief
    stages = []
    for stage_doc in doc["stages"]:
        stage = []
        for nd in stage_doc:
            belief = cls(t=nd["t"], n=spec.n, dims=tuple(nd["belief"]["dims"]),
                         weights=np.asarray(nd["belief"]["weights"], dtype=float))
            stage.append(TreeNode(
                node_id=nd["id"], t=nd["t"], belief=belief,
                gamma_index=nd["gamma"]["index"],
                value=_json_number(nd["value"], f"node {nd['id']!r}'s value"),
                children=_json_children(nd)))
        stages.append(stage)
    roots = _json_roots(doc)
    _check_links(spec, doc["horizon"], roots, stages)
    _check_indices(spec, stages)
    _check_tree_nodes(spec, variant, stages, doc["stages"])
    tree = PolicyTree(variant=variant, horizon=doc["horizon"], roots=roots,
                      stages=stages).finalize()
    checked = _check_beliefs(spec, tree)
    _check_values(spec, checked)
    kept = {nd.node_id for stage in checked for nd, _, _ in stage}
    tree.stages = [[nd for nd in stage if nd.node_id in kept] for stage in stages]
    return tree.finalize()


def _check_report_value(report, tree: PolicyTree):
    """Raise InvalidParameter unless a solve result reports its tree's value.

    The tree's value is the probability-weighted sum of its roots'
    values, which the loader has checked against their recomputation.
    """
    value = _json_number(report.get("value") if isinstance(report, dict) else None,
                         "a solve result's report.value")
    want = sum(prob * tree.node(node_id).value for prob, node_id in tree.roots)
    if not _value_gap_ok(value, want):
        raise InvalidParameter(
            f"report.value is {value!r}; the policy's roots give {want!r}")


def control_strategy_to_dict(spec: ProblemSpec,
                             strategy: ControlStrategy) -> dict:
    stages = []
    for stage in strategy.stages:
        stages.append([{
            "id": nd.node_id,
            "t": nd.t,
            "tables": [t.tolist() for t in nd.tables],
            "children": {str(z): int(c) for z, c in sorted(nd.children.items())},
        } for nd in stage])
    return {
        "kind": "control_strategy",
        "n": strategy.n,
        "horizon": strategy.horizon,
        "problem_digest": problem_digest(spec),
        "roots": [[float(p), int(i)] for p, i in strategy.roots],
        "stages": stages,
    }


def control_strategy_from_dict(doc, spec: ProblemSpec) -> ControlStrategy:
    """Decode and check a control strategy document."""
    stages = []
    for stage_doc in doc["stages"]:
        stages.append([StrategyNode(
            node_id=nd["id"], t=nd["t"],
            tables=tuple(np.asarray(t) for t in nd["tables"]),
            children=_json_children(nd),
        ) for nd in stage_doc])
    roots = _json_roots(doc)
    _check_links(spec, doc["horizon"], roots, stages)
    _check_root_probabilities(spec, roots)
    _check_tables(spec, stages, doc["stages"])
    return ControlStrategy(n=doc["n"], horizon=doc["horizon"], roots=roots,
                           stages=stages).finalize()


def stationary_policy_to_dict(spec: ProblemSpec,
                              policy: StationaryPolicy) -> dict:
    gammas = _gamma_docs(PrescriptionSpace(spec, 1),
                         (entry.gamma_index for entry in policy.entries))
    entries = []
    for entry in policy.entries:
        entries.append({
            "key": entry.key.hex(),
            "belief": _belief_to_dict(entry.belief),
            "gamma": gammas[entry.gamma_index],
            "value": float(entry.value),
            "children": {str(z): key.hex()
                         for z, key in sorted(entry.children.items())},
        })
    return {
        "kind": "stationary_policy",
        "problem_digest": problem_digest(spec),
        "epsilon": policy.epsilon,
        "iterations": policy.iterations,
        "residual": policy.residual,
        "tail_bound": policy.tail_bound,
        "value": policy.value,
        "entries": entries,
    }


def policy_from_document(doc, spec: ProblemSpec):
    """Decode a policy document, checking it matches the given problem.

    Accepts a solve result (unwrapping its policy), a policy tree, or a
    control strategy.  Raises InvalidParameter on unknown kinds, on a
    digest mismatch, and on structurally broken documents.
    """
    if not isinstance(doc, dict):
        raise InvalidParameter("policy document must be a JSON object")
    kind = doc.get("kind")
    if kind == "solve_result":
        policy = policy_from_document(doc.get("policy"), spec)
        if isinstance(policy, PolicyTree):
            _check_report_value(doc.get("report"), policy)
        return policy
    stored = doc.get("problem_digest")
    expect = problem_digest(spec)
    if stored != expect:
        raise InvalidParameter(
            f"policy was produced for a different problem: its digest is "
            f"{stored}, the problem's is {expect}")
    try:
        if kind == "policy_tree":
            return policy_tree_from_dict(doc, spec)
        if kind == "control_strategy":
            return control_strategy_from_dict(doc, spec)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        # a field of the wrong JSON type, or an infinite number read as an int
        raise InvalidParameter(f"malformed {kind} document: {exc!r}") from exc
    raise InvalidParameter(
        f"cannot simulate a document of kind {kind!r}; expected a policy "
        f"tree or a control strategy")


# -- report documents --------------------------------------------------------


def value_report_to_dict(report: ValueReport) -> dict:
    doc = {
        "kind": "value_report",
        "value": report.value,
        "variant": report.variant,
        "mode": report.mode,
        "stage_nodes": list(report.stage_nodes),
        "prescription_space_sizes": list(report.prescription_space_sizes),
        "expanded_classes": list(report.expanded_classes),
    }
    if report.iterations is not None:
        doc["iterations"] = report.iterations
        doc["residual"] = report.residual
        doc["tail_bound"] = report.tail_bound
    return doc


def solve_result_to_dict(spec: ProblemSpec, report: ValueReport,
                         policy) -> dict:
    if isinstance(policy, PolicyTree):
        policy_doc = policy_tree_to_dict(spec, policy)
    else:
        policy_doc = stationary_policy_to_dict(spec, policy)
    return {
        "kind": "solve_result",
        "problem_digest": problem_digest(spec),
        "report": value_report_to_dict(report),
        "policy": policy_doc,
    }


def enumeration_report_to_dict(spec: ProblemSpec,
                               report: EnumerationReport) -> dict:
    return {
        "kind": "enumeration_report",
        "enumeration": report.kind,
        "count": report.count,
        "minimum": report.minimum,
        "strategy": control_strategy_to_dict(spec, report.strategy),
    }


def enumeration_result_to_dict(spec: ProblemSpec, basic: EnumerationReport,
                               coordinator: EnumerationReport) -> dict:
    return {
        "kind": "enumeration_result",
        "problem_digest": problem_digest(spec),
        "basic": enumeration_report_to_dict(spec, basic),
        "coordinator": enumeration_report_to_dict(spec, coordinator),
        "minimum_gap": abs(basic.minimum - coordinator.minimum),
    }


def sim_report_to_dict(report: SimReport) -> dict:
    return {
        "kind": "sim_report",
        "episodes": report.episodes,
        "seed": report.seed,
        "mean": report.mean,
        "stderr": report.stderr,
        "violations": report.violations,
    }


def trajectory_to_dict(tr: Trajectory) -> dict:
    return {
        "episode": tr.episode,
        "states": list(tr.states),
        "obs": [list(o) for o in tr.obs],
        "actions": [list(a) for a in tr.actions],
        "messages": list(tr.messages),
        "memories": [list(m) for m in tr.memories],
        "nodes": list(tr.nodes),
        "cost": tr.cost,
    }


def validation_report_to_dict(report: ValidationReport) -> dict:
    return {
        "kind": "validation_report",
        "ok": report.ok,
        "findings": [{"code": f.code, "where": f.where, "detail": f.detail}
                     for f in report.findings],
    }
