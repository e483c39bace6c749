"""Print one sha256 per solved (problem, variant) and per command document.

Solves every finite fixture in ``problems/``, the benchmark's filter
family members k = 0, 3 and 4 at seeds 0-9, and the test suite's
instances on which many branches of a node repeat (delayed sharing with
delay 2 at T = 4 and with three controllers at T = 3, seeds 0-2, and
``filter_instance(k)`` for k = 0-4), in both belief variants, and then
``periodic_instance(T=5)`` in the full variant only.
Each digest covers the tree nodes that the roots reach through the
nodes' ``children``, stage by stage in stage order (per node: id, stage,
prescription index, children in message order, and the bytes of its
value and belief weights), and the solve document as ``cis solve``
writes it.  Then it solves every discounted fixture, and
``discounted_chain`` at discount factors 0.9, 0.95 and 0.99, at
epsilon = 1e-4, and prints the value's ``repr`` and a digest of the
solve document with its ``stationary_policy`` as ``cis solve`` writes
it.  Two checkouts that print the same lines solved every problem to the
same bits.  Last, for every fixture, it prints a digest of the document
``cis validate`` writes; for every valid finite fixture, one of the
report ``cis simulate`` writes for 200 episodes of the full tree at seed
1; and for the fixtures in ``ENUMERATED``, one of the document ``cis
enumerate`` writes.  Then, for filter member k = 0 at seeds 0-9, it
prints the coordinator oracle's count, the ``repr`` of its minimum and a
digest of its strategy (roots, then per node: id, stage, tables and
children in message order).  Finally, for every valid finite fixture and
for the delayed sharing instances with delay 2 at T = 4 and with three
controllers at T = 3 (seeds 0-2), it prints the digests of rollouts,
each at its own seed: the reports of the extracted strategy and of the
reduced tree over ``ROLLOUT_EPISODES`` episodes (more than one block);
the report and the trajectory file (as ``cis simulate
--dump-trajectories`` writes it) of a recorded rollout of the full tree;
and the paired reports, over ``ROLLOUT_EPISODES`` episodes, of the full
tree against its strategy, against a copy in which controller 0 shifts
every action at stage ``min(2, T)`` (as in the test suite's
``test_paired_rollout_flags_a_corrupted_stage``) and against a copy with
fewer, scattered faults (:func:`_corrupted`).  Last, it prints the
``problem_digest`` of every fixture, of ``preset_instance(name, T=4)``
for every preset name, and of a three-stage problem with observation
and action spaces of size 3 under control sharing.  Run from the
repository root:

    python3 scripts/tree_digest.py > digests.txt
"""

import dataclasses
import hashlib
import importlib.util
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package of this checkout, not an installed one, and its test builders
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

from cisolver import serialize  # noqa: E402
from cisolver.dp import (  # noqa: E402
    extract_control_strategy,
    solve_discounted,
    solve_finite,
    solve_finite_reduced,
)
from cisolver.oracle import (  # noqa: E402
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
)
from cisolver.protocols import control_sharing_protocol  # noqa: E402
from cisolver.sim import paired_rollout, rollout  # noqa: E402

import instances  # noqa: E402

FILTER_MEMBERS = (0, 3, 4)
SEEDS = range(10)
CHAIN_BETAS = (0.9, 0.95, 0.99)
EPSILON = 1e-4
ENUMERATED = ("delayed_sharing_2x2", "static_team")  # small enough for both oracles
ORACLE_MEMBER = 0  # delayed sharing, as on the benchmark's certify workload
REPEAT_SEEDS = range(3)
ROLLOUT_EPISODES = 40_000  # more than one block of episodes
RECORD_EPISODES = 2_000
ROLLOUT_SEED = 7
PRESETS = ("delayed", "delayed_state", "periodic", "control", "no_sharing")


def _filter_family_doc():
    path = ROOT / "perfbench" / "instances.py"
    loader = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.filter_family_doc


def _fixtures(mode):
    """``(name, spec)`` of every valid fixture of ``mode``, by file name."""
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec, report = serialize.load_problem(str(path))
        if spec is not None and report.ok and spec.mode == mode:
            yield path.stem, spec


def problems():
    """``(name, spec)`` of every finite problem digested, in a fixed order."""
    yield from _fixtures("finite")
    family = _filter_family_doc()
    for k in FILTER_MEMBERS:
        for seed in SEEDS:
            spec, report = serialize.problem_from_document(family(seed, k))
            assert spec is not None and report.ok, report
            yield f"filter_k{k}_seed{seed}", spec
    for seed in REPEAT_SEEDS:
        yield (f"delayed2_T4_seed{seed}",
               instances.random_delayed_instance(seed, delay=2, T=4))
        yield f"n3_T3_seed{seed}", instances.random_delayed_instance(seed, n=3, T=3)
    for k in range(5):
        yield f"filter_instance_k{k}", instances.filter_instance(k)


def _reached(tree):
    """The nodes the roots reach through ``children``, stage by stage, in stage order."""
    reached = {node_id for _, node_id in tree.roots}
    for stage in tree.stages:
        kept = [nd for nd in stage if nd.node_id in reached]
        yield kept
        reached = {child for nd in kept for child in nd.children.values()}


def digest(spec, report, tree) -> str:
    h = hashlib.sha256()
    h.update(repr(tree.roots).encode())
    for stage in _reached(tree):
        for nd in stage:
            h.update(repr((nd.node_id, nd.t, nd.gamma_index,
                           sorted(nd.children.items()))).encode())
            h.update(np.float64(nd.value).tobytes())
            h.update(np.ascontiguousarray(nd.belief.weights, dtype=float).tobytes())
    doc = serialize.solve_result_to_dict(spec, report, tree)
    h.update(serialize.dumps(doc).encode())
    return h.hexdigest()


def discounted_problems():
    """``(name, spec)`` of every discounted problem digested, in a fixed order."""
    yield from _fixtures("discounted")
    doc = json.loads((ROOT / "problems" / "discounted_chain.json").read_text())
    for beta in CHAIN_BETAS:
        spec, report = serialize.problem_from_document(dict(doc, discount=beta))
        assert spec is not None and report.ok, report
        yield f"discounted_chain_beta{beta}", spec


def discounted_digest(spec) -> str:
    report, policy = solve_discounted(spec, epsilon=EPSILON)
    doc = serialize.solve_result_to_dict(spec, report, policy)
    return f"{report.value!r} {hashlib.sha256(serialize.dumps(doc).encode()).hexdigest()}"


def _text_digest(doc) -> str:
    return hashlib.sha256(serialize.dumps(doc).encode()).hexdigest()


def command_documents():
    """``(name, command, doc)`` of the other documents the commands write."""
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec, report = serialize.load_problem(str(path))
        yield path.stem, "validate", serialize.validation_report_to_dict(report)
        if spec is None or not report.ok or spec.mode != "finite":
            continue
        _, tree = solve_finite(spec)
        yield path.stem, "simulate", serialize.sim_report_to_dict(
            rollout(spec, tree, seed=1, episodes=200))
        if path.stem in ENUMERATED:
            yield path.stem, "enumerate", serialize.enumeration_result_to_dict(
                spec, enumerate_basic_strategies(spec),
                enumerate_coordinator_strategies(spec))


def rollout_problems():
    """``(name, spec)`` of every problem whose rollouts are digested."""
    yield from _fixtures("finite")
    for seed in REPEAT_SEEDS:
        yield (f"delayed2_T4_seed{seed}",
               instances.random_delayed_instance(seed, delay=2, T=4))
        yield f"n3_T3_seed{seed}", instances.random_delayed_instance(seed, n=3, T=3)


def _flipped(spec, tree):
    """The tree's strategy with controller 0 shifting every action at one stage."""
    strategy = extract_control_strategy(spec, tree)
    for node in strategy.stages[min(2, spec.horizon) - 1]:
        node.tables = ((node.tables[0] + 1) % spec.action_cards[0],) + node.tables[1:]
    return strategy


def _corrupted(spec, tree):
    """The tree's strategy with some actions shifted and some children dropped.

    The last controller shifts its action on observation 1 at stage
    ``min(3, T)``, and the first node of stage 2 (when T > 2) loses every
    other child, so that only some episodes diverge, at different stages
    and in different fields.
    """
    strategy = extract_control_strategy(spec, tree)
    last = spec.n - 1
    for node in strategy.stages[min(3, spec.horizon) - 1]:
        shifted = node.tables[last].copy()
        shifted[min(1, len(shifted) - 1)] += 1
        shifted %= spec.action_cards[last]
        node.tables = node.tables[:last] + (shifted,)
    if spec.horizon > 2:
        children = strategy.stages[1][0].children
        for z in sorted(children)[::2]:
            del children[z]
    return strategy


def _paired_digest(report) -> str:
    text = repr((report.episodes, report.seed, report.identical, report.divergences))
    return hashlib.sha256(text.encode()).hexdigest()


def rollout_lines(spec):
    """``(label, digest)`` of the rollouts of one problem's policies."""
    _, tree = solve_finite(spec)
    _, reduced = solve_finite_reduced(spec)
    strategy = extract_control_strategy(spec, tree)
    for seed, (label, policy) in enumerate((("strategy", strategy),
                                            ("reduced", reduced)), start=ROLLOUT_SEED):
        yield f"simulate_{label}", _text_digest(serialize.sim_report_to_dict(
            rollout(spec, policy, seed=seed, episodes=ROLLOUT_EPISODES)))
    report = rollout(spec, tree, seed=ROLLOUT_SEED + 2, episodes=RECORD_EPISODES,
                     record=True)
    h = hashlib.sha256(serialize.dumps(serialize.sim_report_to_dict(report)).encode())
    for tr in report.trajectories:
        h.update(json.dumps(serialize.trajectory_to_dict(tr), sort_keys=True,
                            allow_nan=False).encode() + b"\n")
    yield "simulate_record", h.hexdigest()
    run = dict(seed=ROLLOUT_SEED + 3, episodes=ROLLOUT_EPISODES)
    yield "paired", _paired_digest(paired_rollout(spec, tree, strategy, **run))
    yield "paired_flipped", _paired_digest(
        paired_rollout(spec, tree, _flipped(spec, tree), **run))
    yield "paired_corrupted", _paired_digest(
        paired_rollout(spec, tree, _corrupted(spec, tree), **run))


def coordinator_oracle_line(spec) -> str:
    got = enumerate_coordinator_strategies(spec)
    h = hashlib.sha256(repr(got.strategy.roots).encode())
    for stage in got.strategy.stages:
        for nd in stage:
            h.update(repr((nd.node_id, nd.t, [tb.tolist() for tb in nd.tables],
                           sorted(nd.children.items()))).encode())
    return f"{got.count} {got.minimum!r} {h.hexdigest()}"


def problem_digests():
    """``(name, problem_digest)`` of every fixture and of the preset problems."""
    for path in sorted((ROOT / "problems").glob("*.json")):
        spec, _ = serialize.load_problem(str(path))
        yield path.stem, serialize.problem_digest(spec)
    for name in PRESETS:
        yield f"preset_{name}", serialize.problem_digest(
            instances.preset_instance(name, T=4))
    spec = instances.random_delayed_instance(1, ny=3, nu=3, T=3)
    spec = dataclasses.replace(spec, protocol=control_sharing_protocol(
        spec.horizon, spec.obs_spaces, spec.action_spaces))
    yield "control_3x3_T3", serialize.problem_digest(spec)


def main():
    for name, spec in problems():
        for variant, solve in (("full", solve_finite),
                               ("reduced", solve_finite_reduced)):
            print(f"{name} {variant} {digest(spec, *solve(spec))}", flush=True)
    spec = instances.periodic_instance(T=5)
    print(f"periodic_T5 full {digest(spec, *solve_finite(spec))}", flush=True)
    for name, spec in discounted_problems():
        print(f"{name} stationary {discounted_digest(spec)}", flush=True)
    for name, command, doc in command_documents():
        print(f"{name} {command} {_text_digest(doc)}", flush=True)
    family = _filter_family_doc()
    for seed in SEEDS:
        spec, report = serialize.problem_from_document(family(seed, ORACLE_MEMBER))
        assert spec is not None and report.ok, report
        print(f"filter_k{ORACLE_MEMBER}_seed{seed} coordinator_oracle "
              f"{coordinator_oracle_line(spec)}", flush=True)
    for name, spec in rollout_problems():
        for label, line in rollout_lines(spec):
            print(f"{name} {label} {line}", flush=True)
    for name, line in problem_digests():
        print(f"{name} problem_digest {line}", flush=True)


if __name__ == "__main__":
    main()
