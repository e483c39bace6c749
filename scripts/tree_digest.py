"""Print one sha256 per solved (problem, variant) and per command document.

Solves every finite fixture in ``problems/`` and the benchmark's filter
family members k = 0, 3 and 4 at seeds 0-9, in both belief variants.
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
enumerate`` writes.  Finally, for filter member k = 0 at seeds 0-9, it
prints the coordinator oracle's count, the ``repr`` of its minimum and a
digest of its strategy (roots, then per node: id, stage, tables and
children in message order).  Run from the repository root:

    python3 scripts/tree_digest.py > digests.txt
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package of this checkout, not an installed one
sys.path.insert(0, str(ROOT / "src"))

from cisolver import serialize  # noqa: E402
from cisolver.dp import solve_discounted, solve_finite, solve_finite_reduced  # noqa: E402
from cisolver.oracle import (  # noqa: E402
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
)
from cisolver.sim import rollout  # noqa: E402

FILTER_MEMBERS = (0, 3, 4)
SEEDS = range(10)
CHAIN_BETAS = (0.9, 0.95, 0.99)
EPSILON = 1e-4
ENUMERATED = ("delayed_sharing_2x2", "static_team")  # small enough for both oracles
ORACLE_MEMBER = 0  # delayed sharing, as on the benchmark's certify workload


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


def coordinator_oracle_line(spec) -> str:
    got = enumerate_coordinator_strategies(spec)
    h = hashlib.sha256(repr(got.strategy.roots).encode())
    for stage in got.strategy.stages:
        for nd in stage:
            h.update(repr((nd.node_id, nd.t, [tb.tolist() for tb in nd.tables],
                           sorted(nd.children.items()))).encode())
    return f"{got.count} {got.minimum!r} {h.hexdigest()}"


def main():
    for name, spec in problems():
        for variant, solve in (("full", solve_finite),
                               ("reduced", solve_finite_reduced)):
            print(f"{name} {variant} {digest(spec, *solve(spec))}", flush=True)
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


if __name__ == "__main__":
    main()
