"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Every workload runs end to end at reduced size (``--short``), untraced
and traced; every correctness check rejects a perturbed value; the
reference computations agree with values derived another way.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import instances  # noqa: E402
import reference  # noqa: E402
from cisolver import dp, serialize, sim  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Share of operations that fail: the discounted solve at beta = 0.99.
FAILED_SHARE = {"deep": 1 / 5, "wide": 0.0, "certify": 0.0}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--short"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == FAILED_SHARE[workload]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "deep", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_agree_rejects_a_perturbed_value():
    assert checks.agree(0.5, 0.5 + 1e-12)[0]
    assert not checks.agree(0.5, 0.5 + 1e-8)[0]


def test_within_bounds_rejects_a_value_outside():
    assert checks.within_bounds(0.5, 0.4, 0.6)[0]
    assert not checks.within_bounds(0.4 - 1e-6, 0.4, 0.6)[0]
    assert not checks.within_bounds(0.6 + 1e-6, 0.4, 0.6)[0]


def test_rollout_agrees_rejects_a_far_mean_or_a_violation():
    assert checks.rollout_agrees(1.0 + 3e-3, 1e-3, 1.0, 0)[0]
    assert not checks.rollout_agrees(1.0 + 5e-3, 1e-3, 1.0, 0)[0]
    assert not checks.rollout_agrees(1.0, 1e-3, 1.0, 1)[0]


def _delayed_sharing():
    spec, report = serialize.load_problem(str(ROOT / "problems" /
                                              "delayed_sharing_2x2.json"))
    assert report.ok
    return spec


def test_paired_and_thread_checks_reject_a_difference():
    spec = _delayed_sharing()
    _, tree = dp.solve_finite(spec)
    strategy = dp.extract_control_strategy(spec, tree)
    paired = sim.paired_rollout(spec, tree, strategy, seed=1, episodes=500)
    assert checks.paired_identical(paired)[0]
    paired.divergences.append((0, 1, "action"))
    paired.identical = False
    assert not checks.paired_identical(paired)[0]

    one = sim.rollout(spec, tree, seed=1, episodes=500, threads=1)
    two = sim.rollout(spec, tree, seed=1, episodes=500, threads=2)
    assert checks.reports_equal(one, two)[0]
    two.mean += 1e-12
    assert not checks.reports_equal(one, two)[0]


def test_bounds_bracket_the_optimal_value():
    spec = _delayed_sharing()
    report, _ = dp.solve_finite(spec)
    lower = reference.full_information_bound(spec)
    upper = reference.open_loop_bound(spec)
    assert lower < report.value < upper


def test_exact_mdp_value_matches_value_iteration():
    with open(ROOT / "problems" / "discounted_chain.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    spec, _ = serialize.problem_from_document(dict(doc, discount=0.95))
    kernel, cost = spec.transition(1), spec.cost(1)
    v = np.zeros(2)
    for _ in range(2000):
        v = (cost + 0.95 * kernel @ v).min(axis=1)
    assert abs(reference.state_revealing_discounted_value(spec)
               - spec.initial_dist @ v) < 1e-12


def test_instances_follow_the_seed():
    a = instances.filter_family_doc(5, 4)
    assert a == instances.filter_family_doc(5, 4)
    assert a != instances.filter_family_doc(6, 4)
    spec, report = serialize.problem_from_document(a)
    assert report.ok and spec.horizon == 3
