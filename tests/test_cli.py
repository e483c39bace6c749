import hashlib
import json
import shutil
import subprocess

import pytest

import cisolver.cli as cli
from cisolver import sim
from cisolver.oracle import EnumerationReport
from cisolver.sim import SimReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_a_clean_problem(capsys, problems_dir):
    code, out, _ = run(capsys, "validate",
                       str(problems_dir / "delayed_sharing_2x2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["findings"] == []


def test_validate_names_the_broken_kernel_row(capsys, problems_dir):
    code, out, _ = run(capsys, "validate",
                       str(problems_dir / "bad_kernel_row.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert any(f["where"] == "transition[t=1][0, 2]" for f in doc["findings"])


def test_malformed_json_reports_the_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2\n "mode": "finite"}\n')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 2" in err and "column" in err


def test_deeply_nested_json_is_a_parse_failure(capsys, tmp_path, problems_dir):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["validate", str(nested)],
                 ["simulate", str(problems_dir / "delayed_sharing_2x2.json"), str(nested)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "parse error at line 1, column 1: nesting too deep\n"


def test_unreadable_file_is_a_parse_failure(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read input" in err


def test_solve_prints_the_optimal_value(capsys, tmp_path, problems_dir, goldens):
    out_path = tmp_path / "solved.json"
    code, out, _ = run(capsys, "solve",
                       str(problems_dir / "acceptance_seed1.json"),
                       "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    value = doc["report"]["value"]
    assert out.strip() == f"{value:.12g}"
    assert abs(value - goldens["acceptance_seed1"]["basic_minimum"]) <= 1e-9


def test_solve_output_is_byte_identical(capsys, tmp_path, problems_dir):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "solve",
                         str(problems_dir / "acceptance_seed1.json"),
                         "--output", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_discounted_constant_cost(capsys, problems_dir):
    code, out, err = run(capsys, "solve",
                         str(problems_dir / "discounted_constant_beta05.json"))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["report"]["value"] - 2.0) <= 1e-12
    assert err.splitlines()[-1] == f"{doc['report']['value']:.12g}"


def test_threads_is_a_usage_error(capsys, problems_dir, tmp_path):
    problem = str(problems_dir / "static_team.json")
    for argv in (["solve", problem], ["enumerate", problem],
                 ["simulate", problem, str(tmp_path / "policy.json")]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


def test_enumerate_static_team_counts(capsys, problems_dir):
    code, out, _ = run(capsys, "enumerate",
                       str(problems_dir / "static_team.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["basic"]["count"] == 256
    assert doc["coordinator"]["count"] == 32
    assert doc["minimum_gap"] <= 1e-9


def test_enumerate_exit_code_on_disagreement(capsys, problems_dir, monkeypatch):
    real = cli.enumerate_basic_strategies

    def skewed(spec, cap_strategies):
        report = real(spec, cap_strategies=cap_strategies)
        return EnumerationReport(kind=report.kind, count=report.count,
                                 minimum=report.minimum + 1e-3,
                                 strategy=report.strategy,
                                 runtime_s=report.runtime_s)

    monkeypatch.setattr(cli, "enumerate_basic_strategies", skewed)
    code, _, err = run(capsys, "enumerate",
                       str(problems_dir / "static_team.json"))
    assert code == 4
    assert "disagree" in err


def test_simulate_round_trip(capsys, tmp_path, problems_dir):
    problem = str(problems_dir / "acceptance_seed1.json")
    policy = tmp_path / "policy.json"
    code, _, _ = run(capsys, "solve", problem, "--output", str(policy))
    assert code == 0

    reports = []
    for name in ("r1.json", "r2.json"):
        out_path = tmp_path / name
        code, _, _ = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "500", "--seed", "3",
                         "--output", str(out_path))
        assert code == 0
        reports.append(out_path.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["violations"] == 0 and doc["episodes"] == 500


def test_simulate_rejects_a_foreign_policy(capsys, tmp_path, problems_dir):
    policy = tmp_path / "policy.json"
    run(capsys, "solve", str(problems_dir / "acceptance_seed1.json"),
        "--output", str(policy))
    code, _, err = run(capsys, "simulate",
                       str(problems_dir / "periodic_4stage.json"), str(policy),
                       "--episodes", "10")
    assert code == 1
    assert "different problem" in err


@pytest.mark.parametrize("corrupt,named", [
    (lambda children: children.update({min(children): 99999}), "child 99999"),
    (lambda children: children.update({"99999": 1}), "message 99999"),
])
def test_simulate_rejects_a_policy_that_names_no_node(capsys, tmp_path,
                                                      problems_dir, corrupt,
                                                      named):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    corrupt(doc["policy"]["stages"][0][0]["children"])
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "100")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("corrupt,named", [
    (lambda policy: policy.update(roots=[]), "policy has 0 roots; the problem has 1"),
    (lambda policy: policy["roots"].append(policy["roots"][0]), "policy has 2 roots"),
    (lambda policy: policy["roots"][0].__setitem__(1, float("inf")),
     "malformed policy_tree document: OverflowError"),
    (lambda policy: policy["stages"][0][0].update(children=[]),
     "malformed policy_tree document: AttributeError"),
    (lambda policy: policy["stages"][1][1].update(id=policy["stages"][1][0]["id"]),
     "node ids must be distinct integers"),
    (lambda policy: policy["stages"][1][1].update(id=str(policy["stages"][1][1]["id"])),
     "node ids must be distinct integers"),
    (lambda policy: policy["stages"][0][0].update(children={})
     or policy["stages"][1].clear(), "policy stage 2 has no nodes"),
    *((lambda policy, v=v: policy.update(variant=v),
       f'variant must be "full" or "reduced", got {v!r}') for v in ("banana", 5, None)),
])
def test_simulate_rejects_broken_roots_children_and_ids(capsys, tmp_path, problems_dir,
                                                        corrupt, named):
    """Each of these once exited 6 (internal error) or was read silently.

    No roots, an infinite root id, a children list instead of an object
    and an empty stage exited 6; an extra root was ignored, a duplicate
    id sent the root's children to the wrong node, and any variant but
    "reduced" was read as "full".
    """
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    corrupt(doc["policy"])
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy), "--episodes", "100")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("index", [10**30, -1, 2.7, True])
def test_simulate_rejects_a_prescription_index_out_of_range(capsys, tmp_path,
                                                            problems_dir, index):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    doc["policy"]["stages"][1][0]["gamma"]["index"] = index
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "100")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert f"prescription index {index!r} is not an integer below" in err


@pytest.mark.parametrize("corrupt,named", [
    (lambda node: node["gamma"].update(
        tables=[[[1] * len(row) for row in table]
                for table in node["gamma"]["tables"]]),
     "gamma.tables are not the tables of prescription index"),
    (lambda node: node["belief"].update(dims=[7]), "has dims [7]"),
    (lambda node: node["belief"]["weights"].pop(), "weights; a full belief"),
    (lambda node: node.update(t=1), "its t is 1"),
])
def test_simulate_rejects_a_tree_node_that_disagrees_with_its_stage(
        capsys, tmp_path, problems_dir, corrupt, named):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    node = doc["policy"]["stages"][1][0]
    before = json.dumps(node)
    corrupt(node)
    assert json.dumps(node) != before
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "200", "--seed", "1")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert named in err


def _point_mass(node):
    weights = node["belief"]["weights"]
    weights[:] = [1.0] + [0.0] * (len(weights) - 1)


def _swap_children(node, a, b):
    children = node["children"]
    children[a], children[b] = children[b], children[a]


@pytest.mark.parametrize("corrupt,named", [
    (lambda policy: [node["belief"]["weights"].reverse()
                     for node in policy["stages"][1]], "at t=2"),
    (lambda policy: [_point_mass(node) for node in policy["stages"][1]], "at t=2"),
    (lambda policy: _point_mass(policy["stages"][0][0]),
     "node 0 at t=1: its belief is"),
    (lambda policy: _swap_children(policy["stages"][0][0], "21", "24"),
     "from the one node 0 and message 21 gives"),
], ids=["stage-2-reversed", "stage-2-point-masses", "root-point-mass",
        "children-swapped"])
def test_simulate_rejects_a_stored_belief_its_path_does_not_give(
        capsys, tmp_path, problems_dir, corrupt, named):
    """Each of these once exited 0 or 5.

    Reversed or point-mass stage-2 beliefs gave a byte-identical report,
    a point-mass root belief exited 5 blaming the policy for 10476
    zero-probability message events, and swapped children silently
    simulated another policy.
    """
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    corrupt(doc["policy"])
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "20000", "--seed", "3")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert "away in sup-norm" in err and named in err


def _set_every_value(policy, value):
    for stage in policy["stages"]:
        for node in stage:
            node["value"] = value


@pytest.mark.parametrize("corrupt,named", [
    (lambda doc: _set_every_value(doc["policy"], 123.0),
     "at t=2: its value is 123.0; its stage cost and children give"),
    (lambda doc: doc["policy"]["roots"][0].__setitem__(0, 0.25),
     "root 0: its probability is 0.25; the problem's initial law gives 1.0"),
    (lambda doc: doc["report"].__setitem__("value", -7.0),
     "report.value is -7.0; the policy's roots give"),
], ids=["every-value-123", "root-probability-quarter", "report-value-negative"])
def test_simulate_rejects_a_stored_value_its_tree_does_not_give(
        capsys, tmp_path, problems_dir, corrupt, named):
    """Each of these once exited 0 with a byte-identical report."""
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    corrupt(doc)
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "2000", "--seed", "3")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert named in err


def _child_as_string(policy):
    children = policy["stages"][0][0]["children"]
    children["21"] = str(children["21"])


@pytest.mark.parametrize("corrupt,named", [
    (lambda policy: policy["roots"][0].__setitem__(1, "0"),
     "a root id must be an integer, got '0'"),
    (lambda policy: policy["roots"][0].__setitem__(1, 0.0),
     "a root id must be an integer, got 0.0"),
    (_child_as_string, "node 0's child for message 21 must be an integer, got '9'"),
], ids=["root-id-string", "root-id-float", "child-string"])
def test_simulate_rejects_an_id_that_is_not_a_json_int(capsys, tmp_path, problems_dir,
                                                       corrupt, named):
    """Each of these once exited 0 with a byte-identical report."""
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    corrupt(doc["policy"])
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "2000", "--seed", "3")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("probability,named", [
    (0.25, "root 0: its probability is 0.25; the problem's initial law gives 1.0"),
    ("1.0", "a root probability must be a number in the range of floats, got '1.0'"),
], ids=["quarter", "string"])
def test_simulate_rejects_a_strategy_root_probability_off_the_initial_law(
        capsys, tmp_path, problems_dir, probability, named):
    """Each of these once exited 0 with a byte-identical report."""
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    result = tmp_path / "enumeration.json"
    run(capsys, "enumerate", problem, "--output", str(result))
    strategy = json.loads(result.read_text())["coordinator"]["strategy"]
    strategy["roots"][0][0] = probability
    policy = tmp_path / "strategy.json"
    policy.write_text(json.dumps(strategy))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "2000", "--seed", "3")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("table", [[[0, 1, 1]], [[0], [2]], [[-1], [0]],
                                   [[0.0], [1.0]], [[0], [10**30]]])
def test_simulate_rejects_a_malformed_action_table(capsys, tmp_path,
                                                   problems_dir, table):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    result = tmp_path / "enumeration.json"
    run(capsys, "enumerate", problem, "--output", str(result))
    strategy = json.loads(result.read_text())["basic"]["strategy"]
    strategy["stages"][1][0]["tables"][0] = table
    policy = tmp_path / "strategy.json"
    policy.write_text(json.dumps(strategy))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "100")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert "controller 0's table must be integers of shape (2, 1) below 2" in err


def _first_one_to_true(tables):
    """Replace the first entry equal to 1 in a list of action tables by ``True``."""
    for table in tables:
        for row in table:
            if 1 in row:
                row[row.index(1)] = True
                return True
    return False


def test_simulate_rejects_a_boolean_in_a_tree_action_table(capsys, tmp_path,
                                                          problems_dir):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    doc = json.loads(policy.read_text())
    # numpy reads [1, true] as the ints [1, 1], so only the boolean is wrong
    node = next(nd for nd in doc["policy"]["stages"][1]
                if _first_one_to_true(nd["gamma"]["tables"]))
    policy.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "100")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert (f"node {node['id']} at t=2: gamma.tables are not the tables of "
            f"prescription index {node['gamma']['index']}") in err


def test_simulate_rejects_a_boolean_in_a_strategy_action_table(capsys, tmp_path,
                                                              problems_dir):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    result = tmp_path / "enumeration.json"
    run(capsys, "enumerate", problem, "--output", str(result))
    strategy = json.loads(result.read_text())["basic"]["strategy"]
    node = next(nd for nd in strategy["stages"][1]
                if _first_one_to_true(nd["tables"]))
    policy = tmp_path / "strategy.json"
    policy.write_text(json.dumps(strategy))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "100")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert f"node {node['id']} at t=2: controller " in err
    assert "'s table must be integers of shape" in err


def test_internal_error_exit(capsys, problems_dir, monkeypatch):
    def broken(spec, cap_prescriptions):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "solve_finite", broken)
    code, out, err = run(capsys, "solve",
                         str(problems_dir / "static_team.json"))
    assert code == 6
    assert out == ""
    assert "internal error: RuntimeError: boom" in err
    assert "Traceback" not in err


def test_a_trajectory_dump_is_pinned(capsys, tmp_path, problems_dir):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    dump = tmp_path / "trajectories.jsonl"
    run(capsys, "solve", problem, "--output", str(policy))
    code, _, _ = run(capsys, "simulate", problem, str(policy), "--episodes", "3001",
                     "--seed", "5", "--dump-trajectories", str(dump))
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == \
        "b8c7233d68f28788d302f690d3c5b60b97551a0e7d1e709643a54d8a02c3a46f"


def test_trajectory_dump_is_json_lines(capsys, tmp_path, problems_dir):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    dump = tmp_path / "episodes.jsonl"
    code, _, _ = run(capsys, "simulate", problem, str(policy),
                     "--episodes", "25", "--seed", "1",
                     "--dump-trajectories", str(dump),
                     "--output", str(tmp_path / "report.json"))
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 25
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"episode", "states", "obs", "actions",
                            "messages", "memories", "nodes", "cost"}


def test_simulate_audit_exit(capsys, tmp_path, problems_dir, monkeypatch):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))

    def tainted(spec, pol, seed, episodes, record=False):
        return SimReport(episodes=episodes, seed=seed, mean=0.0, stderr=0.0,
                         violations=3)

    monkeypatch.setattr(cli, "rollout", tainted)
    code, _, err = run(capsys, "simulate", problem, str(policy),
                       "--episodes", "10")
    assert code == 5
    assert "audit" in err


def test_environment_seed_and_flag_precedence(capsys, tmp_path, problems_dir,
                                              monkeypatch):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))

    monkeypatch.setenv("CIS_SEED", "7")
    code, out, _ = run(capsys, "simulate", problem, str(policy),
                       "--episodes", "10")
    assert code == 0 and json.loads(out)["seed"] == 7

    code, out, _ = run(capsys, "simulate", problem, str(policy),
                       "--episodes", "10", "--seed", "9")
    assert code == 0 and json.loads(out)["seed"] == 9

    monkeypatch.setenv("CIS_SEED", "frog")
    code, _, err = run(capsys, "simulate", problem, str(policy),
                       "--episodes", "10")
    assert code == 2 and "CIS_SEED" in err

    # a value outside the flag's choices is a usage error too
    monkeypatch.delenv("CIS_SEED")
    monkeypatch.setenv("CIS_VARIANT", "banana")
    code, out, err = run(capsys, "solve", problem)
    assert code == 2 and "CIS_VARIANT" in err and out == ""


def test_solve_rejects_a_nan_in_a_stochastic_table(capsys, tmp_path, problems_dir):
    doc = json.loads((problems_dir / "delayed_sharing_2x2.json").read_text())
    doc["initial_dist"][0] = float("nan")
    problem = tmp_path / "nan.json"
    problem.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(problem))
    assert code == 1
    assert out == ""
    assert "[dist-not-finite] initial_dist[0]" in err


def test_epsilon_is_a_usage_error(capsys, problems_dir, monkeypatch):
    problem = str(problems_dir / "discounted_chain.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", problem, "--epsilon", "1e-4"])
    assert exc.value.code == 2
    assert "--epsilon" in capsys.readouterr().err
    monkeypatch.setenv("CIS_EPSILON", "nan")  # no longer read
    code, out, _ = run(capsys, "solve", problem)
    assert code == 0 and json.loads(out)["policy"]["epsilon"] == 1e-4


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0"])
def test_solve_rejects_an_epsilon_that_is_not_finite_and_positive(
        capsys, problems_dir, monkeypatch, epsilon):
    # a bad epsilon never reaches the solver: the flag is a usage error
    # and the environment variable is not read
    problem = str(problems_dir / "discounted_chain.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", problem, f"--epsilon={epsilon}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--epsilon" in captured.err
    monkeypatch.setenv("CIS_EPSILON", epsilon)
    code, out, _ = run(capsys, "solve", problem)
    assert code == 0 and json.loads(out)["policy"]["epsilon"] == 1e-4


def test_prescription_cap_exit(capsys, problems_dir):
    code, _, err = run(capsys, "solve",
                       str(problems_dir / "acceptance_seed1.json"),
                       "--cap-prescriptions", "3")
    assert code == 3
    assert "cap exceeded" in err


def test_prescription_cap_holds_at_the_last_stage(capsys, tmp_path,
                                                  filter_family_doc):
    # 16 classes per stage-1 node, 256 per stage-2 (last-stage) node
    problem = tmp_path / "filter.json"
    problem.write_text(json.dumps(filter_family_doc(21, 4, horizon=2)))
    code, _, err = run(capsys, "solve", str(problem), "--cap-prescriptions", "255")
    assert code == 3
    assert "256 support-restricted prescription classes at stage 2" in err
    code, _, _ = run(capsys, "solve", str(problem), "--cap-prescriptions", "256")
    assert code == 0


def test_branch_cap_exit(capsys, problems_dir):
    code, _, err = run(capsys, "enumerate",
                       str(problems_dir / "acceptance_seed1.json"),
                       "--cap-branches", "100")
    assert code == 3
    assert "cap exceeded" in err and "100" in err


def test_bad_episode_count_is_invalid(capsys, tmp_path, problems_dir):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    code, _, _ = run(capsys, "simulate", problem, str(policy),
                     "--episodes", "0")
    assert code == 1


@pytest.mark.parametrize("episodes", [10**18, 2**62])
def test_an_episode_count_past_memory_hits_the_size_cap(capsys, tmp_path, problems_dir,
                                                        monkeypatch, episodes):
    """These once exited 6, with a MemoryError and with numpy's "array is too big".

    Both counts need more bytes for their per-episode costs than a 64-bit
    address space holds, so they fail on every machine, and before any
    episode is drawn.
    """
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    monkeypatch.setattr(sim, "_Prefetch", None)  # starting the draws would exit 6
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", str(episodes))
    assert code == 3
    assert out == ""
    assert f"cap exceeded: the costs of {episodes} episodes do not fit" in err


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_simulate_rejects_a_seed_outside_64_bits(capsys, tmp_path, problems_dir,
                                                 seed):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    policy = tmp_path / "policy.json"
    run(capsys, "solve", problem, "--output", str(policy))
    code, out, err = run(capsys, "simulate", problem, str(policy),
                         "--episodes", "10", "--seed", seed)
    assert code == 1
    assert out == ""
    assert "seed must be in [0, 2**64)" in err
    code, out, _ = run(capsys, "simulate", problem, str(policy),
                       "--episodes", "10", "--seed", str(2**64 - 1))
    assert code == 0 and json.loads(out)["seed"] == 2**64 - 1


@pytest.mark.skipif(shutil.which("cis") is None,
                    reason="console script not on PATH")
def test_console_script(problems_dir):
    proc = subprocess.run(
        ["cis", "validate", str(problems_dir / "delayed_sharing_2x2.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
