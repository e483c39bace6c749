import copy
import json
import pathlib

import numpy as np
import pytest

import instances
from cisolver.dp import (
    extract_control_strategy,
    solve_discounted,
    solve_finite,
    solve_finite_reduced,
)
from cisolver.errors import InvalidParameter
from cisolver.oracle import (
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
    exact_cost_of_strategy,
)
from cisolver.serialize import (
    control_strategy_from_dict,
    control_strategy_to_dict,
    dumps,
    enumeration_result_to_dict,
    load_problem,
    parse_file,
    policy_from_document,
    policy_tree_from_dict,
    policy_tree_to_dict,
    problem_digest,
    problem_from_dict,
    problem_from_document,
    problem_to_dict,
    solve_result_to_dict,
    sim_report_to_dict,
    stationary_policy_to_dict,
    validation_report_to_dict,
    value_report_to_dict,
)
from cisolver import cli, serialize
from cisolver.sim import rollout

PROBLEMS = sorted(p.stem for p in
                  (pathlib.Path(__file__).resolve().parent.parent / "problems")
                  .glob("*.json"))


def base_doc():
    """A small valid finite problem in preset form, with clean decimals."""
    return {
        "n": 2, "T": 2, "mode": "finite",
        "state": {"cardinality": 2},
        "obs": [{"cardinality": 2}, {"cardinality": 2}],
        "actions": [{"cardinality": 2}, {"cardinality": 2}],
        "initial_dist": [0.5, 0.5],
        "transition": {"kernel": [[[[0.5, 0.5]] * 4, [[0.25, 0.75]] * 4]]},
        "obs_kernels": [[[[1.0, 0.0], [0.0, 1.0]]] * 2] * 2,
        "cost": [[[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]]] * 2,
        "protocol": {"preset": "delayed", "params": {"delays": [1, 1]}},
    }


def test_problem_round_trip_is_idempotent(seeded_instances):
    spec = seeded_instances[0]
    doc = problem_to_dict(spec)
    again, findings = problem_from_dict(json.loads(dumps(doc)))
    assert findings == []
    assert problem_to_dict(again) == doc
    assert problem_digest(again) == problem_digest(spec)


def _cut_to_first_row(table):
    return table[:1]


def _shift_a_message(table):
    table[3][1][0] = table[3][1][0] % 16 + 1  # another real message
    return table


def _set_to_99(table):
    table[2][0][1] = 99
    return table


@pytest.mark.parametrize("field, i, t, edit, code", [
    ("message_maps", 0, 2, _shift_a_message, "message-map-mismatch"),
    ("message_maps", 1, 2, _set_to_99, "message-map-mismatch"),
    ("memory_updates", 1, 2, _cut_to_first_row, "memory-update-mismatch"),
])
def test_explicit_tables_must_be_the_slot_projections(capsys, tmp_path, problems_dir,
                                                      field, i, t, edit, code):
    """The tables of an explicit protocol are outside input: the reader
    compares each with the projection of the slots."""
    doc = json.loads((problems_dir / "periodic_4stage.json").read_text())
    tables = doc["protocol"]["explicit"][field][i]
    tables[t - 1] = edit(tables[t - 1])
    _, report = problem_from_document(copy.deepcopy(doc))
    assert [(f.code, f.where) for f in report.findings] == [
        (code, f"protocol[i={i}][t={t}]")]
    assert str(np.shape(tables[t - 1])) in report.findings[0].detail
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_preset_and_explicit_forms_share_a_digest():
    doc = base_doc()
    spec_a, report = problem_from_document(doc)
    assert report.ok
    explicit = problem_to_dict(spec_a)
    assert "explicit" in explicit["protocol"]
    spec_b, report = problem_from_document(explicit)
    assert report.ok
    assert problem_digest(spec_a) == problem_digest(spec_b)


def test_functional_and_kernel_forms_share_a_digest():
    doc = base_doc()
    # x' = w regardless of (x, u): the kernel rows are all the noise law
    doc["transition"] = {"kernel": [[[[0.3, 0.7]] * 4, [[0.3, 0.7]] * 4]]}
    spec_a, report = problem_from_document(doc)
    assert report.ok

    functional = copy.deepcopy(doc)
    functional["transition"] = {"functional": {
        "f_table": [[[0, 1]] * 4, [[0, 1]] * 4],
        "noise": {"dist": [0.3, 0.7]},
    }}
    spec_b, report = problem_from_document(functional)
    assert report.ok
    assert problem_digest(spec_a) == problem_digest(spec_b)


def test_the_readme_problem_example_validates(problems_dir):
    readme = (problems_dir.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Problem files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    spec, report = problem_from_document(json.loads(block))
    assert report.ok, report
    assert (spec.n, spec.horizon) == (2, 2)


def test_digest_changes_with_the_data():
    doc = base_doc()
    spec_a, _ = problem_from_document(doc)
    doc["cost"][0][0][1] = 0.9
    spec_b, _ = problem_from_document(doc)
    assert problem_digest(spec_a) != problem_digest(spec_b)


def _nodes(tree):
    """Everything a tree holds, node by node, with values and beliefs as bytes."""
    return (tree.variant, tree.horizon, tree.roots, [[
        (nd.node_id, nd.t, nd.gamma_index, sorted(nd.children.items()),
         np.float64(nd.value).tobytes(), type(nd.belief), nd.belief.dims,
         nd.belief.weights.tobytes())
        for nd in stage] for stage in tree.stages])


def test_policy_tree_round_trip(solved_seed1):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    assert [[nd["id"] for nd in stage] for stage in doc["stages"]] == \
        [[nd.node_id for nd in stage] for stage in tree.stages]
    assert sum(map(len, tree.stages)) < sum(report.stage_nodes)
    assert _nodes(policy_tree_from_dict(doc, spec)) == _nodes(tree)


@pytest.fixture(scope="module")
def periodic_trees(problems_dir):
    spec, _ = load_problem(str(problems_dir / "periodic_4stage.json"))
    return spec, {"full": solve_finite(spec), "reduced": solve_finite_reduced(spec)}


@pytest.mark.parametrize("variant", ["full", "reduced"])
def test_a_pruned_document_rolls_out_as_the_solver_tree(periodic_trees, variant):
    spec, trees = periodic_trees
    report, tree = trees[variant]
    doc = json.loads(dumps(solve_result_to_dict(spec, report, tree)))
    again = policy_from_document(doc, spec)
    assert _nodes(again) == _nodes(tree)
    assert sum(map(len, tree.stages)) == 34 < sum(report.stage_nodes) == 4369
    a = rollout(spec, tree, seed=5, episodes=400, record=True)
    b = rollout(spec, again, seed=5, episodes=400, record=True)
    assert (a.mean, a.stderr, a.violations) == (b.mean, b.stderr, b.violations)
    assert a.trajectories == b.trajectories


def _unpruned_document(doc):
    """``doc`` with a node no root reaches before each of its nodes.

    Documents written before pruning carried every node the solver
    expanded.  Each added node copies the node after it under a new id,
    so its children are nodes of the next stage and nothing links to it.
    """
    old = copy.deepcopy(doc)
    fresh = 1 + max(nd["id"] for stage in doc["stages"] for nd in stage)
    for stage in old["stages"]:
        stage[:] = [item for nd in stage
                    for item in (dict(copy.deepcopy(nd), id=fresh + nd["id"]), nd)]
    return old


def test_a_document_with_unreachable_nodes_still_loads(solved_seed1):
    spec, report, tree = solved_seed1
    pruned = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    old = _unpruned_document(pruned)
    assert [len(s) for s in old["stages"]] == [2 * len(s) for s in pruned["stages"]]
    # nodes no root reaches are not checked, so a broken belief there loads
    unreachable = old["stages"][1][0]
    unreachable["belief"]["weights"][0] = float("nan")
    loaded = policy_from_document(json.loads(json.dumps(old)), spec)
    # and the loaded tree leaves them out
    assert _nodes(loaded) == _nodes(policy_from_document(pruned, spec)) == _nodes(tree)
    assert unreachable["id"] not in {nd.node_id for stage in loaded.stages
                                     for nd in stage}
    reports = []
    for policy in (tree, loaded):
        rep = rollout(spec, policy, seed=2, episodes=300, record=True)
        reports.append((rep.mean, rep.stderr, rep.violations, rep.trajectories))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("variant", ["full", "reduced"])
@pytest.mark.parametrize("name", ["acceptance_seed1", "delayed_sharing_2x2",
                                  "periodic_4stage", "static_team"])
def test_every_solver_document_passes_the_belief_check(name, variant, problems_dir):
    spec, _ = load_problem(str(problems_dir / f"{name}.json"))
    solve = solve_finite_reduced if variant == "reduced" else solve_finite
    doc = json.loads(dumps(solve_result_to_dict(spec, *solve(spec))))
    assert policy_from_document(doc, spec).variant == variant


@pytest.mark.parametrize("tamper,gap", [
    (lambda w: w.__setitem__(0, float("nan")), "nan"),
    (lambda w: w.__setitem__(0, w[0] + 1e-6), "[0-9.e-]+"),
    (lambda w: w.__setitem__(slice(None), w[::-1]), "[0-9.e-]+"),
], ids=["nan", "nudged", "reversed"])
def test_a_stored_belief_must_be_the_one_its_path_gives(solved_seed1, tamper, gap):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    node = doc["stages"][1][-1]  # every written node is reachable
    tamper(node["belief"]["weights"])
    with pytest.raises(InvalidParameter, match=f"node {node['id']} at t=2: its belief "
                       f"is {gap} away in sup-norm from the one node 0 and message"):
        policy_from_document(doc, spec)


def test_a_child_under_a_message_of_no_mass_is_rejected(solved_seed1):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    root = doc["stages"][0][0]
    # the solver gives a child to every message of positive mass
    z = next(z for z in range(int(np.prod(spec.msg_cards(1))))
             if str(z) not in root["children"])
    root["children"][str(z)] = doc["stages"][1][0]["id"]
    with pytest.raises(InvalidParameter, match=f"node {root['id']} at t=1: message "
                       f"{z} leads to child .* gives it no mass"):
        policy_from_document(doc, spec)


def test_a_belief_within_the_tolerance_loads(solved_seed1):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    for stage in doc["stages"]:
        for node in stage:
            node["belief"]["weights"][0] += serialize.BELIEF_TOL / 4
    policy_from_document(doc, spec)


@pytest.mark.parametrize("variant", ["full", "reduced"])
@pytest.mark.parametrize("stage,tamper", [
    (0, lambda v: float("nan")),
    (0, lambda v: v + 1e-6),
    (1, lambda v: v - 1e-6),
    (1, lambda v: 123.0),
], ids=["root-nan", "root-nudged", "stage-2-nudged", "stage-2-123"])
def test_a_stored_value_must_be_the_one_its_subtree_gives(solved_seed1, variant,
                                                          stage, tamper):
    spec = solved_seed1[0]
    solve = solve_finite_reduced if variant == "reduced" else solve_finite
    doc = json.loads(dumps(policy_tree_to_dict(spec, solve(spec)[1])))
    node = doc["stages"][stage][-1]  # every written node is reachable
    node["value"] = tamper(node["value"])
    with pytest.raises(InvalidParameter, match=f"^node {node['id']} at t={stage + 1}: "
                       "its value is .*; its stage cost and children give "):
        policy_from_document(doc, spec)


@pytest.mark.parametrize("prob", [0.25, float("nan"), 1.0 + 1e-6])
def test_a_root_probability_must_be_the_problems(solved_seed1, prob):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    doc["roots"][0][0] = prob
    with pytest.raises(InvalidParameter, match=f"^root {doc['roots'][0][1]}: its "
                       "probability is .*; the problem's initial law gives 1.0$"):
        policy_from_document(doc, spec)


@pytest.mark.parametrize("tamper,match", [
    (lambda r: r.update(value=-7.0), "report.value is -7.0; the policy's roots give"),
    (lambda r: r.update(value=float("nan")), "report.value is nan"),
    (lambda r: r.update(value=10**400), "report.value must be a number in the range "
     "of floats, got 1000"),
    (lambda r: r.update(value="0.5"), "report.value must be a number .*, got '0.5'"),
    (lambda r: r.update(value=True), "report.value must be a number .*, got True"),
    (lambda r: r.pop("value"), "report.value must be a number .*, got None"),
], ids=["negated", "nan", "huge-int", "string", "boolean", "missing"])
def test_a_solve_result_must_report_its_trees_value(solved_seed1, tamper, match):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(solve_result_to_dict(spec, report, tree)))
    tamper(doc["report"])
    with pytest.raises(InvalidParameter, match=match):
        policy_from_document(doc, spec)


@pytest.mark.parametrize("tamper,match", [
    (lambda d: d["roots"][0].__setitem__(0, "1.0"),
     "a root probability must be a number .*, got '1.0'"),
    (lambda d: d["roots"][0].__setitem__(0, True),
     "a root probability must be a number .*, got True"),
    (lambda d: d["stages"][1][0].update(value=str(d["stages"][1][0]["value"])),
     "node [0-9]+'s value must be a number .*, got '0.[0-9]+'"),
    (lambda d: d["stages"][0][0].update(value=10**400),
     "node 0's value must be a number in the range of floats"),
], ids=["root-string", "root-boolean", "value-string", "value-huge-int"])
def test_stored_numbers_must_be_json_numbers(solved_seed1, tamper, match):
    """A string or boolean once loaded as the number ``float`` reads from it."""
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(policy_tree_to_dict(spec, tree)))
    tamper(doc)
    with pytest.raises(InvalidParameter, match=match):
        policy_from_document(doc, spec)


def test_values_and_root_probabilities_within_the_tolerance_load(solved_seed1):
    spec, report, tree = solved_seed1
    doc = json.loads(dumps(solve_result_to_dict(spec, report, tree)))
    for stage in doc["policy"]["stages"]:
        for node in stage:
            node["value"] += serialize.VALUE_TOL / 4
    doc["policy"]["roots"][0][0] += serialize.BELIEF_TOL / 4
    doc["report"]["value"] -= serialize.VALUE_TOL / 4
    policy_from_document(doc, spec)


def test_the_value_check_scales_with_the_costs():
    # values near 1e9 carry rounding gaps of about 1e-7 in absolute terms
    doc = problem_to_dict(instances.random_delayed_instance(3))
    doc["cost"] = (np.array(doc["cost"]) * 1e9).tolist()
    spec, _ = problem_from_document(doc)
    report, tree = solve_finite(spec)
    assert report.value > 1e8
    solved = json.loads(dumps(solve_result_to_dict(spec, report, tree)))
    assert policy_from_document(solved, spec).roots == tree.roots
    solved["report"]["value"] *= 1 + 1e-8
    with pytest.raises(InvalidParameter, match="report.value is"):
        policy_from_document(solved, spec)


def test_control_strategy_round_trip(solved_seed1):
    spec, report, tree = solved_seed1
    strategy = extract_control_strategy(spec, tree)
    doc = json.loads(dumps(control_strategy_to_dict(spec, strategy)))
    again = control_strategy_from_dict(doc, spec)
    assert abs(exact_cost_of_strategy(spec, again) - report.value) <= 1e-9


def _first_children(doc):
    return doc["stages"][0][0]["children"]


@pytest.mark.parametrize("mangle,match", [
    (lambda d: _first_children(d).update({min(_first_children(d)): 99999}),
     "child 99999 is not a node of stage 2"),
    (lambda d: _first_children(d).update({"99999": 1}),
     "message 99999 is not one of"),
    (lambda d: d["stages"][-1][0]["children"].update({"0": 0}),
     "message 0 is not one of the stage's 0"),
    (lambda d: d.update(roots=[[1.0, 99999]]), "root 99999"),
    (lambda d: d["stages"].pop(), "stages"),
])
@pytest.mark.parametrize("kind", ["policy_tree", "control_strategy"])
def test_policy_links_are_checked(solved_seed1, kind, mangle, match):
    spec, report, tree = solved_seed1
    if kind == "policy_tree":
        doc = policy_tree_to_dict(spec, tree)
    else:
        doc = control_strategy_to_dict(spec, extract_control_strategy(spec, tree))
    doc = json.loads(dumps(doc))
    mangle(doc)
    with pytest.raises(InvalidParameter, match=match):
        policy_from_document(doc, spec)


def test_policy_from_document_checks_the_digest(solved_seed1):
    spec, report, tree = solved_seed1
    doc = solve_result_to_dict(spec, report, tree)
    assert policy_from_document(doc, spec).roots == tree.roots
    other = instances.random_delayed_instance(2)
    with pytest.raises(InvalidParameter, match="different problem"):
        policy_from_document(doc, other)


def test_stationary_policy_document_shape(problems_dir):
    for name in ("discounted_chain", "discounted_constant_beta05",
                 "discounted_constant_beta09"):
        spec, _ = load_problem(str(problems_dir / f"{name}.json"))
        report, policy = solve_discounted(spec, epsilon=1e-3)
        doc = stationary_policy_to_dict(spec, policy)
        assert doc["kind"] == "stationary_policy"
        entries = doc["entries"]
        assert len(entries) == len(policy.entries)
        keys = {e["key"] for e in entries}
        for entry in entries:
            bytes.fromhex(entry["key"])  # keys are hex-encoded belief digests
            for child in entry["children"].values():
                bytes.fromhex(child)
        # the solved graph is closed: every child names an entry
        assert all(child in keys
                   for e in entries for child in e["children"].values())


def test_reports_do_not_carry_runtimes(solved_seed1):
    spec, report, tree = solved_seed1
    text = dumps(solve_result_to_dict(spec, report, tree))
    assert "runtime" not in text
    assert "runtime" not in dumps(value_report_to_dict(report))
    team = instances.static_team()
    basic = enumerate_basic_strategies(team)
    coordinator = enumerate_coordinator_strategies(team)
    assert "runtime" not in dumps(
        enumeration_result_to_dict(team, basic, coordinator))


def test_dumps_is_deterministic_and_strict():
    doc = {"b": 1.0, "a": [3, 2]}
    out = dumps(doc)
    assert out == dumps({"a": [3, 2], "b": 1.0})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')
    for bad in (float("nan"), float("inf"), -float("inf")):
        for doc in (bad, [bad], [1.0, bad], {"x": bad}, {"x": [[0, True], [bad]]},
                    (None, {"y": bad})):
            with pytest.raises(ValueError):
                dumps(doc)
    with pytest.raises(TypeError):
        dumps({"x": [1.0, np.int64(2)]})
    # float subclasses print as floats, as in the standard library
    assert dumps([np.float64(0.1), 1]) == "[\n  0.1,\n  1\n]\n"


@pytest.mark.parametrize("value,ints", [
    (1, True), (True, False), (1.0, False), ([], True), ([[]], True),
    ([1, True], False), ([[0, 1], [1, 0]], True), ([[0, 1], [1, [False]]], False),
    ([[1], True], False), ([[[0]], 2, [[3]]], True), ([[[0]], 2, [[0.5]]], False),
    ([1, "1"], False), ([[1], None], False), ({"a": 1}, False),
])
def test_all_ints_types_every_leaf(value, ints):
    assert serialize._all_ints(value) is ints


def _self_containing_documents():
    direct_dict = {"a": 1}
    direct_dict["self"] = direct_dict
    direct_list = [1]
    direct_list.append(direct_list)
    nested_dict = {}
    nested_dict["a"] = [{"b": [nested_dict]}]
    nested_list = []
    nested_list.append({"x": [0, nested_list]})
    # a shared container rendered twice before the cycle is met
    shared = [[1, 2]]
    after_sharing = {"a": shared, "b": shared, "c": [shared]}
    after_sharing["d"] = {"e": after_sharing}
    return [direct_dict, direct_list, nested_dict, nested_list, after_sharing]


@pytest.mark.parametrize("doc", _self_containing_documents(),
                         ids=["dict", "list", "nested-dict", "nested-list",
                              "after-sharing"])
def test_dumps_rejects_a_document_that_contains_itself(doc):
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        dumps(doc)
    # containing a self-containing container is a cycle too
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        dumps({"outer": [doc]})


@pytest.mark.parametrize("name", PROBLEMS)
def test_command_documents_match_the_standard_library(name, problems_dir):
    """Every kind of document the commands write, on every fixture, reads back as itself.

    ``json.dumps`` writes a key that is not a str as a str, so the
    document read back from the text would differ from the one written.
    """
    spec, report = load_problem(str(problems_dir / f"{name}.json"))
    docs = [validation_report_to_dict(report)]
    if spec is not None and report.ok and spec.mode == "discounted":
        docs.append(solve_result_to_dict(spec, *solve_discounted(spec)))
    elif spec is not None and report.ok:
        full = solve_finite(spec)
        docs += [solve_result_to_dict(spec, *full),
                 solve_result_to_dict(spec, *solve_finite_reduced(spec)),
                 sim_report_to_dict(rollout(spec, full[1], seed=1, episodes=200))]
        if name in ("static_team", "delayed_sharing_2x2"):
            docs.append(enumeration_result_to_dict(
                spec, enumerate_basic_strategies(spec),
                enumerate_coordinator_strategies(spec)))
    for doc in docs:
        assert json.loads(dumps(doc)) == _as_read(doc)


def _as_read(doc):
    """``doc`` as the standard library parses it back: tuples become lists."""
    if isinstance(doc, dict):
        assert all(type(k) is str for k in doc)
        return {k: _as_read(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_read(v) for v in doc]
    return doc


def test_parse_file_propagates_syntax_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{\"n\": 2,,}\n")
    with pytest.raises(json.JSONDecodeError):
        parse_file(str(bad))


@pytest.mark.parametrize("mangle,code,where", [
    (lambda d: d.pop("cost"), "missing-field", "cost"),
    (lambda d: d.update(mode="averaged"), "mode", "mode"),
    (lambda d: d["transition"]["kernel"][0][0].append([0.5]),
     "bad-array", "transition.kernel"),
    (lambda d: d["protocol"].update(preset="broadcast"),
     "unknown-preset", "protocol.preset"),
    (lambda d: d.update(obs=[{"cardinality": 2}]), "bad-type", "obs"),
    (lambda d: d.update(protocol={"preset": "delayed",
                                  "params": {"delays": [1]}}),
     "bad-protocol", "protocol.params"),
])
def test_structural_findings(mangle, code, where):
    doc = base_doc()
    mangle(doc)
    spec, findings = problem_from_dict(doc)
    assert spec is None
    assert any(f.code == code and f.where.startswith(where) for f in findings)


def test_bad_slot_finding():
    doc = base_doc()
    spec, _ = problem_from_dict(doc)
    explicit = problem_to_dict(spec)
    explicit["protocol"]["explicit"]["message_slots"][0][0] = [["state", 1]]
    spec, findings = problem_from_dict(explicit)
    assert spec is None
    assert any(f.code == "bad-slot" for f in findings)


def test_labels_survive_the_round_trip():
    doc = base_doc()
    doc["state"]["labels"] = ["calm", "stormy"]
    spec, report = problem_from_document(doc)
    assert report.ok
    assert spec.state_space.labels == ("calm", "stormy")
    assert problem_to_dict(spec)["state"]["labels"] == ["calm", "stormy"]
