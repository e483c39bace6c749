"""A bounded, deterministic fuzzer for ``cis simulate`` policy documents.

Valid documents for ``delayed_sharing_2x2`` (a solve document and the
coordinator oracle's strategy) are mutated: keys and list items deleted,
values swapped for other types, huge or negative ints and non-finite
numbers, files truncated.  Whatever the mutation, ``cis simulate`` must
end with a documented exit code below 6 and print no traceback.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cisolver.cli as cli
from cisolver import serialize
from cisolver.dp import solve_finite
from cisolver.oracle import enumerate_coordinator_strategies

_NASTY = st.sampled_from([
    None, True, False, 0, 1, -1, 2, 17, -(2**70), 2**70, 2**64, 1.5, -0.0, 1e308,
    float("nan"), float("inf"), float("-inf"), "", "0", "x", [], [0], [[0]],
    [[0, 1], [1]], {}, {"0": 0}, {"x": []},
])


@pytest.fixture(scope="module")
def inputs(problems_dir, tmp_path_factory):
    problem = str(problems_dir / "delayed_sharing_2x2.json")
    spec, _ = serialize.load_problem(problem)
    report, tree = solve_finite(spec)
    strategy = enumerate_coordinator_strategies(spec).strategy
    docs = (serialize.solve_result_to_dict(spec, report, tree),
            serialize.control_strategy_to_dict(spec, strategy))
    # both documents round-trip through JSON text, as files would
    docs = [json.loads(json.dumps(doc)) for doc in docs]
    return problem, docs, tmp_path_factory.mktemp("fuzz")


def _paths(value, path=()):
    """Every position in a JSON value."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def _mutate(data, doc, path):
    """Delete or replace the value at ``path``, if ``doc`` still has one there."""
    if not path:
        return copy.deepcopy(data.draw(_NASTY, label="document"))
    parent = doc
    try:
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return doc  # an earlier mutation removed it
    if not isinstance(parent, (dict, list)):
        return doc  # or replaced its container with a string
    if data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:  # a copy, so later mutations leave the sampled value alone
        parent[path[-1]] = copy.deepcopy(data.draw(_NASTY, label="value"))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_simulate_survives_mutated_policy_documents(inputs, data):
    problem, docs, tmp = inputs
    base = docs[data.draw(st.integers(0, 1), label="base")]
    doc = copy.deepcopy(base)
    paths = st.sampled_from(list(_paths(base)))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        doc = _mutate(data, doc, data.draw(paths, label="path"))
    text = json.dumps(doc)  # NaN and Infinity are written as JS literals
    if data.draw(st.integers(0, 9), label="truncate") == 9:  # about one file in ten
        text = text[:data.draw(st.integers(0, len(text)), label="length")]
    policy = tmp / "policy.json"
    policy.write_text(text)
    argv = ["simulate", problem, str(policy), "--episodes", "40", "--seed", "3"]
    if data.draw(st.booleans(), label="dump"):
        argv += ["--dump-trajectories", str(tmp / "trajectories.jsonl"),
                 "--output", str(tmp / "report.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert 0 <= code <= 5, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
