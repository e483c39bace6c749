import importlib.util
import json
import pathlib

import pytest

import instances
from cisolver.dp import solve_finite

ROOT = pathlib.Path(__file__).resolve().parent.parent

SEEDS = [1, 2, 3, 4, 5]


@pytest.fixture(scope="session")
def problems_dir():
    return ROOT / "problems"


@pytest.fixture(scope="session")
def goldens():
    with open(ROOT / "tests" / "golden" / "goldens.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def seeded_instances():
    return [instances.random_delayed_instance(s) for s in SEEDS]


@pytest.fixture(scope="session")
def solved_seed1():
    spec = instances.random_delayed_instance(1)
    report, tree = solve_finite(spec)
    return spec, report, tree


@pytest.fixture(scope="session")
def filter_family_doc():
    """The benchmark's generator of filter-family problem documents."""
    path = ROOT / "perfbench" / "instances.py"
    loader = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.filter_family_doc
