import os
import pathlib
import subprocess
import sys

import pytest

import instances
from cisolver.dp import solve_finite
from cisolver.serialize import load_problem
from cisolver.sim import rollout

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["make_golden.py", "make_fixtures.py", "tree_digest.py",
                                    "rollout_memory.py", "solve_memory.py"])
def test_a_script_imports_the_package_of_its_checkout(script, tmp_path):
    """Each script loads with no ``PYTHONPATH`` and from any directory.

    The script is run under another name than ``__main__``, so ``main()``
    does not run and no file is written.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = ("import runpy, sys; "
             f"runpy.run_path({str(ROOT / 'scripts' / script)!r}, run_name='probe'); "
             "print(sys.modules['cisolver'].__file__)")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert pathlib.Path(done.stdout.strip()) == ROOT / "src" / "cisolver" / "__init__.py"


def test_rollout_memory_prints_one_line_per_count(tmp_path):
    """The script rolls out in a fresh interpreter and reports the rollout's mean."""
    spec, _ = load_problem(str(ROOT / "problems" / "periodic_4stage.json"))
    _, tree = solve_finite(spec)
    report = rollout(spec, tree, seed=0, episodes=1000)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "rollout_memory.py"),
                           "1000", "3"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["1,000 episodes", "3 episodes"]
    assert "peak RSS " in lines[0]
    assert f"mean {report.mean!r}; stderr {report.stderr!r}" in lines[0]


def test_solve_memory_prints_one_line_per_horizon(tmp_path):
    """The script solves each horizon in a fresh interpreter and reports its value."""
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "solve_memory.py"),
                           "2", "3"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["T = 2", "T = 3"]
    for horizon, line in zip((2, 3), lines):
        report, _ = solve_finite(instances.periodic_instance(T=horizon))
        assert "peak RSS " in line
        assert line.endswith(f"; value {report.value!r}")
