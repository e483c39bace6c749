"""Print the peak memory, time and report of tree rollouts.

Solves ``problems/periodic_4stage.json`` with ``dp.solve_finite`` and
rolls its policy tree out with ``sim.rollout`` (seed 0) for each episode
count given, each in a fresh interpreter, so one rollout's memory does
not carry over to the next.  Per count it prints the process's peak
resident set size (``ru_maxrss``, which includes the interpreter, the
imported package and the solve) before and after the rollout, the
seconds the rollout took and the report's ``mean`` and ``stderr``.  Run
from the repository root:

    python3 scripts/rollout_memory.py 1000000 4000000
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))

from cisolver.dp import solve_finite  # noqa: E402
from cisolver.serialize import load_problem  # noqa: E402
from cisolver.sim import rollout  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def _rollout(episodes: int) -> dict:
    spec, _ = load_problem(str(ROOT / "problems" / "periodic_4stage.json"))
    _, tree = solve_finite(spec)
    before = _peak_rss_mb()
    started = time.perf_counter()
    report = rollout(spec, tree, seed=0, episodes=episodes)
    seconds = time.perf_counter() - started
    return {"peak_rss_mb_before": before, "peak_rss_mb": _peak_rss_mb(),
            "seconds": seconds, "mean": report.mean, "stderr": report.stderr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("episodes", nargs="+", type=int, metavar="EPISODES")
    parser.add_argument("--one", action="store_true",
                        help="roll out the one count given in this process and "
                             "print the result as JSON")
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_rollout(args.episodes[0])))
        return 0
    for episodes in args.episodes:
        done = subprocess.run([sys.executable, __file__, "--one", str(episodes)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{episodes:,} episodes: exit {done.returncode}")
            continue
        got = json.loads(done.stdout)
        print(f"{episodes:,} episodes: peak RSS {got['peak_rss_mb']:,.1f} MB "
              f"({got['peak_rss_mb_before']:,.1f} MB before the rollout); "
              f"{got['seconds']:.3f} s; mean {got['mean']!r}; "
              f"stderr {got['stderr']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
