"""Print the beliefs per stage, time and peak memory of finite solves.

Solves ``periodic_instance(T=T)`` from ``tests/instances.py`` with
``dp.solve_finite`` for each horizon ``T`` given, each in a fresh
interpreter, so one solve's memory does not carry over to the next.  Per
``T`` it prints the number of beliefs at each stage, the seconds the
solve took, the process's peak resident set size (``ru_maxrss``, which
includes the interpreter and the imported package) and the value.  Run
from the repository root:

    python3 scripts/solve_memory.py 4 5 6
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
sys.path.insert(1, str(ROOT / "tests"))

from cisolver.dp import solve_finite  # noqa: E402

import instances  # noqa: E402


def _solve(horizon: int) -> dict:
    spec = instances.periodic_instance(T=horizon)
    started = time.perf_counter()
    report, _ = solve_finite(spec)
    seconds = time.perf_counter() - started
    return {"stage_nodes": report.stage_nodes, "seconds": seconds,
            # kilobytes on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "value": report.value}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("horizons", nargs="+", type=int, metavar="T")
    parser.add_argument("--one", action="store_true",
                        help="solve the one horizon given in this process and "
                             "print the result as JSON")
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(_solve(args.horizons[0])))
        return 0
    for horizon in args.horizons:
        done = subprocess.run([sys.executable, __file__, "--one", str(horizon)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"T = {horizon}: exit {done.returncode}")
            continue
        got = json.loads(done.stdout)
        nodes = ", ".join(f"{n:,}" for n in got["stage_nodes"])
        print(f"T = {horizon}: beliefs per stage {nodes}; {got['seconds']:.2f} s; "
              f"peak RSS {got['peak_rss_mb']:,.0f} MB; value {got['value']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
