"""Fold parent and change benchmark runs into one BENCH_<pr>.json document.

Each side is a ``perfbench/out`` directory holding one
``<workload>-seed<N>-trace<0|1>/result.json`` per run, as
``perfbench/run.py`` writes them.  Runs of the two sides with the same
workload, seed and trace setting form a pair.  For every workload and
setting the document gives, per metric, each side's median, quartiles and
IQR (``numpy.percentile``, linear interpolation), the same statistics of
the per-pair differences ``change - parent`` (so drift of the machine
between pairs does not count as spread), and the number of pairs in
which the change reads better, plus the attempted, failed and correct
counts and the seeds.  Run from the repository root:

    python3 scripts/fold_bench.py PARENT/perfbench/out CHANGE/perfbench/out \\
        --title "what changed" --output BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_DIR = re.compile(r"(?P<workload>[a-z_]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])")
SECTIONS = {0: "end_to_end", 1: "traced"}
SIDES = ("parent", "change")
#: How the runs are made, recorded when ``--command`` is not given.
COMMAND = ("python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0|1, "
           "parent and change from two clean checkouts, alternating which side "
           "runs first in each pair")


def _runs(out_dir: pathlib.Path) -> dict:
    """``{(workload, trace, seed): result}`` for every finished run in ``out_dir``."""
    runs = {}
    for path in sorted(out_dir.glob("*/result.json")):
        match = RUN_DIR.fullmatch(path.parent.name)
        if match is None:
            continue
        key = (match["workload"], int(match["trace"]), int(match["seed"]))
        runs[key] = json.loads(path.read_text(encoding="utf-8"))["result"]
    return runs


def _directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _stats(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"iqr": q3 - q1, "median": median, "n": len(values), "q1": q1, "q3": q3}


def _wins(parent: list[float], change: list[float], better: str) -> int:
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def fold(parent_dir, change_dir, title: str, command: str, note: str) -> dict:
    """The BENCH document for the runs paired between the two directories."""
    sides = {"parent": _runs(pathlib.Path(parent_dir)),
             "change": _runs(pathlib.Path(change_dir))}
    paired = sorted(sides["parent"].keys() & sides["change"].keys())
    for side, runs in sides.items():
        for key in sorted(runs.keys() - set(paired)):
            print(f"{side} run {key} has no partner; left out", file=sys.stderr)
    better = _directions()
    groups: dict = {}
    for workload, trace, seed in paired:
        groups.setdefault((workload, trace), []).append(seed)

    workloads: dict = {}
    for (workload, trace), seeds in sorted(groups.items()):
        results = {side: [sides[side][(workload, trace, s)] for s in seeds]
                   for side in SIDES}
        metrics = {}
        for name, entry in results["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in results[side]]
                      for side in SIDES}
            metrics[name] = {
                "better": better[name],
                "unit": entry["unit"],
                "pairs_won_by_change": _wins(values["parent"], values["change"],
                                             better[name]),
                "change_minus_parent": _stats([c - p for p, c in
                                               zip(values["parent"], values["change"])]),
                **{side: _stats(values[side]) for side in SIDES},
            }
        workloads.setdefault(workload, {})[SECTIONS[trace]] = {
            "attempted": {side: sum(r["attempted"] for r in results[side])
                          for side in SIDES},
            "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in results[side])
                        for side in SIDES},
            "metrics": metrics,
            "pairs": len(seeds),
            "seeds": seeds,
        }
    return {
        "command": command,
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(), "note": note,
                    "numpy": np.__version__, "python": platform.python_version()},
        "quartiles": "numpy.percentile, linear interpolation",
        "title": title,
        "workloads": workloads,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="perfbench/out directory of the parent commit")
    parser.add_argument("change", help="perfbench/out directory of the change")
    parser.add_argument("--title", required=True)
    parser.add_argument("--command", default=COMMAND,
                        help="how the runs were made (default: %(default)s)")
    parser.add_argument("--note", default="", help="what to know about the machine")
    parser.add_argument("--output", help="write here instead of stdout")
    args = parser.parse_args(argv)
    doc = fold(args.parent, args.change, args.title, args.command, args.note)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
