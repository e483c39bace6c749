"""Benchmark of the cisolver package: one workload, one run.

    python3 perfbench/run.py --workload deep --seed 0 --seconds 20 --trace 0

Run from the repository root.  The run starts fresh worker processes
(``worker.py``) one after another, each setting up and timing one round
of the workload, until ``--seconds`` have passed.  It then prints one
JSON line: ``correct``, ``attempted``, ``failed`` and the metrics, the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("deep", "wide", "certify")
#: After the rounds, extra processes that only set up are started until a
#: run has this many set-up samples or has spent ``SETUP_PROBE_S`` on them.
MIN_SETUPS = 9
SETUP_PROBE_S = 2.0
#: Every run ends within this many seconds of its start.
DEADLINE_S = 170.0
#: Pinned so every round does its work on one thread, as the runs assume.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "serialize.load_s": "s",
    "serialize.solve_doc_s": "s",
    "serialize.solve_doc_mb": "MB",
    "serialize.policy_load_s": "s",
    "dp.full_s": "s",
    "dp.reduced_s": "s",
    "dp.nodes_per_s": "1/s",
    "dp.classes_per_s": "1/s",
    "dp.extract_s": "s",
    "dp.discounted_s": "s",
    "dp.nodes": "count",
    "dp.classes": "count",
    "dp.discounted_iterations": "count",
    "dp.alloc_peak_mb": "MB",
    "oracle.basic_count": "count",
    "oracle.coordinator_count": "count",
    "oracle.basic_s": "s",
    "oracle.coordinator_s": "s",
    "oracle.exact_cost_s": "s",
    "sim.rollout_s": "s",
    "sim.episodes_per_s": "1/s",
    "sim.paired_s": "s",
    "sim.thread_speedup": "ratio",
    "sim.alloc_peak_mb": "MB",
    "trace.overhead": "ratio",
}
#: Counts that must repeat exactly between the rounds of a run.
EXACT_COUNTS = ("dp.nodes", "dp.classes", "dp.discounted_iterations",
                "oracle.basic_count", "oracle.coordinator_count")


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, short, out_dir):
        self.workload, self.seed, self.short = workload, seed, short
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.spawned = 0

    def spawn(self, mode):
        """Run one worker to its end and return its record."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise WorkerFailed("run deadline passed")
        record = self.out_dir / f"worker{self.spawned:02d}-{mode}.json"
        self.spawned += 1
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--record", str(record)]
        if self.short:
            cmd.append("--short")
        env = dict(os.environ, **THREAD_ENV)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                                  cwd=ROOT, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker passed the run deadline") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
        return json.loads(record.read_text(encoding="utf-8"))

    def elapsed(self):
        return time.monotonic() - self.started


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(rec):
    """Per-layer numbers of one traced round."""
    setup, rnd, counts = rec["layers"]["setup"], rec["layers"]["round"], rec["counts"]
    solve_s = rnd.get("dp.solve_finite", 0.0) + rnd.get("dp.solve_finite_reduced", 0.0)
    rollout_s = rnd.get("sim.rollout", 0.0)
    return {
        "cli.import_s": rec["import_s"],
        "serialize.load_s": setup.get("serialize.load", 0.0),
        "serialize.solve_doc_s": rnd.get("serialize.solve_doc", 0.0),
        "serialize.solve_doc_mb": _ratio(counts.get("serialize.solve_doc_bytes", 0),
                                         counts.get("serialize.solve_docs", 0)) / 1e6,
        "serialize.policy_load_s": rnd.get("serialize.policy_load", 0.0),
        "dp.full_s": rnd.get("dp.solve_finite", 0.0),
        "dp.reduced_s": rnd.get("dp.solve_finite_reduced", 0.0),
        "dp.nodes_per_s": _ratio(counts.get("dp.nodes", 0), solve_s),
        "dp.classes_per_s": _ratio(counts.get("dp.classes", 0), solve_s),
        "dp.extract_s": rnd.get("dp.extract_control_strategy", 0.0),
        "dp.discounted_s": rnd.get("dp.solve_discounted", 0.0),
        "oracle.basic_s": rnd.get("oracle.enumerate_basic_strategies", 0.0),
        "oracle.coordinator_s":
            rnd.get("oracle.enumerate_coordinator_strategies", 0.0),
        "oracle.exact_cost_s": rnd.get("oracle.exact_cost_of_strategy", 0.0),
        "sim.rollout_s": rollout_s,
        "sim.episodes_per_s": _ratio(counts.get("sim.episodes", 0), rollout_s),
        "sim.paired_s": rnd.get("sim.paired_rollout", 0.0),
        "sim.thread_speedup": _ratio(rnd.get("sim.rollout:threads=1", 0.0),
                                     rnd.get("sim.rollout:threads=2", 0.0)),
        **{name: counts.get(name, 0) for name in EXACT_COUNTS},
    }


def measure(runner, seconds):
    rounds = []
    while not rounds or runner.elapsed() < seconds:
        rounds.append(runner.spawn("run"))
    probes = []
    probing = time.monotonic()
    while len(rounds) + len(probes) < MIN_SETUPS \
            and time.monotonic() - probing < SETUP_PROBE_S:
        probes.append(runner.spawn("setup"))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds + probes),
        "wall_s": statistics.median(r["round_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return rounds + probes, metrics, True


def measure_traced(runner, seconds):
    """Traced and untraced rounds in turn, then one allocation pass."""
    traced, untraced = [], []
    while not (traced and untraced) or runner.elapsed() < seconds:
        if len(traced) <= len(untraced):
            traced.append(runner.spawn("trace"))
        else:
            untraced.append(runner.spawn("run"))
    alloc = runner.spawn("alloc")

    per_round = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in per_round[0]}
    metrics.update((name, per_round[0][name]) for name in EXACT_COUNTS)
    repeat = all(m[name] == per_round[0][name]
                 for m in per_round for name in EXACT_COUNTS)
    if not repeat:
        print("counts differ between rounds: "
              f"{[{n: m[n] for n in EXACT_COUNTS} for m in per_round]}",
              file=sys.stderr)
    peaks = alloc["alloc_mb"]
    metrics["dp.alloc_peak_mb"] = max(
        [v for k, v in peaks.items() if k.startswith("dp.")], default=0.0)
    metrics["sim.alloc_peak_mb"] = max(
        [v for k, v in peaks.items() if k.startswith("sim.")], default=0.0)
    metrics["trace.overhead"] = _ratio(
        statistics.median(r["round_s"] for r in traced),
        statistics.median(r["round_s"] for r in untraced))
    return traced + untraced + [alloc], metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="sets the generated instances and the rollout "
                             "seeds (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="start rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--short", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "cisolver" / "__init__.py").is_file() \
            or not (ROOT / "problems").is_dir():
        print(f"no cisolver sources under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, args.short, out_dir)
    try:
        if args.trace:
            records, metrics, repeat = measure_traced(runner, args.seconds)
        else:
            records, metrics, repeat = measure(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in records for op in r.get("ops", ())]
    correct = repeat and all(c["ok"] for r in records for c in r.get("checks", ()))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op["error"] is not None for op in ops),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (out_dir / "result.json").write_text(
        json.dumps({"result": result, "records": records}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
