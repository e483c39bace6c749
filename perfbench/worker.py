"""One fresh process of a benchmark run: set up, then one round.

``run.py`` starts it with the monotonic time at which it spawned the
process, so set-up time covers interpreter start and import as well.
Modes:

* ``setup``: set up and exit (an extra set-up time sample);
* ``run``: set up and time one round, untraced;
* ``trace``: the same round with a span around every call into a layer;
* ``alloc``: the same round under ``tracemalloc``, for allocation peaks.

The record (times, operations, checks, counts) is written as JSON to
``--record``; in ``trace`` mode the spans go to ``--record`` with the
suffix ``.trace.json``.
"""

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "alloc"),
                        required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--record", type=pathlib.Path, required=True)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import cisolver.cli  # noqa: F401  (the whole package, as `cis` loads it)
    imported = time.monotonic()

    import spans
    import workloads

    if args.mode == "trace":
        tracer = spans.SpanTracer()
    elif args.mode == "alloc":
        tracer = spans.AllocTracer()
    else:
        tracer = spans.NullTracer()
    ctx = workloads.Context(tracer, args.record.parent, args.seed, args.short)
    setup, run_round = workloads.WORKLOADS[args.workload]
    state = setup(ctx)
    set_up = time.monotonic()

    record = {"mode": args.mode, "import_s": imported - args.spawned,
              "setup_s": set_up - args.spawned}
    if args.mode != "setup":
        if args.mode == "alloc":
            import tracemalloc
            tracemalloc.start()
        if args.mode == "trace":
            tracer.phase = "round"
        run_round(ctx, state)
        record.update(ops=ctx.ops, checks=ctx.checks, counts=ctx.counts,
                      round_s=sum(op["seconds"] for op in ctx.ops))
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if args.mode == "trace":
        record["layers"] = {phase: tracer.totals(phase)
                            for phase in ("setup", "round")}
        spans_path = args.record.with_suffix(".trace.json")
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    elif args.mode == "alloc":
        record["alloc_mb"] = {name: peak / 1e6
                              for name, peak in tracer.peaks.items()}
    args.record.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
