"""The three workloads: what each sets up, what it times, what it checks.

Every operation gets a ``ProblemSpec`` loaded for it alone during
set-up, as every ``cis`` command loads its own.  The solver's class
structure and stage layout caches are keyed by the spec object, so a
spec shared between two operations would let the second reuse the work
of the first.

Operations are timed one by one; the checks that follow each operation
run outside its interval and never call the solver on their own.
"""

import functools
import json
import pathlib
import sys
import time

from cisolver import dp, oracle, serialize, sim

import checks
import instances
import reference

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

#: Discount factors of the ``discounted_chain`` solves on ``deep``.
CHAIN_BETAS = (0.9, 0.95, 0.99)
EPSILON = 1e-4
#: Filter-family members solved on ``wide``: control sharing, no sharing.
WIDE_MEMBERS = {"control": 3, "no_sharing": 4}
#: Oracle problems on ``certify``; the generated filter member 0 is added.
ORACLE_FILES = ("delayed_sharing_2x2", "acceptance_seed1", "static_team")


class Context:
    """Loads inputs, times operations and collects checks and counts."""

    def __init__(self, tracer, out_dir: pathlib.Path, seed: int, short: bool):
        self.tracer = tracer
        self.out_dir = out_dir
        self.seed = seed
        self.short = short
        self.ops = []
        self.checks = []
        self.counts = {}

    def span(self, name, tag=None):
        return self.tracer.span(name, tag)

    def load_doc(self, doc):
        with self.span("serialize.load"):
            spec, report = serialize.problem_from_document(doc)
        if spec is None or not report.ok:
            raise ValueError(f"benchmark input does not validate: {report}")
        return spec

    def load(self, name: str):
        with open(PROBLEMS / f"{name}.json", encoding="utf-8") as fh:
            return self.load_doc(json.load(fh))

    def run(self, name: str, fn, *args, **kwargs):
        """Time one operation; a raised exception counts it as failed."""
        error = None
        started = time.perf_counter()
        try:
            with self.tracer.operation(name):
                result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark reports failures, not dies
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
            result = None
            print(f"operation {name} failed: {error}", file=sys.stderr)
        self.ops.append({"name": name, "seconds": time.perf_counter() - started,
                         "error": error})
        return result

    def check(self, name: str, outcome):
        ok, detail = outcome
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def count(self, name: str, n):
        self.counts[name] = self.counts.get(name, 0) + n


def _traced(ctx, name, fn, *args, tag=None, **kwargs):
    with ctx.span(name, tag):
        return fn(*args, **kwargs)


def _solve_and_extract(ctx, spec, solve, document=None):
    report, tree = _traced(ctx, f"dp.{solve.__name__}", solve, spec)
    if document is not None:
        with ctx.span("serialize.solve_doc"):
            text = serialize.dumps(serialize.solve_result_to_dict(spec, report, tree))
            with open(document, "w", encoding="utf-8") as fh:
                fh.write(text)
    strategy = _traced(ctx, "dp.extract_control_strategy",
                       dp.extract_control_strategy, spec, tree)
    return report, tree, strategy


def _check_finite(ctx, label, spec, report, strategy):
    ctx.count("dp.nodes", sum(report.stage_nodes))
    ctx.count("dp.classes", sum(report.expanded_classes))
    lower = reference.full_information_bound(spec)
    upper = reference.open_loop_bound(spec)
    ctx.check(f"{label}: full-information <= value <= open-loop",
              checks.within_bounds(report.value, lower, upper))
    ctx.check(f"{label}: exact cost of the extracted strategy = value",
              checks.agree(oracle.exact_cost_of_strategy(spec, strategy),
                           report.value))


# -- deep ---------------------------------------------------------------------


def deep_setup(ctx):
    finite = "delayed_sharing_2x2" if ctx.short else "periodic_4stage"
    with open(PROBLEMS / "discounted_chain.json", encoding="utf-8") as fh:
        chain = json.load(fh)
    return {
        "finite": {"full": ctx.load(finite), "reduced": ctx.load(finite)},
        "chain": {beta: ctx.load_doc(dict(chain, discount=beta))
                  for beta in CHAIN_BETAS},
    }


def deep_round(ctx, state):
    values = {}
    for variant, solve in (("full", dp.solve_finite),
                           ("reduced", dp.solve_finite_reduced)):
        spec = state["finite"].pop(variant)
        document = ctx.out_dir / f"solve-{variant}.json"
        out = ctx.run(f"solve.{variant}", _solve_and_extract, ctx, spec, solve,
                      document)
        if out is None:
            continue
        report, strategy = out[0], out[2]
        del out  # frees the tree before the next solve
        ctx.count("serialize.solve_doc_bytes", document.stat().st_size)
        ctx.count("serialize.solve_docs", 1)
        document.unlink()
        values[variant] = report.value
        _check_finite(ctx, f"periodic {variant}", spec, report, strategy)
        del spec
    if len(values) == 2:
        ctx.check("full and reduced variants agree",
                  checks.agree(values["full"], values["reduced"]))
    for beta, spec in state["chain"].items():
        out = ctx.run(f"discounted.{beta}", _traced, ctx, "dp.solve_discounted",
                      dp.solve_discounted, spec, epsilon=EPSILON)
        if out is None:
            continue
        ctx.count("dp.discounted_iterations", out[0].iterations)
        ctx.check(f"discounted chain at beta {beta}: within epsilon of the "
                  "exact MDP value",
                  checks.agree(out[0].value,
                               reference.state_revealing_discounted_value(spec),
                               EPSILON))


# -- wide ---------------------------------------------------------------------


def wide_setup(ctx):
    horizon = 2 if ctx.short else 3
    return {name: ctx.load_doc(instances.filter_family_doc(ctx.seed, k, horizon))
            for name, k in WIDE_MEMBERS.items()}


def wide_round(ctx, specs):
    for name in list(specs):
        # popped so that the spec, and the class structures cached for it,
        # are freed before the next member is solved
        spec = specs.pop(name)
        out = ctx.run(f"solve.{name}", _solve_and_extract, ctx, spec,
                      dp.solve_finite)
        if out is not None:
            report, strategy = out[0], out[2]
            del out
            _check_finite(ctx, f"filter {name}", spec, report, strategy)
            del report, strategy
        del spec


# -- certify ------------------------------------------------------------------


def certify_setup(ctx):
    loaders = {name: functools.partial(ctx.load, name) for name in ORACLE_FILES}
    loaders["filter_delayed"] = \
        lambda: ctx.load_doc(instances.filter_family_doc(ctx.seed, 0))
    cases = {}
    for name, load in loaders.items():
        spec = load()
        report, tree, strategy = _solve_and_extract(ctx, spec, dp.solve_finite)
        # the basic oracle's strategy count exceeds its cap on the filter member
        kinds = ("coordinator", "exact") if name == "filter_delayed" else \
            ("basic", "coordinator", "exact")
        cases[name] = {"value": report.value, "tree": tree,
                       "strategy": strategy,
                       "specs": {kind: load() for kind in kinds}}

    policy_problem = "delayed_sharing_2x2" if ctx.short else "periodic_4stage"
    spec = ctx.load(policy_problem)
    document = ctx.out_dir / "policy.json"
    report, _, strategy = _solve_and_extract(ctx, spec, dp.solve_finite, document)
    rollout_specs = ("load", "tree", "strategy", "paired")
    return {
        "cases": cases,
        "policy": {"value": report.value, "strategy": strategy,
                   "document": document,
                   "specs": {k: ctx.load(policy_problem) for k in rollout_specs}},
        "threads": {k: ctx.load("delayed_sharing_2x2") for k in (1, 2)},
    }


def _load_policy(ctx, path, spec):
    with ctx.span("serialize.policy_load"):
        return serialize.policy_from_document(serialize.parse_file(path), spec)


def certify_round(ctx, state):
    for name, case in state["cases"].items():
        specs = case["specs"]
        for kind, enumerate_ in (
                ("basic", oracle.enumerate_basic_strategies),
                ("coordinator", oracle.enumerate_coordinator_strategies)):
            if kind not in specs:
                continue
            rep = ctx.run(f"{kind}.{name}", _traced, ctx,
                          f"oracle.{enumerate_.__name__}", enumerate_,
                          specs[kind])
            if rep is not None:
                ctx.count(f"oracle.{kind}_count", rep.count)
                ctx.check(f"{name}: {kind} oracle minimum = solver value",
                          checks.agree(rep.minimum, case["value"]))
        cost = ctx.run(f"exact_cost.{name}", _traced, ctx,
                       "oracle.exact_cost_of_strategy",
                       oracle.exact_cost_of_strategy, specs["exact"],
                       case["strategy"])
        if cost is not None:
            ctx.check(f"{name}: exact cost of the solver's strategy = value",
                      checks.agree(cost, case["value"]))

    episodes = 20_000 if ctx.short else 1_000_000
    seeds = [ctx.seed * 4 + k for k in range(4)]
    pol = state["policy"]
    specs = pol["specs"]
    tree = ctx.run("policy_load", _load_policy, ctx, pol["document"],
                   specs["load"])
    exact = oracle.exact_cost_of_strategy(specs["load"], pol["strategy"])
    ctx.check("exact cost of the replayed strategy = solver value",
              checks.agree(exact, pol["value"]))
    for label, policy, seed in (("tree", tree, seeds[0]),
                                ("strategy", pol["strategy"], seeds[1])):
        rep = ctx.run(f"rollout.{label}", _traced, ctx, "sim.rollout",
                      sim.rollout, specs[label], policy, seed=seed,
                      episodes=episodes)
        if rep is not None:
            ctx.count("sim.episodes", episodes)
            ctx.check(f"rollout of the {label}: mean within "
                      f"{checks.ROLLOUT_SIGMAS:g} standard errors, no violations",
                      checks.rollout_agrees(rep.mean, rep.stderr, exact,
                                            rep.violations))
    paired = ctx.run("rollout.paired", _traced, ctx, "sim.paired_rollout",
                     sim.paired_rollout, specs["paired"], tree, pol["strategy"],
                     seed=seeds[2], episodes=episodes)
    if paired is not None:
        ctx.check("paired rollout of tree and strategy is identical",
                  checks.paired_identical(paired))

    case = state["cases"]["delayed_sharing_2x2"]
    reports = {}
    for threads, spec in state["threads"].items():
        rep = ctx.run(f"rollout.threads{threads}", _traced, ctx, "sim.rollout",
                      sim.rollout, spec, case["tree"], seed=seeds[3],
                      episodes=episodes, threads=threads,
                      tag=f"threads={threads}")
        if rep is not None:
            ctx.count("sim.episodes", episodes)
            reports[threads] = rep
            ctx.check(f"delayed_sharing_2x2 rollout on {threads} threads: mean "
                      f"within {checks.ROLLOUT_SIGMAS:g} standard errors",
                      checks.rollout_agrees(rep.mean, rep.stderr, case["value"],
                                            rep.violations))
    if len(reports) == 2:
        ctx.check("rollout reports on 1 and 2 threads are equal",
                  checks.reports_equal(reports[1], reports[2]))


WORKLOADS = {
    "deep": (deep_setup, deep_round),
    "wide": (wide_setup, wide_round),
    "certify": (certify_setup, certify_round),
}
