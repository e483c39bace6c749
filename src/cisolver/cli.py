"""Command line entry points: validate, solve, enumerate, simulate.

All command output is JSON (to ``--output`` or standard output); log
lines go to standard error.  Exit codes separate failure families so
scripts can react: 0 ok, 1 invalid problem or incompatible inputs,
2 JSON parse error, 3 a size cap was hit, 4 the two enumeration oracles
disagree, 5 a simulation audit fired, 6 internal error (a defect in this
package, reported in one line; ``CIS_LOG_LEVEL=DEBUG`` adds the traceback).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

from . import serialize
from .dp import (
    DEFAULT_PRESCRIPTION_CAP,
    solve_discounted,
    solve_finite,
    solve_finite_reduced,
)
from .errors import (
    Infeasible,
    InvalidParameter,
    SizeOverflow,
    SolverError,
    UnreachableInformation,
    ZeroProbabilityObservation,
)
from .oracle import enumerate_basic_strategies, enumerate_coordinator_strategies
from .sim import rollout

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_DISAGREEMENT = 4
EXIT_AUDIT = 5
EXIT_INTERNAL = 6

ORACLE_TOL = 1e-9
DEFAULT_BRANCH_CAP = 10_000_000
VARIANTS = ("full", "reduced")

log = logging.getLogger("cis")


class _BadEnvValue(Exception):
    def __init__(self, name: str, raw: str):
        super().__init__(f"environment override CIS_{name}={raw!r} is not valid")


@dataclass(frozen=True)
class _EnvDefault:
    """A flag's default from ``CIS_<name>``, read only once the flag is parsed.

    argparse fills in only the chosen subcommand's defaults, so an
    override is read, and can fail, only for a command that has its flag
    and was not given it (:func:`_resolve_env`).
    """

    name: str
    cast: object
    fallback: object

    def value(self):
        raw = os.environ.get("CIS_" + self.name)
        if raw is None:
            return self.fallback
        try:
            return self.cast(raw)
        except (TypeError, ValueError):
            raise _BadEnvValue(self.name, raw) from None


def _resolve_env(args: argparse.Namespace) -> argparse.Namespace:
    for key, default in vars(args).items():
        if isinstance(default, _EnvDefault):
            setattr(args, key, default.value())
    return args


def _variant(raw: str) -> str:
    if raw not in VARIANTS:
        raise ValueError(raw)
    return raw


@dataclass
class RunConfig:
    """Checked knobs shared by the commands."""

    command: str
    problem: str
    output: str | None
    episodes: int
    seed: int
    variant: str
    cap_branches: int
    cap_prescriptions: int

    def __post_init__(self):
        if self.episodes < 1:
            raise InvalidParameter(f"episodes must be >= 1, got {self.episodes}")
        if not 0 <= self.seed < 1 << 64:
            raise InvalidParameter(f"seed must be in [0, 2**64), got {self.seed}")


def _config(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        problem=args.problem,
        output=getattr(args, "output", None),
        episodes=getattr(args, "episodes", 1),
        seed=getattr(args, "seed", 0),
        variant=getattr(args, "variant", "full"),
        cap_branches=getattr(args, "cap_branches", DEFAULT_BRANCH_CAP),
        cap_prescriptions=getattr(args, "cap_prescriptions",
                                  DEFAULT_PRESCRIPTION_CAP),
    )


def _emit(doc, output: str | None):
    text = serialize.dumps(doc)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %s", output)
    else:
        sys.stdout.write(text)


def _load_valid_problem(path: str):
    """Load and validate; on failure print findings to stderr and return None."""
    spec, report = serialize.load_problem(path)
    if spec is None or not report.ok:
        for finding in report.findings:
            print(str(finding), file=sys.stderr)
        return None
    return spec


def cmd_validate(cfg: RunConfig) -> int:
    spec, report = serialize.load_problem(cfg.problem)
    _emit(serialize.validation_report_to_dict(report), cfg.output)
    return EXIT_OK if spec is not None and report.ok else EXIT_INVALID


def cmd_solve(cfg: RunConfig) -> int:
    spec = _load_valid_problem(cfg.problem)
    if spec is None:
        return EXIT_INVALID
    if spec.mode == "discounted":
        report, policy = solve_discounted(spec, cap_prescriptions=cfg.cap_prescriptions)
    elif cfg.variant == "reduced":
        report, policy = solve_finite_reduced(
            spec, cap_prescriptions=cfg.cap_prescriptions)
    else:
        report, policy = solve_finite(spec, cap_prescriptions=cfg.cap_prescriptions)
    log.info("solved %s in %.3fs over %s beliefs", cfg.problem, report.runtime_s,
             sum(report.stage_nodes))
    _emit(serialize.solve_result_to_dict(spec, report, policy), cfg.output)
    value_line = f"{report.value:.12g}"
    if cfg.output:
        print(value_line)
    else:
        # standard output already carries the JSON document
        print(value_line, file=sys.stderr)
    return EXIT_OK


def cmd_enumerate(cfg: RunConfig) -> int:
    spec = _load_valid_problem(cfg.problem)
    if spec is None:
        return EXIT_INVALID
    basic = enumerate_basic_strategies(spec, cap_strategies=cfg.cap_branches)
    coordinator = enumerate_coordinator_strategies(
        spec, cap_evaluations=cfg.cap_prescriptions)
    gap = abs(basic.minimum - coordinator.minimum)
    log.info("basic %d strategies (min %.12g), coordinator %d evaluations "
             "(min %.12g)", basic.count, basic.minimum, coordinator.count,
             coordinator.minimum)
    _emit(serialize.enumeration_result_to_dict(spec, basic, coordinator),
          cfg.output)
    if gap > ORACLE_TOL:
        print(f"enumeration minima disagree by {gap:.3e} "
              f"(basic {basic.minimum!r}, coordinator {coordinator.minimum!r})",
              file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, policy_path: str,
                 trajectory_path: str | None) -> int:
    spec = _load_valid_problem(cfg.problem)
    if spec is None:
        return EXIT_INVALID
    policy_doc = serialize.parse_file(policy_path)
    policy = serialize.policy_from_document(policy_doc, spec)
    report = rollout(spec, policy, seed=cfg.seed, episodes=cfg.episodes,
                     record=trajectory_path is not None)
    if trajectory_path is not None:
        with open(trajectory_path, "w", encoding="utf-8") as fh:
            for tr in report.trajectories:
                fh.write(json.dumps(serialize.trajectory_to_dict(tr),
                                    sort_keys=True, allow_nan=False))
                fh.write("\n")
        log.info("wrote %d trajectories to %s", report.episodes, trajectory_path)
    _emit(serialize.sim_report_to_dict(report), cfg.output)
    if report.violations:
        print(f"audit: {report.violations} zero-probability message events",
              file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cis",
        description="Exact solver and verification tools for decentralized "
                    "control problems with shared memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--output", default=_EnvDefault("OUTPUT", str, None),
                       help="write the JSON result here instead of stdout")

    p_val = sub.add_parser("validate", help="check every problem invariant")
    common(p_val)

    p_solve = sub.add_parser("solve", help="exact dynamic program")
    common(p_solve)
    p_solve.add_argument("--variant", choices=VARIANTS,
                         default=_EnvDefault("VARIANT", _variant, "full"),
                         help="belief state: full (x, y, m) or reduced (x, m)")
    p_solve.add_argument("--cap-prescriptions", type=int,
                         default=_EnvDefault("CAP_PRESCRIPTIONS", int,
                                             DEFAULT_PRESCRIPTION_CAP),
                         help="abort if one belief needs more prescription "
                              "classes than this")

    p_enum = sub.add_parser("enumerate",
                            help="brute-force both strategy spaces and "
                                 "compare their minima")
    common(p_enum)
    p_enum.add_argument("--cap-branches", type=int,
                        default=_EnvDefault("CAP_BRANCHES", int,
                                            DEFAULT_BRANCH_CAP),
                        help="abort past this many basic strategies")
    p_enum.add_argument("--cap-prescriptions", type=int,
                        default=_EnvDefault("CAP_PRESCRIPTIONS", int,
                                            DEFAULT_BRANCH_CAP),
                        help="abort past this many prescription evaluations")

    p_sim = sub.add_parser("simulate", help="Monte Carlo rollout of a policy")
    common(p_sim)
    p_sim.add_argument("policy", help="policy JSON written by solve or enumerate")
    p_sim.add_argument("--episodes", type=int,
                       default=_EnvDefault("EPISODES", int, 1000))
    p_sim.add_argument("--seed", type=int, default=_EnvDefault("SEED", int, 0))
    p_sim.add_argument("--dump-trajectories", metavar="PATH",
                       default=_EnvDefault("DUMP_TRAJECTORIES", str, None),
                       help="also write one JSON trajectory per line here")
    return parser


def _log_level() -> str:
    """``CIS_LOG_LEVEL``, which must name a ``logging`` level, such as ``DEBUG``."""
    raw = os.environ.get("CIS_LOG_LEVEL", "INFO")
    if not isinstance(logging.getLevelName(raw), int):
        raise _BadEnvValue("LOG_LEVEL", raw)
    return raw


def main(argv=None) -> int:
    try:
        logging.basicConfig(stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s",
                            level=_log_level())
        args = _resolve_env(build_parser().parse_args(argv))
    except _BadEnvValue as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE

    try:
        cfg = _config(args)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "enumerate":
            return cmd_enumerate(cfg)
        return cmd_simulate(cfg, args.policy, args.dump_trajectories)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SizeOverflow, Infeasible) as exc:
        # the message carries the computed size that broke the cap
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ZeroProbabilityObservation, UnreachableInformation) as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except SolverError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # keep the exit status apart from the codes above
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
