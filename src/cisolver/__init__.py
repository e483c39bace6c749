"""Exact solving and verification for finite decentralized control
problems with partial information sharing.

The package reformulates an n-controller problem with a shared,
append-only memory as a centralized partially observed problem faced by
a fictitious coordinator, solves that problem exactly by dynamic
programming over reachable beliefs, translates the result back into
per-controller strategies, and certifies optimality against brute-force
enumeration and Monte Carlo simulation.
"""

from .errors import (
    Infeasible,
    InvalidDistribution,
    InvalidParameter,
    MissingEntry,
    SizeOverflow,
    SolverError,
    UnreachableInformation,
    ZeroProbabilityObservation,
)
from .model import (
    FiniteSpace,
    InitialCommonObs,
    NoiseModel,
    ProblemSpec,
    SharingProtocol,
    Slot,
    ValidationFinding,
    ValidationReport,
    build_kernel_from_functional,
    flatten_action,
    unflatten_action,
    validate_problem,
)
from .protocols import (
    control_sharing_protocol,
    delayed_sharing_protocol,
    no_sharing_protocol,
    periodic_sharing_protocol,
)
from .coordinator import (
    Belief,
    JointPrescription,
    ReducedBelief,
    chi,
    eta_update,
    initial_belief,
    zeta,
)
from .dp import (
    PolicyTree,
    StationaryPolicy,
    ValueReport,
    extract_control_strategy,
    solve_discounted,
    solve_finite,
    solve_finite_reduced,
)
from .model import ControlStrategy
from .oracle import (
    EnumerationReport,
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
    exact_cost_of_strategy,
)
from .sim import PairedReport, SimReport, Trajectory, paired_rollout, rollout
from .serialize import (
    load_problem,
    problem_digest,
    problem_from_document,
    problem_to_dict,
)

__all__ = [
    "FiniteSpace",
    "InitialCommonObs",
    "NoiseModel",
    "ProblemSpec",
    "SharingProtocol",
    "Slot",
    "ValidationFinding",
    "ValidationReport",
    "build_kernel_from_functional",
    "flatten_action",
    "unflatten_action",
    "validate_problem",
    "control_sharing_protocol",
    "delayed_sharing_protocol",
    "no_sharing_protocol",
    "periodic_sharing_protocol",
    "SolverError",
    "InvalidParameter",
    "InvalidDistribution",
    "MissingEntry",
    "SizeOverflow",
    "Infeasible",
    "ZeroProbabilityObservation",
    "UnreachableInformation",
    "Belief",
    "JointPrescription",
    "ReducedBelief",
    "chi",
    "eta_update",
    "initial_belief",
    "zeta",
    "PolicyTree",
    "StationaryPolicy",
    "ValueReport",
    "ControlStrategy",
    "extract_control_strategy",
    "solve_finite",
    "solve_finite_reduced",
    "solve_discounted",
    "EnumerationReport",
    "enumerate_basic_strategies",
    "enumerate_coordinator_strategies",
    "exact_cost_of_strategy",
    "PairedReport",
    "SimReport",
    "Trajectory",
    "paired_rollout",
    "rollout",
    "load_problem",
    "problem_digest",
    "problem_from_document",
    "problem_to_dict",
]
