"""Delay-coupled pulse oscillator networks: simulation and analysis.

Layers, bottom up:

    curves    state curve f, its inverse, the pulse jump map, parameter checks
    engine    deterministic event-driven network simulator
    analysis  synchrony verdicts, clusters, audits, the two-clique return map
    config    JSON run configurations
    cli       command-line front end (also exposed as `python -m pcodelay`)

The per-event inner loop is one grouped kernel (_kernel.step_once): oscillators
of equal phase form groups in an affine frame, so an event costs O(groups
touched), not O(n).
"""

from .analysis import (
    AuditReport,
    ClusterPartition,
    DesyncSummary,
    InfeasibleScenarioError,
    StroboscopicFrame,
    StructuralError,
    SyncVerdict,
    TwoCliqueState,
    audit_run,
    cluster_partition,
    desync_trial,
    is_completely_synchronized,
    iterate_return_map,
    large_gap_branch,
    matched_phase_pair,
    phase_spread,
    small_gap_branch,
    stable_cluster_count,
    stroboscopic_run,
    two_clique_map,
    two_clique_oracle_step,
)
from .config import (
    ConfigError,
    ExplicitInit,
    OutputSpec,
    ReturnMapSpec,
    RunConfig,
    StrobeSpec,
    UniformInit,
    load_config,
    parse_config,
)
from .curves import (
    AssumptionReport,
    CouplingParams,
    CurveSpec,
    curve_slope,
    f_eval,
    f_inv,
    jump,
    validate_assumptions,
)
from .engine import ModelParams, NetworkState, PendingSpike, StepReport
from .rng import SplitMix64, sample_phases

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AuditReport",
    "ClusterPartition",
    "ConfigError",
    "CouplingParams",
    "CurveSpec",
    "DesyncSummary",
    "ExplicitInit",
    "InfeasibleScenarioError",
    "ModelParams",
    "NetworkState",
    "OutputSpec",
    "PendingSpike",
    "ReturnMapSpec",
    "RunConfig",
    "SplitMix64",
    "StepReport",
    "StrobeSpec",
    "StroboscopicFrame",
    "StructuralError",
    "SyncVerdict",
    "TwoCliqueState",
    "UniformInit",
    "audit_run",
    "cluster_partition",
    "curve_slope",
    "desync_trial",
    "f_eval",
    "f_inv",
    "is_completely_synchronized",
    "iterate_return_map",
    "jump",
    "large_gap_branch",
    "load_config",
    "matched_phase_pair",
    "parse_config",
    "phase_spread",
    "sample_phases",
    "small_gap_branch",
    "stable_cluster_count",
    "stroboscopic_run",
    "two_clique_map",
    "two_clique_oracle_step",
    "validate_assumptions",
    "__version__",
]
