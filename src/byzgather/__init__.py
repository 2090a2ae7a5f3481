"""Deterministic simulator and verification harness for Byzantine-tolerant
mobile-agent gathering on anonymous port-numbered graphs."""

from .exploration import CertResult, ExplorationSequence, build_sequence, certify, exit_port
from .gathering import (
    AgentState,
    GatheringAgent,
    cist_length,
    estimate_f,
    extended_label_bit,
    reliable_gids,
)
from .harness import (
    ScenarioConfig,
    Verdict,
    check,
    load_scenario,
    run_scenario,
    run_suite,
    theorem1_bound,
    theorem2_bound,
)
from .portgraph import GraphFamily, PortGraph, build, generate
from .simcore import TERMINATE, AgentSpec, Engine, ObservationView, PresentedState, Trace
from .simgather import SimGatheringAgent, termination_threshold, trusted_max_id

__version__ = "0.1.0"

__all__ = [
    "CertResult", "ExplorationSequence", "build_sequence", "certify",
    "exit_port", "AgentState", "GatheringAgent", "cist_length",
    "estimate_f", "extended_label_bit", "reliable_gids", "ScenarioConfig",
    "Verdict", "check", "load_scenario", "run_scenario", "run_suite",
    "theorem1_bound", "theorem2_bound", "GraphFamily", "PortGraph", "build",
    "generate", "TERMINATE", "AgentSpec", "Engine",
    "ObservationView", "PresentedState", "Trace", "SimGatheringAgent",
    "termination_threshold", "trusted_max_id",
]
