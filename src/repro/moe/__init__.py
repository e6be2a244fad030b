"""Mixture-of-Experts routing: gates, dispatch with capacity, load balance."""

from repro.moe.balance import LoadStats, load_balance_loss, load_stats
from repro.moe.dispatch import DispatchPlan, build_dispatch, expert_capacity, experts_of_rank
from repro.moe.gates import (
    BalancedGate,
    Gate,
    GateOutput,
    NoisyTopKGate,
    RandomGate,
    TopKGate,
    make_gate,
)

__all__ = [
    "LoadStats",
    "load_balance_loss",
    "load_stats",
    "DispatchPlan",
    "build_dispatch",
    "expert_capacity",
    "experts_of_rank",
    "BalancedGate",
    "Gate",
    "GateOutput",
    "NoisyTopKGate",
    "RandomGate",
    "TopKGate",
    "make_gate",
]
