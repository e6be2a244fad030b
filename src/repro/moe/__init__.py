"""Mixture-of-Experts routing: gates, capacity, dispatch, load balance."""

from repro.moe.balance import LoadStats, load_balance_loss, load_stats, router_z_loss
from repro.moe.capacity import CapacityResult, apply_capacity, expert_capacity
from repro.moe.dispatch import (
    DispatchPlan,
    build_dispatch,
    experts_of_rank,
    inference_keep_mask,
)
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
    "router_z_loss",
    "CapacityResult",
    "apply_capacity",
    "expert_capacity",
    "DispatchPlan",
    "build_dispatch",
    "experts_of_rank",
    "inference_keep_mask",
    "BalancedGate",
    "Gate",
    "GateOutput",
    "NoisyTopKGate",
    "RandomGate",
    "TopKGate",
    "make_gate",
]
