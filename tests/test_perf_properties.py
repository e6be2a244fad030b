"""Property-based tests of the performance model's sanity invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t, tiny_config
from repro.network import sunway_network
from repro.perf import ParallelPlan, StepModel, node_memory, step_flops

CFG = bagualu_14_5t()
MACHINE = sunway_machine(96_000)
NET = sunway_network(96_000)
SM = StepModel(CFG, MACHINE, NET)

micro_batches = st.sampled_from([1, 2, 4, 8, 16])
#: Any machine size up to past the full 96,000 nodes: most draws are not a
#: multiple of 256, so the last supernode is ragged.
node_counts = st.integers(2, 100_000)


def plan(nodes=96_000, mb=1, **kw):
    return ParallelPlan(num_nodes=nodes, ep_size=nodes, micro_batch=mb,
                        seq_len=2048, **kw)


@given(micro_batches)
@settings(max_examples=10, deadline=None)
def test_achieved_never_exceeds_peak(mb):
    achieved = SM.achieved_flops(plan(mb=mb))
    assert achieved <= MACHINE.peak_flops(CFG.dtype)


@given(micro_batches)
@settings(max_examples=10, deadline=None)
def test_step_time_monotone_in_batch(mb):
    t1 = SM.step_time(plan(mb=mb))
    t2 = SM.step_time(plan(mb=mb * 2))
    assert t2 > t1


@given(node_counts, micro_batches)
@settings(max_examples=50, deadline=None)
def test_every_phase_finite_and_step_positive(nodes, mb):
    sm = StepModel(CFG, MACHINE.with_nodes(nodes), sunway_network(nodes))
    p = plan(nodes=nodes, mb=mb, load_imbalance=1.05)
    phases = sm.step_breakdown(p).as_dict()
    assert all(math.isfinite(t) and t >= 0.0 for t in phases.values()), phases
    assert phases["alltoall"] > 0.0 and phases["dense_allreduce"] > 0.0
    assert 0.0 < sm.step_time(p) <= phases["total"]


@given(node_counts, st.floats(min_value=1.0, max_value=2.0**30))
@settings(max_examples=50, deadline=None)
def test_auto_never_costs_more_than_an_explicit_algorithm(nodes, nbytes):
    net = sunway_network(nodes)
    everyone = range(nodes)
    allreduce, alltoall = net.allreduce_time(nbytes, everyone), net.alltoall_time(nbytes, everyone)
    for algo in ("ring", "tree", "hierarchical"):
        assert allreduce <= net.allreduce_time(nbytes, everyone, algo)
    for algo in ("flat", "hierarchical"):
        assert alltoall <= net.alltoall_time(nbytes, everyone, algo)
    sm = StepModel(CFG, MACHINE.with_nodes(nodes), net)
    step = sm.step_time(plan(nodes=nodes))
    for a2a in ("flat", "hierarchical"):
        for ar in ("ring", "tree", "hierarchical"):
            assert step <= sm.step_time(plan(nodes=nodes, alltoall=a2a, allreduce=ar))


@given(st.integers(2, 96_000 // 4))
@settings(max_examples=25, deadline=None)
def test_throughput_monotone_in_nodes(nodes):
    sm = StepModel(CFG, MACHINE.with_nodes(nodes), sunway_network(nodes))
    small = sm.tokens_per_second(plan(nodes=nodes, mb=4))
    bigger = 4 * nodes
    sm2 = StepModel(CFG, MACHINE.with_nodes(bigger), sunway_network(bigger))
    assert sm2.tokens_per_second(plan(nodes=bigger, mb=4)) > small


@given(micro_batches)
@settings(max_examples=10, deadline=None)
def test_efficiency_monotone_in_batch(mb):
    """Bigger micro-batches amortize communication: higher sustained FLOPs."""
    a = SM.achieved_flops(plan(mb=mb))
    b = SM.achieved_flops(plan(mb=mb * 2))
    assert b >= a * 0.999


@given(node_counts)
@settings(max_examples=10, deadline=None)
def test_memory_params_decrease_with_ep(nodes):
    instances = CFG.num_moe_layers * CFG.num_experts
    small_ep = min(nodes // 2 or 1, instances)
    # pick divisors of nodes
    ep_small = 1
    for cand in range(small_ep, 0, -1):
        if nodes % cand == 0 and cand <= instances:
            ep_small = cand
            break
    ep_big = 1
    for cand in range(min(nodes, instances), 0, -1):
        if nodes % cand == 0:
            ep_big = cand
            break
    if ep_big <= ep_small:
        return
    p_small = ParallelPlan(num_nodes=nodes, ep_size=ep_small, micro_batch=1, seq_len=2048)
    p_big = ParallelPlan(num_nodes=nodes, ep_size=ep_big, micro_batch=1, seq_len=2048)
    assert node_memory(CFG, p_big).expert_params <= node_memory(CFG, p_small).expert_params


@given(st.integers(min_value=1, max_value=1_000_000))
@settings(max_examples=20, deadline=None)
def test_step_flops_additive(tokens):
    a = step_flops(CFG, tokens)
    b = step_flops(CFG, tokens * 2)
    assert b == pytest.approx(2 * a, rel=1e-12)


@given(micro_batches, st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=15, deadline=None)
def test_imbalance_monotone(mb, imbalance):
    base = SM.step_time(plan(mb=mb))
    skew = SM.step_time(plan(mb=mb, load_imbalance=imbalance))
    assert skew >= base


def test_tiny_config_plan_sane():
    cfg = tiny_config()
    sm = StepModel(cfg, MACHINE.with_nodes(8), sunway_network(8))
    p = ParallelPlan(num_nodes=8, ep_size=8, micro_batch=1, seq_len=16)
    bd = sm.step_breakdown(p)
    assert bd.total > 0
    assert sm.achieved_flops(p) > 0
