"""F4 — allreduce algorithm ablation for dense-gradient synchronization.

Paper claim (reconstructed): topology-aware (hierarchical) allreduce beats
both flat ring (latency-bound at scale) and recursive doubling
(bandwidth-bound for large buffers) for the dense-gradient volumes MoDa
synchronizes every step.
"""

import numpy as np

from repro.network import sunway_network, sunway_topology
from repro.network.collectives import (
    cost_hierarchical_allreduce,
    cost_ring_allreduce,
    cost_tree_allreduce,
)
from repro.simmpi import run_spmd
from repro.utils import format_bytes, format_time


def test_f4_analytic_algorithm_sweep(benchmark, report):
    shape = sunway_topology(16384, supernode_size=256).group_shape(list(range(16384)))

    def sweep():
        rows = []
        for nbytes in [1e4, 1e6, 1e8, 2e10]:  # up to 20 GB of fp32 grads
            ring = cost_ring_allreduce(shape, nbytes)
            tree = cost_tree_allreduce(shape, nbytes)
            hier = cost_hierarchical_allreduce(shape, nbytes)
            rows.append(
                {
                    "buffer": format_bytes(nbytes),
                    "ring": format_time(ring),
                    "tree": format_time(tree),
                    "hierarchical": format_time(hier),
                    "best": min(
                        [("ring", ring), ("tree", tree), ("hier", hier)],
                        key=lambda kv: kv[1],
                    )[0],
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f4_algorithms", "F4a: allreduce algorithms at 16,384 nodes", rows)

    # Shape: tree wins tiny buffers; hierarchical wins the gradient-sized
    # buffers MoDa actually synchronizes.
    assert rows[0]["best"] == "tree"
    assert rows[-1]["best"] == "hier"


def test_f4_hierarchical_advantage_vs_scale(benchmark, report):
    """Hierarchical/ring ratio improves with node count (10 MB buffer)."""

    def sweep():
        rows = []
        for n in [512, 2048, 8192, 32768, 96000]:
            shape = sunway_topology(n, supernode_size=256).group_shape(list(range(n)))
            ring = cost_ring_allreduce(shape, 1e7)
            hier = cost_hierarchical_allreduce(shape, 1e7)
            rows.append({"nodes": n, "ring/hier": round(ring / hier, 2)})
        return rows

    rows = benchmark(sweep)
    report("f4_scale", "F4b: hierarchical allreduce advantage vs scale (10 MB)", rows)
    ratios = [r["ring/hier"] for r in rows]
    assert ratios[-1] > ratios[0] > 0.9


def test_f4_measured_simmpi(benchmark, report):
    """Measured through the runtime at 16 ranks, supernode=4."""
    net = sunway_network(16, supernode_size=4)

    def run_once(algorithm):
        def program(comm):
            buf = np.zeros(250_000, dtype=np.float32)  # 1 MB
            for _ in range(3):
                comm.allreduce(buf, algorithm=algorithm)

        return run_spmd(program, 16, network=net).simulated_time

    def measure():
        return [
            {
                "algorithm": algo,
                "time_3_rounds": format_time(run_once(algo)),
                "seconds": run_once(algo),
            }
            for algo in ("ring", "tree", "hierarchical")
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("f4_measured", "F4c: measured allreduce (16 ranks, 1 MB buffer)", rows)
    by = {r["algorithm"]: r["seconds"] for r in rows}
    assert by["hierarchical"] < by["tree"]  # bandwidth-bound at 1 MB
