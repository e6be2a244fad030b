"""F3 — hierarchical vs flat alltoall (the communication contribution).

Paper claim: the supernode-aggregated alltoall beats the flat pairwise
exchange at scale (latency-bound regime) because inter-supernode message
count drops from p-1 to G-1 per node; for very large payloads flat is
competitive (bandwidth-bound regime). This bench sweeps message size and
node count, printing the time ratio, and locates the crossover.
"""

import numpy as np

from repro.network import sunway_topology
from repro.network.collectives import cost_flat_alltoall, cost_hierarchical_alltoall
from repro.simmpi import run_spmd
from repro.network import sunway_network
from repro.utils import format_bytes, format_time


def test_f3_analytic_size_sweep(benchmark, report):
    """Analytic sweep at 4096 nodes over per-pair payload size."""
    shape = sunway_topology(4096, supernode_size=256).group_shape(list(range(4096)))

    def sweep():
        rows = []
        for nbytes in [64, 1024, 16384, 262144, 4194304, 67108864]:
            flat = cost_flat_alltoall(shape, nbytes)
            hier = cost_hierarchical_alltoall(shape, nbytes)
            rows.append(
                {
                    "per_pair": format_bytes(nbytes),
                    "flat": format_time(flat),
                    "hierarchical": format_time(hier),
                    "speedup(flat/hier)": round(flat / hier, 2),
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f3_size_sweep", "F3a: alltoall time vs per-pair size (4096 nodes)", rows)

    # Shape: hierarchical wins for small payloads, flat catches up for huge.
    assert rows[0]["speedup(flat/hier)"] > 2.0
    assert rows[-1]["speedup(flat/hier)"] < 1.1


def test_f3_analytic_node_sweep(benchmark, report):
    """Hierarchical advantage grows with node count (fixed 4 KiB payload)."""

    def sweep():
        rows = []
        for n in [256, 512, 1024, 4096, 16384, 96000]:
            shape = sunway_topology(n, supernode_size=256).group_shape(list(range(n)))
            flat = cost_flat_alltoall(shape, 4096)
            hier = cost_hierarchical_alltoall(shape, 4096)
            rows.append(
                {
                    "nodes": n,
                    "flat": format_time(flat),
                    "hierarchical": format_time(hier),
                    "speedup": round(flat / hier, 2),
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f3_node_sweep", "F3b: alltoall speedup vs node count (4 KiB/pair)", rows)

    speedups = [r["speedup"] for r in rows]
    assert speedups[-1] > speedups[1] > 1.0


def test_f3_measured_simmpi(benchmark, report):
    """Measured through the runtime: real alltoall calls on a 16-rank
    multi-supernode machine, virtual-clock timed."""
    net = sunway_network(16, supernode_size=4)

    def run_once(algorithm, nbytes):
        def program(comm):
            payload = [np.zeros(nbytes // 8, dtype=np.float64) for _ in range(comm.size)]
            for _ in range(3):
                comm.alltoall(payload, algorithm=algorithm)

        return run_spmd(program, 16, network=net).simulated_time

    def measure():
        rows = []
        for nbytes in [512, 8192, 131072]:
            flat = run_once("flat", nbytes)
            hier = run_once("hierarchical", nbytes)
            rows.append(
                {
                    "per_pair": format_bytes(nbytes),
                    "flat": format_time(flat),
                    "hierarchical": format_time(hier),
                    "speedup": round(flat / hier, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("f3_measured", "F3c: measured alltoall (16 ranks, supernode=4)", rows)
    assert rows[0]["speedup"] > 1.0  # small messages: hierarchical wins


def test_f3_measured_nonblocking_overlap(benchmark, report):
    """Measured: the nonblocking alltoall charges only the exposed
    remainder when compute advances between issue and wait (16 ranks)."""
    net = sunway_network(16, supernode_size=4)

    def run_once(compute_s, nonblocking):
        def program(comm):
            payload = [np.zeros(8192 // 8, dtype=np.float64)
                       for _ in range(comm.size)]
            for _ in range(3):
                if nonblocking:
                    req = comm.ialltoall(payload)
                    comm.advance(compute_s)
                    req.wait()
                else:
                    comm.alltoall(payload)
                    comm.advance(compute_s)

        return run_spmd(program, 16, network=net).simulated_time

    def measure():
        rows = []
        for compute_us in (0.0, 50.0, 500.0):
            compute_s = compute_us * 1e-6
            blocking = run_once(compute_s, nonblocking=False)
            overlapped = run_once(compute_s, nonblocking=True)
            rows.append(
                {
                    "compute_per_round": format_time(compute_s),
                    "blocking": format_time(blocking),
                    "nonblocking": format_time(overlapped),
                    "hidden": format_time(blocking - overlapped),
                    "hidden_seconds": blocking - overlapped,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("f3_nonblocking",
           "F3d: nonblocking alltoall overlap (16 ranks, 8 KiB/pair)", rows)
    assert rows[0]["hidden_seconds"] == 0.0  # no compute, nothing to hide
    assert rows[1]["hidden_seconds"] > 0.0
    # More compute hides more comm (until the exchange is fully hidden).
    assert rows[2]["hidden_seconds"] >= rows[1]["hidden_seconds"]
