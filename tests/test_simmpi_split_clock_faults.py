"""Communicator splitting, virtual clocks, and fault injection."""

import numpy as np
import pytest

from repro.errors import DeadlockError, FaultInjected
from repro.network import LinkSpec, Level, NetworkModel, Topology, flat_network, sunway_network
from repro.simmpi import FaultPlan, MessageFault, run_spmd


class TestSplit:
    def test_split_even_odd(self):
        def program(comm):
            sub = comm.Split(color=comm.rank % 2)
            return (sub.rank, sub.size, sub.allreduce(comm.rank))

        res = run_spmd(program, 6)
        # Even ranks 0,2,4 -> sum 6; odd 1,3,5 -> sum 9.
        assert res.returns[0] == (0, 3, 6)
        assert res.returns[1] == (0, 3, 9)
        assert res.returns[4] == (2, 3, 6)

    def test_split_with_key_reorders(self):
        def program(comm):
            sub = comm.Split(color=0, key=-comm.rank)  # reversed order
            return sub.rank

        res = run_spmd(program, 4)
        assert res.returns == [3, 2, 1, 0]

    def test_split_opt_out_with_none(self):
        def program(comm):
            sub = comm.Split(color=0 if comm.rank < 2 else None)
            if sub is None:
                return "out"
            return sub.size

        res = run_spmd(program, 4)
        assert res.returns == [2, 2, "out", "out"]

    def test_nested_split(self):
        def program(comm):
            half = comm.Split(color=comm.rank // 4)
            quarter = half.Split(color=half.rank // 2)
            return (half.size, quarter.size, quarter.allreduce(comm.rank))

        res = run_spmd(program, 8)
        assert res.returns[0] == (4, 2, 0 + 1)
        assert res.returns[7] == (4, 2, 6 + 7)

    def test_subcomm_p2p_uses_group_ranks(self):
        def program(comm):
            sub = comm.Split(color=comm.rank % 2)
            if sub.size == 3:
                if sub.rank == 0:
                    sub.send("hi", dest=2)
                elif sub.rank == 2:
                    return sub.recv(source=0)
            return None

        res = run_spmd(program, 6)
        assert res.returns[4] == "hi"  # world rank 4 = even-group rank 2

    def test_dup_gives_independent_stream(self):
        def program(comm):
            dup = comm.Dup()
            a = comm.allreduce(1)
            b = dup.allreduce(2)
            return (a, b)

        res = run_spmd(program, 3)
        assert res.returns == [(3, 6)] * 3

    def test_world_rank_mapping(self):
        def program(comm):
            sub = comm.Split(color=comm.rank // 2)
            return (sub.world_rank, tuple(sub.members))

        res = run_spmd(program, 4)
        assert res.returns[3] == (3, (2, 3))


class TestVirtualClock:
    def test_no_network_no_time(self):
        def program(comm):
            comm.allreduce(np.zeros(1000))
            comm.barrier()

        res = run_spmd(program, 4)
        assert res.simulated_time == 0.0

    def test_advance_accumulates(self):
        def program(comm):
            comm.advance(1.5)
            comm.advance(0.5)
            return comm.clock

        res = run_spmd(program, 2)
        assert res.returns == [2.0, 2.0]
        assert res.simulated_time == 2.0

    def test_collective_synchronizes_clocks(self):
        def program(comm):
            comm.advance(float(comm.rank))  # rank 3 is slowest
            comm.barrier()
            return comm.clock

        res = run_spmd(program, 4, network=flat_network(4))
        assert all(c >= 3.0 for c in res.returns)

    def test_bigger_payload_takes_longer(self):
        def make(n):
            def program(comm):
                comm.allreduce(np.zeros(n, dtype=np.float32))

            return program

        small = run_spmd(make(100), 4, network=flat_network(4)).simulated_time
        big = run_spmd(make(1_000_000), 4, network=flat_network(4)).simulated_time
        assert big > small > 0

    def test_p2p_transit_time(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1_000_000, dtype=np.float64), dest=1)
                return comm.clock
            comm.recv(source=0)
            return comm.clock

        link = LinkSpec(latency=2.0e-6, bandwidth=1e9)
        net = NetworkModel(topology=Topology([Level("node", 2, link)]))
        res = run_spmd(program, 2, network=net)
        # 8 MB at 1 GB/s = 8 ms transit, receiver waits for it.
        assert res.returns[1] >= 8e-3
        assert res.returns[0] < res.returns[1]

    def test_forced_algorithms_change_time_not_result(self):
        def make(algorithm):
            def program(comm):
                return comm.allreduce(np.ones(4096, dtype=np.float32), algorithm=algorithm), comm.clock

            return program

        net = sunway_network(8)
        ring = run_spmd(make("ring"), 8, network=net)
        tree = run_spmd(make("tree"), 8, network=net)
        assert np.allclose(ring.returns[0][0], tree.returns[0][0])
        assert ring.simulated_time != tree.simulated_time

    def test_traffic_stats_counted(self):
        def program(comm):
            comm.allreduce(np.zeros(10, dtype=np.float64))
            if comm.rank == 0:
                comm.send(b"xxxx", dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)

        res = run_spmd(program, 2, network=flat_network(2))
        s = res.stats
        assert s.collective_calls["allreduce"] == 1
        assert s.p2p_messages == 1
        assert s.p2p_bytes == 4
        assert s.total_bytes > 0


class TestFaults:
    def test_dropped_message_deadlocks_receiver(self):
        plan = FaultPlan().add_message_fault(MessageFault(src=0, dst=1, drop=True))

        def program(comm):
            if comm.rank == 0:
                comm.send("lost", dest=1)
            else:
                comm.recv(source=0)

        with pytest.raises(DeadlockError):
            run_spmd(program, 2, timeout=1.0, faults=plan)
        assert plan is not None

    def test_drop_counted_in_stats(self):
        plan = FaultPlan().add_message_fault(MessageFault(src=0, dst=1, drop=True))

        def program(comm):
            if comm.rank == 0:
                comm.send("lost", dest=1)
            comm.barrier()

        res = run_spmd(program, 2, faults=plan)
        assert res.stats.dropped_messages == 1

    def test_delayed_message_arrives_late(self):
        plan = FaultPlan().add_message_fault(MessageFault(src=0, dst=1, delay=5.0))

        def program(comm):
            if comm.rank == 0:
                comm.send("slow", dest=1)
                return None
            comm.recv(source=0)
            return comm.clock

        res = run_spmd(program, 2, network=flat_network(2), faults=plan)
        assert res.returns[1] >= 5.0

    def test_second_message_unaffected(self):
        plan = FaultPlan().add_message_fault(
            MessageFault(src=0, dst=1, match_index=0, drop=True)
        )

        def program(comm):
            if comm.rank == 0:
                comm.send("lost", dest=1, tag=1)
                comm.send("kept", dest=1, tag=2)
                return None
            return comm.recv(source=0, tag=2)

        res = run_spmd(program, 2, faults=plan)
        assert res.returns[1] == "kept"

    def test_kill_rank_raises_fault(self):
        plan = FaultPlan().kill_rank(1, at_op=0)

        def program(comm):
            comm.barrier()

        with pytest.raises(FaultInjected):
            run_spmd(program, 2, faults=plan)

    def test_kill_after_n_ops(self):
        plan = FaultPlan().kill_rank(0, at_op=2)

        def program(comm):
            comm.barrier()  # op 0
            comm.barrier()  # op 1
            comm.barrier()  # op 2 -> rank 0 dies here

        with pytest.raises(FaultInjected):
            run_spmd(program, 2, faults=plan)
