"""Host memory of a rank: what the Python process holds, by component.

Not a paper experiment and not byte-stable (host numbers): the breakdown
behind ``peak_rss_mb`` of ``bench/run.py``'s training workloads, same model
and batch. One fresh process, ``tracemalloc`` on from before the build, so
every live allocation of the run is counted::

    python benchmarks/host_memory.py --world 1 --ep 1
    python benchmarks/host_memory.py --world 8 --ep 4

Prints the interpreter's RSS after imports, and process-wide traced MB
(all rank threads together) at three points of the last steps: between
steps (parameters, gradients, optimizer state — and whatever else a step
leaves behind), on entering backward (the largest value a rank saw: that
plus one step's activations), and the in-step peak. See EXPERIMENTS.md,
"Host memory of a rank".
"""

import argparse
import resource
import tracemalloc

from repro.hardware import sunway_machine
from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig
from repro.simmpi import run_spmd
from repro.tensor import Tensor

MODEL = dict(n_layers=4, num_experts=8, d_model=64, d_ff=128, top_k=2)
MB = 2.0**20  # as ``peak_rss_mb``


def _program(comm, cfg, machine, steps, entries):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    rows = []
    for step in range(steps):
        comm.barrier()
        if comm.rank == 0:
            entries.clear()
            tracemalloc.reset_peak()
        between = tracemalloc.get_traced_memory()[0]
        comm.barrier()
        trainer.train_step(step)
        comm.barrier()
        rows.append((between, max(entries), tracemalloc.get_traced_memory()[1]))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", type=int, default=1)
    parser.add_argument("--ep", type=int, default=1)
    parser.add_argument("--steps", type=int, default=6)
    args = parser.parse_args()
    # Nothing has been freed yet: the high-water mark is the current size.
    interpreter = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    entries: list[int] = []
    plain = Tensor.backward

    def spy(self, *a, **kw):
        entries.append(tracemalloc.get_traced_memory()[0])
        return plain(self, *a, **kw)

    Tensor.backward = spy
    cfg = TrainingRunConfig(
        model=tiny_config(**MODEL), world_size=args.world, ep_size=args.ep, batch_size=4,
        seq_len=32, mixed_precision=True, overlap_chunks=2, seed=0,
    )
    cfg.resolve_strategy().validate(cfg)
    tracemalloc.start()
    rows = run_spmd(_program, args.world, network=sunway_network(args.world), seed=0,
                    args=(cfg, sunway_machine(num_nodes=args.world), args.steps, entries),
                    ).returns[0]
    between, entry, peak = (v / MB for v in rows[-1])
    print(f"world {args.world} ep {args.ep}, step {args.steps - 1} (MB, whole process)")
    print(f"  interpreter RSS after imports : {interpreter:8.1f}")
    print(f"  traced between steps          : {between:8.1f}")
    print(f"  traced at backward entry      : {entry:8.1f}")
    print(f"  traced in-step peak           : {peak:8.1f}")


if __name__ == "__main__":
    main()
