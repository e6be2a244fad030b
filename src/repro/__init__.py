"""repro: a laptop-scale reproduction of BaGuaLu (PPoPP'22).

BaGuaLu trains brain-scale Mixture-of-Experts pretrained models on the New
Generation Sunway supercomputer. This package reproduces the system in pure
Python over a simulated substrate:

* :mod:`repro.simmpi` — thread-per-rank simulated MPI with virtual clocks;
* :mod:`repro.network` — hierarchical topology + collective cost models;
* :mod:`repro.hardware` — SW26010-Pro-like machine specs;
* :mod:`repro.tensor` — NumPy autograd with fp16/bf16 emulation;
* :mod:`repro.models` — transformer/MoE model zoo with brain-scale configs;
* :mod:`repro.moe` — gating, capacity, dispatch/combine, load balancing;
* :mod:`repro.parallel` — MoDa hybrid data x expert parallelism + baselines;
* :mod:`repro.amp` — mixed precision (master weights, dynamic loss scaling);
* :mod:`repro.train` — optimizers, schedules, single-process trainer;
* :mod:`repro.data` — synthetic Zipf corpus and sharded dataloaders;
* :mod:`repro.perf` — analytic per-step time/FLOPS model up to 37 M cores;
* :mod:`repro.resilience` — stochastic fault models, a recovery
  supervisor with backoff, and elastic shrink-and-reshard restarts;
* :mod:`repro.serve` — KV-cached continuous-batching inference on EP ranks.

The *supported* public surface is the curated facade :mod:`repro.api`;
import entry points from there.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.2.0"

__all__ = ["__version__"]
