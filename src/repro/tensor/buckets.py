"""Buckets: the runs of tensors that the update block treats as one flat array.

Adam, the overflow check, the gradient norm and the flat-vector unflatten
each do a few NumPy calls of fixed cost per array they touch. Over the ~170
parameters of a training rank that fixed cost is most of their time, so
they walk the parameter list in buckets instead: a consecutive run of
tensors of one dtype, closed before it would exceed :data:`BUCKET_ELEMENTS`
(a tensor larger than that is a bucket of its own). Every op they apply
works element by element, so a bucket gives the per-tensor result bit for
bit (DESIGN §8, "The update block runs per bucket").
"""

from __future__ import annotations

from typing import Iterable

from repro.tensor.tensor import Tensor

__all__ = ["BUCKET_ELEMENTS", "buckets"]

#: Most elements in one bucket. On the bench model (170 fp16 parameters,
#: 618,752 elements) Adam took 10.5 / 7.6 / 4.4 / 4.4 / 4.1 / 5.4 ms at caps
#: of 8k / 16k / 32k / 64k / 128k / one bucket, and the norm, the overflow
#: check and the unflatten were fastest at or near 32k (DESIGN §8 has the
#: sweep): below it the per-call cost shows, above it the temporaries outgrow
#: L2, and one whole-model bucket holds whole-model temporaries (peak RSS).
BUCKET_ELEMENTS = 32_768


def buckets(tensors: Iterable[Tensor]) -> list[tuple[list[Tensor], list[int]]]:
    """``tensors`` cut into buckets, in order: ``(run, bounds)`` pairs where
    ``run[j]`` is elements ``bounds[j]:bounds[j + 1]`` of the run's flat array
    and ``bounds[-1]`` is its length."""
    out: list[tuple[list[Tensor], list[int]]] = []
    run: list[Tensor] = []
    bounds = [0]
    for t in tensors:
        n = t.size
        if run and (t.dtype.name != run[0].dtype.name or bounds[-1] + n > BUCKET_ELEMENTS):
            out.append((run, bounds))
            run, bounds = [], [0]
        run.append(t)
        bounds.append(bounds[-1] + n)
    if run:
        out.append((run, bounds))
    return out
