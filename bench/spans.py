"""Host-time spans recorded by the benchmark around calls into the program.

The program is measured from outside: nothing under ``src/`` records these
spans. A :class:`Tracer` keeps them in memory; :func:`write` dumps them
after the workload ends. :class:`TracedComm` is the one place where the
benchmark sees inside a training step: it wraps the communicator handed to
the rank program so every ``simmpi`` call becomes a child span of the step.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable

from bench.timing import median


_NO_SPAN = contextlib.nullcontext()  # reusable; enters as None


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.tracer._stack().append(self.record["id"])
        self.record["start"] = time.perf_counter() - self.tracer.epoch
        return self.record

    def __exit__(self, *exc: Any) -> bool:
        self.record["end"] = time.perf_counter() - self.tracer.epoch
        self.tracer._stack().pop()
        self.tracer.records.append(self.record)  # list.append is atomic
        return False


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.records: list[dict] = []
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: int | None, rank: int) -> None:
        """Make this (rank) thread's spans children of ``parent``."""
        self._local.stack = [] if parent is None else [parent]
        self._local.rank = rank

    def span(self, name: str):
        """Context manager recording ``name`` under the thread's open span."""
        if not self.enabled:
            return _NO_SPAN
        stack = self._stack()
        return _Span(self, {
            "id": next(self._ids),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1] if stack else None,
            "rank": getattr(self._local, "rank", None),
            "workload": self.workload,
        })


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(records: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for r in records:
        if r["parent"] is not None:
            children[r["parent"]].append((r["start"], r["end"]))
    return {
        r["id"]: (r["end"] - r["start"])
        - _covered(children[r["id"]], r["start"], r["end"])
        for r in records
    }


def median_seconds_of(records: list[dict], name: str) -> float:
    """Median raw duration of the spans called ``name`` (0 when there are none)."""
    found = [r["end"] - r["start"] for r in records if r["name"] == name]
    return median(found) if found else 0.0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_table(records: list[dict]) -> tuple[dict[str, float], float, float]:
    """Self seconds by layer along the main thread and rank 0.

    Ranks run in parallel, so summing every rank would count each second
    of the step eight times; rank 0 is the blocking path the end-to-end
    timer sees. Returns ``(seconds by layer, root seconds, attributed
    share)``; the share leaves out only the root span's own self time.
    """
    selfs = self_times(records)
    root = next(r for r in records if r["parent"] is None)
    table: dict[str, float] = defaultdict(float)
    for r in records:
        if r["rank"] in (None, 0) and r is not root:
            table[layer_of(r["name"])] += selfs[r["id"]]
    root_s = root["end"] - root["start"]
    share = 1.0 - selfs[root["id"]] / root_s if root_s > 0 else 0.0
    return dict(table), root_s, share


def problems(records: list[dict]) -> list[str]:
    """Violations of the trace invariants (empty when the trace is sound)."""
    by_id = {r["id"]: r for r in records}
    found = []
    roots = [r for r in records if r["parent"] is None]
    if len(roots) != 1:
        found.append(f"{len(roots)} root spans")
    for r in records:
        if r["end"] < r["start"]:
            found.append(f"{r['name']} ends before it starts")
        if r["parent"] is None:
            continue
        parent = by_id.get(r["parent"])
        if parent is None:
            found.append(f"{r['name']} has unknown parent {r['parent']}")
        elif r["start"] < parent["start"] or r["end"] > parent["end"]:
            found.append(f"{r['name']} lies outside {parent['name']}")
    for span_id, seconds in self_times(records).items():
        if seconds < -1e-9:
            found.append(f"{by_id[span_id]['name']} has negative self time")
    return found


def write(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(sorted(records, key=lambda r: r["id"]), fh)


# ---------------------------------------------------------------------- #
# Communicator proxy
# ---------------------------------------------------------------------- #

#: Comm methods that talk to other ranks (everything else is local
#: introspection or virtual-clock bookkeeping and passes straight through).
_COMM_CALLS = frozenset({
    "send", "isend", "recv", "irecv", "sendrecv", "probe", "barrier", "bcast",
    "scatter", "gather", "allgather", "reduce", "allreduce", "reduce_scatter",
    "alltoall", "ialltoall", "iallreduce", "iallgather", "Split", "Dup",
})


class _TracedRequest:
    """A nonblocking request whose ``wait()`` is recorded as a span."""

    def __init__(self, request: Any, tracer: Tracer):
        self._request = request
        self._tracer = tracer

    def wait(self) -> Any:
        with self._tracer.span("simmpi.wait"):
            return self._request.wait()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._request, name)


class TracedComm:
    """Delegating ``Comm`` that records each communication call as a span.

    ``Split``/``Dup`` results and request handles are wrapped too, so the
    groups a strategy derives from the world communicator stay traced.
    """

    def __init__(self, comm: Any, tracer: Tracer):
        self._comm = comm
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._comm, name)
        if name not in _COMM_CALLS:
            return attr
        tracer = self._tracer
        label = f"simmpi.{name}"

        def call(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(label):
                out = attr(*args, **kwargs)
            if name in ("Split", "Dup"):
                return None if out is None else TracedComm(out, tracer)
            if hasattr(out, "wait"):
                return _TracedRequest(out, tracer)
            return out

        # Cache the bound wrapper: __getattr__ only runs on a miss.
        setattr(self, name, call)
        return call
