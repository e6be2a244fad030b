"""Training-metrics logging: JSONL and CSV writers.

Large-scale runs live and die by their logs; this gives the examples and
CLI a uniform, append-only, crash-safe (line-buffered) format.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import ConfigError
from repro.obs.timeseries import percentile

__all__ = ["LatencyStats", "MetricsLogger", "read_jsonl"]


class LatencyStats:
    """Latency sample collector with percentile summaries.

    Serving metrics (TTFT, per-token latency) are distributions, not
    means: the p95 tail is what an SLO bounds. Samples are in (virtual)
    seconds; :meth:`summary` flattens count/mean/p50/p95/max into one
    record ready for :class:`MetricsLogger` or a benchmark table.
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples: list[float] = []

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError(f"latency sample must be >= 0, got {seconds}")
        self._samples.append(float(seconds))

    def extend(self, samples: Iterable[float]) -> None:
        for s in samples:
            self.add(s)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self._samples)) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, q in [0, 100] (0.0 when empty)."""
        return percentile(self._samples, q)

    def summary(self, prefix: str = "") -> dict[str, float]:
        """Flat record: ``<prefix>count/mean/p50/p95/max``."""
        if not self._samples:
            return {f"{prefix}count": 0}
        return {
            f"{prefix}count": self.count,
            f"{prefix}mean": self.mean,
            f"{prefix}p50": self.percentile(50),
            f"{prefix}p95": self.percentile(95),
            f"{prefix}max": float(max(self._samples)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self._samples:
            return f"LatencyStats({self.name!r}, empty)"
        return (
            f"LatencyStats({self.name!r}, n={self.count}, "
            f"p50={self.percentile(50):.3g}s, p95={self.percentile(95):.3g}s)"
        )


class MetricsLogger:
    """Append metric records to a JSONL or CSV file.

    The format is chosen by the file suffix (``.jsonl`` / ``.csv``). CSV
    headers are fixed by the first record; later records must use the same
    keys. Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        suffix = self.path.suffix.lower()
        if suffix not in (".jsonl", ".csv"):
            raise ConfigError(
                f"metrics file must end in .jsonl or .csv, got {self.path.name!r}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._needs_header = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "a", buffering=1, newline="")
        self._format = suffix
        self._csv_writer: csv.DictWriter | None = None
        self._fieldnames: list[str] | None = None

    def log(self, record: Mapping[str, Any]) -> None:
        """Append one record (flat dict of JSON-serializable values)."""
        record = dict(record)
        if self._format == ".jsonl":
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            if self._csv_writer is None:
                self._fieldnames = sorted(record)
                self._csv_writer = csv.DictWriter(self._fh, fieldnames=self._fieldnames)
                if self._needs_header:
                    self._csv_writer.writeheader()
            header = set(self._fieldnames or [])
            keys = set(record)
            if keys != header:
                unexpected = sorted(keys - header)
                missing = sorted(header - keys)
                detail = []
                if unexpected:
                    detail.append(f"unexpected keys {unexpected}")
                if missing:
                    detail.append(f"missing keys {missing}")
                raise ConfigError(
                    "CSV record does not match the header fixed by the first "
                    f"record: {'; '.join(detail)}"
                )
            self._csv_writer.writerow(record)

    def log_events(self, events, **extra: Any) -> int:
        """Append one record per lifecycle event (restart/backoff/...).

        ``events`` is an iterable of flat dicts as recorded by
        :meth:`~repro.simmpi.RunContext.record_event`. Event records have
        heterogeneous keys, so writing any requires a JSONL sink (CSV
        headers are fixed by the first record); an empty iterable is a
        no-op on either sink. Returns the number written.
        """
        n = 0
        for event in events:
            if self._format != ".jsonl":
                raise ConfigError(
                    "log_events needs a .jsonl sink; event records have "
                    "heterogeneous keys that a CSV header cannot hold"
                )
            record = dict(event)
            record.update(extra)
            self.log(record)
            n += 1
        return n

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "MetricsLogger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load every record of a JSONL metrics file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"metrics file not found: {path}")
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out
