"""Deterministic seed derivation.

Every stochastic component in the library (data sampling, fault draws,
gate noise, parameter init) derives its seed from a single user seed plus a
stable string *stream* name, so that runs are reproducible regardless of
thread scheduling and of how many other components consumed randomness.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, *streams: object) -> int:
    """Derive a 64-bit seed from ``base_seed`` and a tuple of stream labels.

    The derivation is a SHA-256 hash of the textual representation, so it is
    stable across processes and Python versions (unlike ``hash()``).

    Parameters
    ----------
    base_seed:
        The user-facing experiment seed.
    streams:
        Arbitrary labels (strings, ints) identifying the consumer, e.g.
        ``derive_seed(seed, "dataloader", epoch, rank)``.
    """
    text = repr((int(base_seed),) + tuple(streams))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _MASK64
