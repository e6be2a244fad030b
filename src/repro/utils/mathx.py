"""Tiny integer-math helpers used throughout the library."""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["balanced_bounds", "ceil_div"]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ConfigError(f"ceil_div divisor b must be positive, got {b}")
    return -(-a // b)


def balanced_bounds(total: int, parts: int, index: int) -> tuple[int, int]:
    """``[lo, hi)`` of part ``index`` when ``total`` items split into
    ``parts`` contiguous runs whose sizes differ by at most one (the first
    ``total % parts`` runs take the extra item). Callers validate."""
    base, extra = divmod(total, parts)
    lo = index * base + min(index, extra)
    return lo, lo + base + (1 if index < extra else 0)
