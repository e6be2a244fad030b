"""Tiny integer-math helpers used throughout the library."""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError

__all__ = ["ceil_div", "prod"]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ConfigError(f"ceil_div divisor b must be positive, got {b}")
    return -(-a // b)


def prod(items: Iterable[int]) -> int:
    """Product of an iterable of ints (1 for empty input)."""
    out = 1
    for x in items:
        out *= int(x)
    return out
