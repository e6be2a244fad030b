"""Tiny integer-math helpers used throughout the library."""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError

__all__ = ["ceil_div", "is_power_of_two", "next_power_of_two", "prod"]


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division; ``b`` must be positive."""
    if b <= 0:
        raise ConfigError(f"ceil_div divisor b must be positive, got {b}")
    return -(-a // b)


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def prod(items: Iterable[int]) -> int:
    """Product of an iterable of ints (1 for empty input)."""
    out = 1
    for x in items:
        out *= int(x)
    return out
