"""Humanized units for bytes, FLOP/s, counts, and durations.

The benchmark harnesses print paper-style tables, so consistent unit
formatting lives in one place.
"""

from __future__ import annotations

__all__ = [
    "format_bytes",
    "format_count",
    "format_flops",
    "format_time",
]

_BYTE_UNITS = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"]
_SI_UNITS = ["", "K", "M", "G", "T", "P", "E"]


def format_bytes(n: float) -> str:
    """Format a byte count with binary (1024-based) units: ``1536 -> '1.50 KiB'``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit in _BYTE_UNITS:
        if n < 1024.0 or unit == _BYTE_UNITS[-1]:
            if unit == "B":
                return f"{sign}{n:.0f} B"
            return f"{sign}{n:.2f} {unit}"
        n /= 1024.0
    raise AssertionError("unreachable")


def format_count(n: float) -> str:
    """Format a count with SI (1000-based) suffixes: ``14.5e12 -> '14.50T'``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit in _SI_UNITS:
        if n < 1000.0 or unit == _SI_UNITS[-1]:
            if unit == "":
                # Small integers print without a decimal point.
                return f"{sign}{n:.0f}" if n == int(n) else f"{sign}{n:.2f}"
            return f"{sign}{n:.2f}{unit}"
        n /= 1000.0
    raise AssertionError("unreachable")


def format_flops(n: float) -> str:
    """Format a FLOP/s figure: ``1.18e18 -> '1.18 EFLOPS'``."""
    return f"{format_count(n)}FLOPS"


def format_time(seconds: float) -> str:
    """Format a duration choosing ns/us/ms/s/min/h automatically."""
    s = float(seconds)
    sign = "-" if s < 0 else ""
    s = abs(s)
    if s == 0.0:
        return "0 s"
    if s < 1e-6:
        return f"{sign}{s * 1e9:.2f} ns"
    if s < 1e-3:
        return f"{sign}{s * 1e6:.2f} us"
    if s < 1.0:
        return f"{sign}{s * 1e3:.2f} ms"
    if s < 120.0:
        return f"{sign}{s:.2f} s"
    if s < 7200.0:
        return f"{sign}{s / 60.0:.2f} min"
    return f"{sign}{s / 3600.0:.2f} h"

