"""Small shared utilities: seeding, humanized units, math helpers."""

from repro.utils.seeding import derive_seed
from repro.utils.units import (
    format_bytes,
    format_count,
    format_flops,
    format_time,
)
from repro.utils.mathx import ceil_div, prod

__all__ = [
    "derive_seed",
    "format_bytes",
    "format_count",
    "format_flops",
    "format_time",
    "ceil_div",
    "prod",
]
