"""Tests for repro.utils: units, seeding, integer math."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.utils import (
    ceil_div,
    derive_seed,
    format_bytes,
    format_count,
    format_flops,
    format_time,
)


class TestFormatBytes:
    def test_zero(self):
        assert format_bytes(0) == "0 B"

    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(1536) == "1.50 KiB"

    def test_mib(self):
        assert format_bytes(5 * 2**20) == "5.00 MiB"

    def test_gib(self):
        assert format_bytes(3.25 * 2**30) == "3.25 GiB"

    def test_negative(self):
        assert format_bytes(-2048) == "-2.00 KiB"

    def test_huge_value_uses_largest_unit(self):
        assert "EiB" in format_bytes(2**70)


class TestFormatCount:
    def test_small_integer(self):
        assert format_count(42) == "42"

    def test_thousands(self):
        assert format_count(37_440_000) == "37.44M"

    def test_trillions(self):
        assert format_count(14.5e12) == "14.50T"

    def test_flops(self):
        assert format_flops(1.18e18) == "1.18EFLOPS"


class TestFormatTime:
    def test_zero(self):
        assert format_time(0) == "0 s"

    def test_nanoseconds(self):
        assert format_time(3.2e-9) == "3.20 ns"

    def test_microseconds(self):
        assert format_time(4.5e-6) == "4.50 us"

    def test_milliseconds(self):
        assert format_time(0.012) == "12.00 ms"

    def test_seconds(self):
        assert format_time(1.5) == "1.50 s"

    def test_minutes(self):
        assert format_time(600) == "10.00 min"

    def test_hours(self):
        assert format_time(7200) == "2.00 h"


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_streams_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=10))
    def test_derive_seed_in_64bit_range(self, seed, label):
        s = derive_seed(seed, label)
        assert 0 <= s < 2**64


class TestMathx:
    def test_ceil_div_exact(self):
        assert ceil_div(8, 4) == 2

    def test_ceil_div_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_ceil_div_rejects_nonpositive(self):
        for b in (0, -3):
            with pytest.raises(ConfigError, match="divisor b must be positive"):
                ceil_div(4, b)

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_ceil_div_matches_definition(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b
