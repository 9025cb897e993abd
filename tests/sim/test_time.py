"""Unit tests for virtual-time helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.time import (
    MS,
    NS,
    SEC,
    US,
    fmt_time,
    from_micros,
    from_millis,
    from_seconds,
    seconds,
)


class TestConstants:
    def test_ratios(self):
        assert US == 1_000 * NS
        assert MS == 1_000 * US
        assert SEC == 1_000 * MS

    def test_one_second_in_ns(self):
        assert SEC == 1_000_000_000


class TestConversions:
    def test_seconds(self):
        assert seconds(2 * SEC) == 2.0
        assert seconds(SEC // 2) == 0.5

    def test_from_seconds_round_trip(self):
        assert from_seconds(1.5) == 1_500_000_000
        assert seconds(from_seconds(0.25)) == 0.25

    def test_from_millis(self):
        assert from_millis(40) == 40 * MS

    def test_from_micros(self):
        assert from_micros(2.5) == 2_500

    def test_from_seconds_rounds(self):
        assert from_seconds(1e-9) == 1
        assert from_seconds(1.4e-9) == 1
        assert from_seconds(1.6e-9) == 2

    @given(st.integers(min_value=0, max_value=10**15))
    def test_seconds_inverse(self, t):
        assert abs(from_seconds(seconds(t)) - t) <= 64  # float precision


class TestFormat:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (500, "500ns"),
            (1_500, "1.500us"),
            (2 * MS, "2.000ms"),
            (2 * SEC, "2.000s"),
            (0, "0ns"),
        ],
    )
    def test_fmt(self, value, expected):
        assert fmt_time(value) == expected

    def test_fmt_negative(self):
        assert fmt_time(-3 * MS) == "-3.000ms"
