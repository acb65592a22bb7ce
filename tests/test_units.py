"""Unit constants and conversions."""

import pytest

from repro.common import units


def test_size_constants_scale():
    assert units.MB == 1024 * units.KB
    assert units.GB == 1024 * units.MB
    assert units.TB == 1024 * units.GB
    assert units.PB == 1024 * units.TB


def test_time_constants_scale():
    assert units.US == 1000 * units.NS
    assert units.MS == 1000 * units.US
    assert units.SEC == 1000 * units.MS


def test_bandwidth_conversion():
    one = units.bytes_per_ns_from_gbps(1.0)
    assert one == pytest.approx(1.073741824)
    with pytest.raises(ValueError):
        units.bytes_per_ns_from_gbps(0)
