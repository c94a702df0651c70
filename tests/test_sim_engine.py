"""Tests for the simulation's event records and the attack-leg columns."""

import pytest

from repro.sim import ScanSweep

from tests.test_measurement_state import pulse_columns


def test_attack_pulse_properties():
    legs = pulse_columns((2, 1, 100.0, 40.0, 2.5))
    assert legs.end.tolist() == [140.0]
    assert legs.query_count.tolist() == [100]  # max(1, int(rate x duration))


def test_attack_pulse_minimum_one_query():
    legs = pulse_columns((2, 1, 0.0, 0.1, 0.5), (2, 1, 0.0, 3.0, 0.5))
    assert legs.query_count.tolist() == [1, 1]  # 0.05 and 1.5 queries


def test_scan_sweep_validation():
    with pytest.raises(ValueError):
        ScanSweep(
            t=0.0,
            scanner_ip=1,
            kind="research",
            mode=7,
            coverage=0.0,
            targets_per_second=1000.0,
            ttl=54,
            duration=3600.0,
        )
    with pytest.raises(ValueError):
        ScanSweep(
            t=0.0,
            scanner_ip=1,
            kind="research",
            mode=7,
            coverage=1.0,
            targets_per_second=1000.0,
            ttl=54,
            duration=0.0,
        )
