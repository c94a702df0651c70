"""Tests for the simulation's event records."""

import pytest

from repro.sim import AttackPulse, ScanSweep


def test_attack_pulse_properties():
    pulse = AttackPulse(
        start=100.0,
        duration=40.0,
        victim_ip=1,
        victim_port=80,
        amplifier_ip=2,
        query_rate=2.5,
        mode=7,
        spoofer_ttl=109,
    )
    assert pulse.end == 140.0
    assert pulse.query_count == 100


def test_attack_pulse_minimum_one_query():
    pulse = AttackPulse(
        start=0.0,
        duration=0.1,
        victim_ip=1,
        victim_port=80,
        amplifier_ip=2,
        query_rate=0.5,
        mode=7,
        spoofer_ttl=109,
    )
    assert pulse.query_count == 1


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
