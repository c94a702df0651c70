"""Event records the world build passes between traffic generators and
vantage points."""

from repro.sim.events import AttackPulse, ScanSweep

__all__ = [
    "AttackPulse",
    "ScanSweep",
]
