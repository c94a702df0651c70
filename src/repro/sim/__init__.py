"""Event records the world build passes between traffic generators and
vantage points."""

from repro.sim.events import ScanSweep

__all__ = ["ScanSweep"]
