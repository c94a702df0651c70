"""Event payload records passed between the world and its observers.

Observers (darknet, ISP flow exporters, the Arbor-style collector) subscribe
to these records rather than to raw callbacks, which keeps vantage points
decoupled from the traffic generators.
"""

from dataclasses import dataclass

__all__ = ["ScanSweep"]


@dataclass(frozen=True)
class ScanSweep:
    """A scanner probing some slice of the address space around time ``t``.

    ``targets_per_second`` is the sweep rate; ``coverage`` the fraction of
    the IPv4 space the sweep will touch (research scanners cover ~1.0,
    targeted malicious rescans much less).
    """

    t: float
    scanner_ip: int
    kind: str  # "research" | "malicious"
    mode: int  # NTP mode probed (7 for monlist, 6 for version)
    coverage: float
    targets_per_second: float
    ttl: int
    duration: float

    def __post_init__(self):
        if not 0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
