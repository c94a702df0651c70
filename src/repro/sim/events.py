"""Event payload records passed between the world and its observers.

Observers (darknet, ISP flow exporters, the Arbor-style collector) subscribe
to these records rather than to raw callbacks, which keeps vantage points
decoupled from the traffic generators.
"""

from dataclasses import dataclass, field

__all__ = ["ScanSweep", "AttackPulse"]


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


@dataclass(frozen=True)
class AttackPulse:
    """One (attack, amplifier) leg: spoofed queries eliciting amplification.

    ``query_rate`` is spoofed monlist queries per second arriving at the
    amplifier; responses to the victim are query_rate x amplifier BAF.
    """

    start: float
    duration: float
    victim_ip: int
    victim_port: int
    amplifier_ip: int
    query_rate: float
    mode: int  # 7 for monlist-based attacks, 6 for version-based
    spoofer_ttl: int
    # Derived values, precomputed once: pulse sorting/windowing in the
    # amplifier-state manager touches `end` hundreds of millions of times
    # per world build, so these must be plain attribute loads, not
    # recomputed properties.
    end: float = field(init=False, repr=False, compare=False)
    query_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "end", self.start + self.duration)
        object.__setattr__(self, "query_count", max(1, int(self.query_rate * self.duration)))
