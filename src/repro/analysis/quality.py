"""Data-quality accounting: the synthetic analogue of the paper's §3 caveats.

``python -m repro quality`` renders a :class:`QualityReport`: per-dataset
loss/outage/parse-failure accounting for a built world, reconciled against
the world's :class:`~repro.faults.InjectionLog`.  On a clean world every
count is zero; under a fault profile the report shows exactly what the
imperfect apparatus lost and that the parse layer accounted for all of it.

Reconciliation checks come in two flavors:

* **exact** — faults whose observable footprint is one-to-one with the
  injection (sample outages, partial sweeps, darknet down days, arbor
  missing days must match the log exactly);
* **bounded** — packet-level faults whose footprint can be masked by a
  later fault in the same capture (a duplicated fragment that is then
  bit-corrupted no longer counts as a duplicate), so the observed count
  must not *exceed* what could have produced it.
"""

from dataclasses import dataclass, field

from repro.analysis.context import AnalysisContext
from repro.analysis.monlist_parse import ParseStats

__all__ = ["ReconciliationCheck", "QualityReport", "quality_report"]


@dataclass(frozen=True)
class ReconciliationCheck:
    """One injected-vs-observed comparison."""

    name: str
    injected: int
    observed: int
    #: "exact" (observed == injected), "bounded" (observed <= injected), or
    #: "implied" (a nonzero observation requires a nonzero injection — used
    #: where one injected fault can have a many-packet footprint).
    kind: str = "exact"

    @property
    def ok(self):
        if self.kind == "exact":
            return self.observed == self.injected
        if self.kind == "bounded":
            return self.observed <= self.injected
        return self.injected > 0 or self.observed == 0

    def describe(self):
        relation = {"exact": "==", "bounded": "<="}.get(self.kind, "needs")
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"{self.name:<34} observed {self.observed:>7} {relation} "
            f"injected {self.injected:>7}  [{status}]"
        )


@dataclass
class QualityReport:
    """Everything the apparatus lost, and whether the books balance."""

    profile_description: str
    injected: dict = field(default_factory=dict)
    #: Aggregated parse accounting over all monlist samples.
    monlist_stats: ParseStats = field(default_factory=ParseStats)
    monlist_samples: int = 0
    monlist_outages: int = 0
    monlist_partial: int = 0
    version_samples: int = 0
    version_outages: int = 0
    version_partial: int = 0
    darknet_down_days: int = 0
    arbor_days: int = 0
    arbor_missing_days: int = 0
    checks: list = field(default_factory=list)

    @property
    def injected_total(self):
        return sum(self.injected.values())

    @property
    def ok(self):
        """True when every reconciliation check balances."""
        return all(check.ok for check in self.checks)

    def render(self):
        lines = [f"Data quality report — fault profile: {self.profile_description}"]
        lines.append("")
        lines.append("ONP monlist dataset:")
        lines.append(
            f"  samples: {self.monlist_samples} "
            f"({self.monlist_outages} outage, {self.monlist_partial} partial sweeps)"
        )
        stats = self.monlist_stats
        lines.append(
            f"  captures: {stats.captures_total} total = {stats.captures_ok} clean "
            f"+ {stats.captures_salvaged} salvaged + {stats.captures_failed} unparseable"
        )
        lines.append(
            f"  packets discarded: {stats.packets_undecodable} undecodable, "
            f"{stats.packets_invalid} invalid, {stats.packets_duplicate} duplicate, "
            f"{stats.packets_out_of_sequence} out-of-sequence"
        )
        lines.append(
            f"  entries: {stats.entries_recovered} recovered, {stats.entries_discarded} discarded"
        )
        lines.append("ONP version dataset:")
        lines.append(
            f"  samples: {self.version_samples} "
            f"({self.version_outages} outage, {self.version_partial} partial sweeps)"
        )
        lines.append("Darknet telescope:")
        lines.append(f"  sensor down days: {self.darknet_down_days}")
        lines.append("Global traffic collector:")
        lines.append(f"  daily records: {self.arbor_days} ({self.arbor_missing_days} days missing)")
        lines.append("")
        if self.injected:
            lines.append(f"Injection log ({self.injected_total} faults):")
            for kind, count in sorted(self.injected.items()):
                lines.append(f"  {kind:<34} {count:>7}")
        else:
            lines.append("Injection log: empty (clean apparatus)")
        lines.append("")
        lines.append("Reconciliation (injected vs observed):")
        if not self.checks:
            lines.append("  (nothing to reconcile)")
        for check in self.checks:
            lines.append("  " + check.describe())
        lines.append("")
        lines.append("RECONCILED" if self.ok else "RECONCILIATION FAILED")
        return "\n".join(lines)


def quality_report(world, parsed_samples=None):
    """Build the :class:`QualityReport` for a built world.

    ``parsed_samples`` lets a caller that already parsed the monlist
    samples (the CLI renders several artifacts from one parse) reuse them.
    """
    injected = world.fault_log.as_dict()
    report = QualityReport(
        profile_description=world.params.faults.describe(),
        injected=injected,
    )

    if parsed_samples is None:
        parsed_samples = AnalysisContext(world).parsed_samples()
    report.monlist_samples = len(parsed_samples)
    for parsed in parsed_samples:
        report.monlist_stats.merge(parsed.stats)
        if parsed.outage:
            report.monlist_outages += 1
        elif parsed.coverage < 1.0:
            report.monlist_partial += 1

    report.version_samples = len(world.onp.version_samples)
    for sample in world.onp.version_samples:
        if sample.outage:
            report.version_outages += 1
        elif sample.coverage < 1.0:
            report.version_partial += 1

    report.darknet_down_days = len(world.darknet.down_days)
    report.arbor_days = len(world.arbor.daily)
    report.arbor_missing_days = len(world.arbor.missing_days)

    def get(kind):
        return injected.get(kind, 0)

    stats = report.monlist_stats
    report.checks = [
        ReconciliationCheck(
            "onp.monlist.sample_outage", get("onp.monlist.sample_outage"), report.monlist_outages
        ),
        ReconciliationCheck(
            "onp.monlist.partial_sweep", get("onp.monlist.partial_sweep"), report.monlist_partial
        ),
        ReconciliationCheck(
            "onp.version.sample_outage", get("onp.version.sample_outage"), report.version_outages
        ),
        ReconciliationCheck(
            "onp.version.partial_sweep", get("onp.version.partial_sweep"), report.version_partial
        ),
        ReconciliationCheck("darknet.down_day", get("darknet.down_day"), report.darknet_down_days),
        ReconciliationCheck("arbor.missing_day", get("arbor.missing_day"), report.arbor_missing_days),
        # Packet-level faults.  Corruption's footprint is one packet per
        # injection (undecodable, invalid, or a colliding duplicate), so
        # those observations are bounded by the injected counts; a corrupted
        # *sequence byte* can orphan arbitrarily many fragments behind the
        # gap it opens, so out-of-sequence discards are only implied, not
        # bounded.  Pure tail truncation is intentionally absent: a prefix
        # with its tail missing still parses clean — that is the paper's
        # undetectable undercount, and only the injection log can count it.
        ReconciliationCheck(
            "corruption -> bad packets",
            get("onp.monlist.corrupted_packet"),
            stats.packets_undecodable + stats.packets_invalid,
            kind="bounded",
        ),
        ReconciliationCheck(
            "duplication -> duplicate packets",
            get("onp.monlist.duplicated_packet") + get("onp.monlist.corrupted_packet"),
            stats.packets_duplicate,
            kind="bounded",
        ),
        ReconciliationCheck(
            "corruption -> sequence gaps",
            get("onp.monlist.corrupted_packet"),
            stats.packets_out_of_sequence,
            kind="implied",
        ),
        ReconciliationCheck(
            "faults -> failed captures",
            get("onp.monlist.corrupted_packet"),
            stats.captures_failed,
            kind="implied",
        ),
    ]
    return report
