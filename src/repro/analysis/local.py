"""Local (regional-ISP) analyses (§7): Tables 5-6, Figures 13, 15, 16, and
the TTL forensics separating scanners from attack spoofers."""

from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "top_amplifier_table",
    "top_victim_table",
    "TtlForensics",
    "ttl_forensics",
    "common_scanner_timeline",
    "coordination_report",
]


def top_amplifier_table(site, geo=None, n=5):
    """Table 5 rows: (amplifier ip, BAF, unique victims, GB sent)."""
    rows = []
    for forensics in site.top_amplifiers(n):
        rows.append(
            {
                "ip": forensics.ip,
                "baf": forensics.baf,
                "unique_victims": len(forensics.victims),
                "gb_sent": forensics.gb_sent,
            }
        )
    return rows


def top_victim_table(site, table, geo, n=5):
    """Table 6 rows: (victim ip, ASN, country, BAF, amplifiers, duration
    hours, GB received)."""
    rows = []
    for forensics in site.top_victims(n):
        rows.append(
            {
                "ip": forensics.ip,
                "asn": forensics.asn,
                "country": geo.country_of(forensics.ip) or forensics.country,
                "baf": forensics.baf,
                "amplifiers": len(forensics.amplifiers),
                "duration_hours": forensics.duration_hours,
                "gb": forensics.gb,
            }
        )
    return rows


@dataclass(frozen=True)
class TtlForensics:
    """§7.2: mode TTLs of scanning vs spoofed attack traffic at a site."""

    scan_ttl_mode: int
    attack_ttl_mode: int

    @property
    def scanners_look_linux(self):
        """Initial TTL 64 observed in the 34..64 range."""
        return 34 <= self.scan_ttl_mode <= 64

    @property
    def attackers_look_windows(self):
        """Initial TTL 128 observed in the 98..128 range."""
        return 98 <= self.attack_ttl_mode <= 128


def ttl_forensics(sweeps, attacks, hosts, site_asns):
    """Compute the TTL modes from sweeps (any — scanning is Internet-wide)
    and from attacks (an attack table) with a leg on a host (a host
    table row) inside the site."""
    scan_ttls = Counter(s.ttl for s in sweeps)
    local = np.isin(hosts.asn[attacks.legs], list(site_asns))
    hit = np.unique(attacks.leg_attacks()[local])
    attack_ttls = Counter(attacks.spoofer_ttl[hit].tolist())
    if not scan_ttls or not attack_ttls:
        raise ValueError("need both scanning and local attack traffic")
    return TtlForensics(
        scan_ttl_mode=scan_ttls.most_common(1)[0][0],
        attack_ttl_mode=attack_ttls.most_common(1)[0][0],
    )


def common_scanner_timeline(isp, a="merit", b="csu"):
    """Figure 16: {day: count of scanners detected at both sites}."""
    return {day: len(ips) for day, ips in isp.common_scanners(a, b).items()}


def coordination_report(site):
    """§7.1's coordination evidence: how many victims were hit by several
    of the site's amplifiers (attack lists are reused across targets)."""
    multi_amp_victims = sum(
        1 for v in site.victim_forensics.values() if len(v.amplifiers) >= 3
    )
    total = len(site.victim_forensics)
    return {
        "victims": total,
        "victims_with_3plus_local_amplifiers": multi_amp_victims,
        "fraction": multi_amp_victims / total if total else 0.0,
    }
