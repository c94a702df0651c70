"""Cross-dataset validation (§4.4).

The paper validates its ONP-derived view against the publicly-disclosed
CloudFlare/OVH attack of February 10th: OVH is the top victim AS in the
ONP data; CloudFlare's published list of 1,297 amplifier-hosting ASes
overlapped the ONP amplifier ASes in 1,291 cases; and those overlapping
ASes carried 60% of all victim packets.

Here the same cross-check runs between two *independently produced*
artifacts of the simulation: the attack campaign's own amplifier lists for
the event (standing in for CloudFlare's disclosure) and the ONP probe
corpus (what the measurement saw).
"""

from dataclasses import dataclass

import numpy as np

from repro.attack.campaign import OVH_EVENT_END, OVH_EVENT_START

__all__ = ["EventValidation", "validate_ovh_event"]


@dataclass(frozen=True)
class EventValidation:
    """§4.4's cross-dataset agreement figures.

    Every field is well-defined on degraded inputs: an empty ONP corpus, a
    disclosure with no amplifiers, or a target AS that never appears in the
    victimology all yield zeros (and ``degraded`` is True) rather than a
    division error — reachable under ``--faults hostile`` when sample
    outages eat the event window.
    """

    event_attacks: int
    disclosed_asns: int
    overlapping_asns: int
    victim_packet_share: float
    #: 1-based rank of the target AS among victim ASes by packet count;
    #: 0 when the target AS received no observed victim packets.
    target_as_rank: int
    #: Distinct amplifier ASes seen anywhere in the ONP corpus (the
    #: measurement side's denominator; 0 when the corpus is empty).
    onp_asns: int = 0

    @property
    def asn_overlap_fraction(self):
        if self.disclosed_asns == 0:
            return 0.0
        return self.overlapping_asns / self.disclosed_asns

    @property
    def degraded(self):
        """True when either side of the cross-check is missing, so the
        agreement figures are vacuous rather than evidence."""
        return self.disclosed_asns == 0 or self.onp_asns == 0 or self.target_as_rank == 0


def validate_ovh_event(world, parsed_samples, concentration, target_asn):
    """Cross-validate the February event against the ONP corpus.

    Parameters
    ----------
    world:
        The built world: its attack table, with the hosts and victims
        its rows point at, is the "disclosure" side, and its routed-block
        table attributes ONP amplifiers to ASes.
    parsed_samples:
        Reconstructed ONP monlist samples (the measurement side).
    concentration:
        A :class:`~repro.analysis.concentration.ConcentrationReport` built
        from the victimology (for packet attribution and AS ranks).
    target_asn:
        The attacked hoster's ASN (the OVH-like AS).
    """
    attacks, table = world.attacks, world.table
    victim_asns = np.array([victim.asn for victim in world.victims.victims], dtype=np.int64)
    event = (
        (OVH_EVENT_START <= attacks.start)
        & (attacks.start <= OVH_EVENT_END)
        & (victim_asns[attacks.victim] == target_asn)
    )
    disclosed_asns = set(world.hosts.asn[attacks.legs[event[attacks.leg_attacks()]]].tolist())

    onp_asns = set()
    for parsed in parsed_samples:
        for ip in parsed.amplifier_ips():
            asn = table.asn_of(ip)
            if asn is not None:
                onp_asns.add(asn)

    overlap = disclosed_asns & onp_asns
    total_packets = sum(concentration.amplifier_as_packets.values())
    overlap_packets = sum(concentration.amplifier_as_packets.get(a, 0) for a in overlap)
    share = overlap_packets / total_packets if total_packets else 0.0
    rank = concentration.victim_as_rank(target_asn) or 0

    return EventValidation(
        event_attacks=int(event.sum()),
        disclosed_asns=len(disclosed_asns),
        overlapping_asns=len(overlap),
        victim_packet_share=share,
        target_as_rank=rank,
        onp_asns=len(onp_asns),
    )
