"""Tests for attack-campaign generation (using the shared world)."""

import numpy as np
import pytest

from repro.attack import OVH_EVENT_END, OVH_EVENT_START
from repro.attack.campaign import AttackCampaign, CampaignParams
from repro.population.columns import PulseColumns
from repro.util import DAY, date_to_sim


def test_attacks_sorted_and_windowed(world):
    starts = world.attacks.start.tolist()
    assert starts == sorted(starts)
    assert starts[0] >= date_to_sim(2013, 11, 1)


def test_intensity_peaks_in_mid_february(world):
    def weekly(day):
        t = date_to_sim(*day)
        return int(((t <= world.attacks.start) & (world.attacks.start < t + 7 * DAY)).sum())

    december = weekly((2013, 12, 1))
    peak = weekly((2014, 2, 8))
    april = weekly((2014, 4, 10))
    assert peak > 5 * max(1, december)
    assert peak > april


def test_amplifiers_alive_at_attack_time(world_population):
    _, _, attacks = world_population
    for attack in attacks[::50]:
        assert attack.amplifiers
        for host in attack.amplifiers:
            assert host.monlist_active(attack.start)


def test_attack_ports_match_victim_profile(world_population):
    _, _, attacks = world_population
    scripted = {-1}
    for attack in attacks[::25]:
        if attack.booter_id in scripted:
            continue
        assert attack.port in attack.victim.ports


def test_query_rate_bounded(world):
    for rate in world.attacks.query_rate_per_amp[::25].tolist():
        assert 0.5 <= rate <= 20000.0


def test_spoofers_look_windows(world):
    ttls = world.attacks.spoofer_ttl[::10].tolist()
    assert all(t > 64 for t in ttls)


def test_most_attacks_are_monlist(world):
    version = int((world.attacks.mode == 6).sum())
    assert version / len(world.attacks) < 0.02


def test_duration_tail_shrinks_over_time(world):
    """§4.3.4: the 95th-percentile duration declines from ~6.5 h in January
    toward ~50 min by April (medians *rise* from ~15 s to ~40 s)."""
    attacks = world.attacks
    early = attacks.duration[attacks.start < date_to_sim(2014, 2, 5)]
    late = attacks.duration[attacks.start > date_to_sim(2014, 3, 20)]
    assert len(early) > 50 and len(late) > 50
    assert np.percentile(early, 98) > np.percentile(late, 98)


def test_big_attacks_use_many_amplifiers(world):
    attacks = world.attacks
    n_legs = np.diff(attacks.leg_offsets)
    big = n_legs[attacks.target_bps > 5e9]
    small = n_legs[attacks.target_bps < 1e7]
    if len(big) and len(small):
        assert big.mean() > small.mean()


def test_ovh_event_targets_top_hosting_as(world, world_population):
    _, _, attacks = world_population
    ovh = world.registry.special["HOSTING-FR-1"]
    event = [
        a
        for a in attacks
        if OVH_EVENT_START <= a.start <= OVH_EVENT_END and a.victim.asn == ovh.asn
    ]
    assert len(event) >= 3


def test_pulses_match_legs(world_population):
    attack = world_population[2][0]
    legs = PulseColumns.from_attacks([attack])
    assert legs.n_pulses == len(attack.amplifiers)
    assert legs.amp_ip.tolist() == sorted(h.ip for h in attack.amplifiers)
    assert set(legs.victim_ip.tolist()) == {attack.victim.ip}
    assert set(legs.start.tolist()) == {attack.start}
    assert set(legs.end.tolist()) == {attack.start + attack.duration}


def test_coordination_same_amps_reused(world):
    """Booter list reuse: some amplifier pairs co-occur in many attacks."""
    from collections import Counter

    attacks = world.attacks
    bounds = attacks.leg_offsets[:2001].tolist()
    leg_ips = world.hosts.ip[attacks.legs].tolist()
    pair_counts = Counter()
    for lo, hi in zip(bounds, bounds[1:]):
        ips = sorted(leg_ips[lo:hi])[:5]
        for i in range(len(ips)):
            for j in range(i + 1, len(ips)):
                pair_counts[(ips[i], ips[j])] += 1
    if pair_counts:
        assert max(pair_counts.values()) >= 5


def test_campaign_reproducible(world, world_population):
    params = CampaignParams(scale=0.0005)
    from repro.util import RngStream

    pool = world_population[0]
    a = AttackCampaign(RngStream(9, "camp"), pool, world.victims, params).generate()
    b = AttackCampaign(RngStream(9, "camp"), pool, world.victims, params).generate()
    assert len(a) == len(b)
    assert [(x.start, x.victim.ip, x.target_bps) for x in a[:50]] == [
        (x.start, x.victim.ip, x.target_bps) for x in b[:50]
    ]


def test_campaign_params_validation():
    with pytest.raises(ValueError):
        CampaignParams(scale=0.0)
    with pytest.raises(ValueError):
        CampaignParams(start=10.0, end=5.0)
