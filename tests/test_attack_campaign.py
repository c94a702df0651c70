"""Tests for attack-campaign generation (using the shared world)."""

import pytest

from repro.attack import OVH_EVENT_END, OVH_EVENT_START
from repro.attack.campaign import AttackCampaign, CampaignParams
from repro.population.columns import PulseColumns
from repro.util import DAY, date_to_sim


def test_attacks_sorted_and_windowed(world):
    starts = [a.start for a in world.attacks]
    assert starts == sorted(starts)
    assert starts[0] >= date_to_sim(2013, 11, 1)


def test_intensity_peaks_in_mid_february(world):
    def weekly(day):
        t = date_to_sim(*day)
        return sum(1 for a in world.attacks if t <= a.start < t + 7 * DAY)

    december = weekly((2013, 12, 1))
    peak = weekly((2014, 2, 8))
    april = weekly((2014, 4, 10))
    assert peak > 5 * max(1, december)
    assert peak > april


def test_amplifiers_alive_at_attack_time(world):
    for attack in world.attacks[::50]:
        assert attack.amplifiers
        for host in attack.amplifiers:
            assert host.monlist_active(attack.start)


def test_attack_ports_match_victim_profile(world):
    scripted = {-1}
    for attack in world.attacks[::25]:
        if attack.booter_id in scripted:
            continue
        assert attack.port in attack.victim.ports


def test_query_rate_bounded(world):
    for attack in world.attacks[::25]:
        assert 0.5 <= attack.query_rate_per_amp <= 20000.0


def test_spoofers_look_windows(world):
    ttls = [a.spoofer_ttl for a in world.attacks[::10]]
    assert all(t > 64 for t in ttls)


def test_most_attacks_are_monlist(world):
    version = sum(1 for a in world.attacks if a.mode == 6)
    assert version / len(world.attacks) < 0.02


def test_duration_tail_shrinks_over_time(world):
    """§4.3.4: the 95th-percentile duration declines from ~6.5 h in January
    toward ~50 min by April (medians *rise* from ~15 s to ~40 s)."""
    import numpy as np

    early = [a.duration for a in world.attacks if a.start < date_to_sim(2014, 2, 5)]
    late = [a.duration for a in world.attacks if a.start > date_to_sim(2014, 3, 20)]
    assert len(early) > 50 and len(late) > 50
    assert np.percentile(early, 98) > np.percentile(late, 98)


def test_big_attacks_use_many_amplifiers(world):
    big = [a for a in world.attacks if a.target_bps > 5e9]
    small = [a for a in world.attacks if a.target_bps < 1e7]
    if big and small:
        mean_big = sum(len(a.amplifiers) for a in big) / len(big)
        mean_small = sum(len(a.amplifiers) for a in small) / len(small)
        assert mean_big > mean_small


def test_ovh_event_targets_top_hosting_as(world):
    ovh = world.registry.special["HOSTING-FR-1"]
    event = [
        a
        for a in world.attacks
        if OVH_EVENT_START <= a.start <= OVH_EVENT_END and a.victim.asn == ovh.asn
    ]
    assert len(event) >= 3


def test_pulses_match_legs(world):
    attack = world.attacks[0]
    legs = PulseColumns.from_attacks([attack])
    assert legs.n_pulses == len(attack.amplifiers)
    assert legs.amp_ip.tolist() == sorted(h.ip for h in attack.amplifiers)
    assert set(legs.victim_ip.tolist()) == {attack.victim.ip}
    assert set(legs.start.tolist()) == {attack.start}
    assert set(legs.end.tolist()) == {attack.start + attack.duration}


def test_coordination_same_amps_reused(world):
    """Booter list reuse: some amplifier pairs co-occur in many attacks."""
    from collections import Counter

    pair_counts = Counter()
    for attack in world.attacks[:2000]:
        ips = sorted(h.ip for h in attack.amplifiers)[:5]
        for i in range(len(ips)):
            for j in range(i + 1, len(ips)):
                pair_counts[(ips[i], ips[j])] += 1
    if pair_counts:
        assert max(pair_counts.values()) >= 5


def test_campaign_reproducible(world):
    params = CampaignParams(scale=0.0005)
    from repro.util import RngStream

    a = AttackCampaign(RngStream(9, "camp"), world.hosts, world.victims, params).generate()
    b = AttackCampaign(RngStream(9, "camp"), world.hosts, world.victims, params).generate()
    assert len(a) == len(b)
    assert [(x.start, x.victim.ip, x.target_bps) for x in a[:50]] == [
        (x.start, x.victim.ip, x.target_bps) for x in b[:50]
    ]


def test_campaign_params_validation():
    with pytest.raises(ValueError):
        CampaignParams(scale=0.0)
    with pytest.raises(ValueError):
        CampaignParams(start=10.0, end=5.0)
