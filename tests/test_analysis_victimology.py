"""Tests for the victim-classification filter and §4 aggregates."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CLASS_NON_VICTIM,
    CLASS_SCANNER,
    CLASS_VICTIM,
    classify_entry,
)
from repro.analysis.victimology import (
    CODE_EXCLUDED,
    CODE_NON_VICTIM,
    CODE_SCANNER,
    CODE_VICTIM,
    SampleVictimology,
    classify_columns,
)
from repro.ntp.wire import MonitorEntry
from repro.util import date_to_sim
from tests.strategies import monitor_entries


def entry(mode=7, count=100, last_int=10, first_int=1000, port=80):
    return MonitorEntry(
        last_int=last_int,
        first_int=first_int,
        count=count,
        addr=1,
        daddr=0,
        flags=0,
        port=port,
        mode=mode,
        version=2,
    )


def test_normal_modes_are_non_victims():
    for mode in (0, 1, 2, 3, 4, 5):
        assert classify_entry(entry(mode=mode)) == CLASS_NON_VICTIM


def test_low_count_is_scanner():
    assert classify_entry(entry(count=2)) == CLASS_SCANNER
    assert classify_entry(entry(count=3)) == CLASS_VICTIM


def test_slow_interarrival_is_scanner():
    # 10 packets over ~5 hours -> interval ~2000s: victim.
    assert classify_entry(entry(count=10, first_int=18000)) == CLASS_VICTIM
    # 10 packets over 10 hours -> interval 4000s: scanner/low-volume.
    assert classify_entry(entry(count=10, first_int=36000 + 10)) == CLASS_SCANNER


def test_mode6_can_be_victim():
    assert classify_entry(entry(mode=6)) == CLASS_VICTIM


_CLASS_OF_CODE = {
    CODE_NON_VICTIM: CLASS_NON_VICTIM,
    CODE_SCANNER: CLASS_SCANNER,
    CODE_VICTIM: CLASS_VICTIM,
}


#: Entries on the filter's edges: counts around the 3-packet floor and
#: mean inter-arrivals within two seconds of the 3600 s ceiling.
_edge_entries = st.tuples(monitor_entries, st.integers(0, 5), st.integers(-2, 2)).map(
    lambda drawn: dataclasses.replace(
        drawn[0],
        count=drawn[1],
        first_int=drawn[0].last_int + 3600 * max(drawn[1] - 1, 0) + drawn[2],
    )
)


@given(st.lists(st.one_of(monitor_entries, _edge_entries), max_size=30), st.data())
@settings(max_examples=100, deadline=None)
def test_classify_columns_matches_classify_entry(entries, data):
    """The §4.2 filter kernel the batch report and the stream engine share
    classifies every entry exactly as the per-entry helper does, with the
    prober's address excluded when one is given."""
    addrs = [e.addr for e in entries]
    onp_ip = data.draw(st.sampled_from([None, *addrs]))

    def column(name):
        return np.array([getattr(e, name) for e in entries], dtype=np.int64)

    codes, avg = classify_columns(
        column("addr"), column("mode"), column("count"), column("first_int"),
        column("last_int"), onp_ip,
    )
    assert avg.tolist() == [e.avg_interval for e in entries]
    for e, code in zip(entries, codes.tolist()):
        if onp_ip is not None and e.addr == onp_ip:
            assert code == CODE_EXCLUDED
        else:
            assert _CLASS_OF_CODE[code] == classify_entry(e)


def test_observation_derived_times():
    """§4.2's derived start of a victim pair: the end (t minus last seen)
    less the duration (packets x inter-arrival)."""
    sample = SampleVictimology(
        t=1_000_000.0,
        n_non_victim=0,
        n_scanner=0,
        max_last_seen=[500],
        victim_ip=np.array([2]),
        amplifier_ip=np.array([1]),
        port=np.array([80]),
        packets=np.array([100]),
        avg_interval=np.array([2.0]),
        last_seen_ago=np.array([500]),
    )
    # End 999,500; duration 200 s.
    assert sample.start_times().tolist() == [999_300.0]


def test_report_victims_nonzero(victim_report):
    victims = victim_report.all_victim_ips()
    assert len(victims) > 50


def test_victims_grow_then_attacks_subside(victim_report):
    counts = [len(s.victim_ips()) for s in victim_report.samples]
    assert len(counts) == 15
    # Victim counts grow strongly from January (Table 1's right half).
    assert max(counts) > 3 * counts[0]
    # The attack *pair* load peaks mid-window and subsides afterwards.
    pairs = [s.n_victim_pairs for s in victim_report.samples]
    peak_index = pairs.index(max(pairs))
    assert 3 <= peak_index <= 12
    assert pairs[-1] < max(pairs)


def test_mean_far_above_median(victim_report):
    """Fig. 6: a few heavily-attacked victims drag the mean far above the
    median."""
    for t, mean, median, p95 in victim_report.victim_packet_stats():
        if median > 0:
            assert mean > 3 * median


def test_port80_and_123_dominate(victim_report):
    ports = victim_report.port_table(top=20)
    assert ports
    ranked = [p for p, _ in ports]
    assert ranked[0] == 80
    assert 123 in ranked[:3]


def test_game_ports_prominent(victim_report):
    from repro.population import GAME_PORTS

    ports = victim_report.port_table(top=20)
    game_fraction = sum(f for p, f in ports if p in GAME_PORTS)
    assert game_fraction >= 0.10  # paper: at least 15% in the top 20


def test_attacks_per_hour_peaks_in_february(victim_report):
    hours = victim_report.attacks_per_hour()
    assert hours
    daily = {}
    for hour, count in hours.items():
        daily[hour // 24] = daily.get(hour // 24, 0) + count
    peak_day = max(daily, key=daily.get) * 86400
    assert date_to_sim(2014, 1, 20) <= peak_day <= date_to_sim(2014, 3, 10)


def test_undersampling_factor_plausible(victim_report):
    factor = victim_report.undersampling_factor()
    assert 2.0 < factor < 12.0  # paper: 3.8


def test_amplifiers_per_victim_declines(victim_report):
    rows = victim_report.amplifiers_per_victim()
    early = rows[0][1]
    late = rows[-1][1]
    assert late <= early


def test_total_packets_scale(victim_report, world):
    total = victim_report.total_attack_packets()
    # The paper's 2.92T observed packets are a stated lower bound; our lens
    # is less lossy, so the scaled total should be at least that and within
    # a few orders of magnitude.
    full_equiv = total / world.params.scale
    assert 1e12 < full_equiv < 1e16
    assert victim_report.total_attack_bytes() == total * 420
