"""Tests for the lazy amplifier-state manager."""

import numpy as np
import pytest

from repro.attack.scanner import RESEARCH_SCANNERS
from repro.measurement import AmplifierStateManager
from repro.ntp.constants import IMPL_XNTPD
from repro.population import PoolParams, build_host_pool
from repro.population.columns import PulseColumns
from repro.net import ASRegistry, PolicyBlockList
from repro.util import RngStream, date_to_sim


@pytest.fixture(scope="module")
def host():
    rng = RngStream(11, "state-test")
    registry = ASRegistry(rng.child("asn"), n_ases=300)
    pbl = PolicyBlockList(registry)
    pool = build_host_pool(rng.child("hosts"), registry, pbl, PoolParams(scale=0.0002))
    # Pick a host guaranteed to answer the probed implementation and that
    # never restarts (so retention assertions are deterministic).
    for candidate in pool.monlist_hosts:
        if (
            candidate.answers_implementation(IMPL_XNTPD)
            and candidate.restart_interval is None
            and candidate.birth == 0.0
            and not candidate.is_mega
        ):
            return candidate
    raise AssertionError("no suitable host in pool")


def make_manager():
    return AmplifierStateManager(RngStream(12, "mgr"), RESEARCH_SCANNERS)


def pulse_columns(*legs):
    """:class:`PulseColumns` over ``(amplifier_ip, victim_ip, start,
    duration, query_rate)`` legs, each aimed at port 80 in mode 7."""
    amp_ip, victim_ip, start, duration, rate = zip(*legs)
    fixed = np.ones(len(legs), dtype=np.int64)
    return PulseColumns(
        np.array(amp_ip, dtype=np.int64),
        np.array(victim_ip, dtype=np.int64),
        80 * fixed,
        7 * fixed,
        np.array(start, dtype=np.float64),
        np.array(duration, dtype=np.float64),
        np.array(rate, dtype=np.float64),
    )


def test_server_materialized_once(host):
    manager = make_manager()
    a = manager.server_for(host)
    b = manager.server_for(host)
    assert a is b
    assert manager.n_materialized == 1
    assert manager.is_materialized(host.ip)


def test_sync_is_monotonic(host):
    manager = make_manager()
    manager.sync(host, date_to_sim(2014, 1, 10))
    with pytest.raises(ValueError):
        manager.sync(host, date_to_sim(2014, 1, 1))


def test_background_clients_appear(host):
    manager = make_manager()
    server = manager.sync(host, date_to_sim(2014, 1, 10))
    # Every background client that has started polling appears.
    expected = host.clients.state_at(date_to_sim(2014, 1, 10))
    for ip, port, count, first, last in expected:
        record = server.table.get(ip)
        assert record is not None
        assert record.count == count


def test_sync_idempotent_for_background(host):
    manager = make_manager()
    t = date_to_sim(2014, 1, 10)
    a = manager.sync(host, t).table.entries_mru(t)
    b = manager.sync(host, t).table.entries_mru(t)
    assert a == b


def test_research_scanners_recorded(host):
    manager = make_manager()
    t = date_to_sim(2014, 2, 1)
    server = manager.sync(host, t)
    onp = next(s for s in RESEARCH_SCANNERS if s.name == "onp-monlist")
    record = server.table.get(onp.ip)
    assert record is not None
    # Four ONP sweeps by Feb 1 (Jan 10, 17, 24, 31).
    assert record.count == 4
    assert record.mode == 7


def test_attack_pulse_applied_between_syncs(host):
    manager = make_manager()
    t0 = date_to_sim(2014, 1, 10)
    manager.sync(host, t0)
    manager.register_pulse_columns(pulse_columns((host.ip, 0xDEADBEEF, t0 + 86400, 60.0, 10.0)))
    server = manager.sync(host, t0 + 7 * 86400)
    record = server.table.get(0xDEADBEEF)
    assert record is not None
    assert record.count == 600


def test_pulse_not_applied_twice(host):
    manager = make_manager()
    t0 = date_to_sim(2014, 1, 10)
    manager.register_pulse_columns(pulse_columns((host.ip, 0xCAFE, t0 + 100, 10.0, 10.0)))
    manager.sync(host, t0 + 1000)
    server = manager.sync(host, t0 + 2000)
    assert server.table.get(0xCAFE).count == 100


def test_inflight_pulse_not_recorded(host):
    manager = make_manager()
    t0 = date_to_sim(2014, 1, 10)
    manager.register_pulse_columns(pulse_columns((host.ip, 0xBEEF, t0 - 50, 1000.0, 10.0)))
    server = manager.sync(host, t0)
    assert server.table.get(0xBEEF) is None
    # Once the pulse has ended it shows up whole.
    server = manager.sync(host, t0 + 2000)
    assert server.table.get(0xBEEF).count == 10000


def test_legs_apply_in_end_order_across_syncs(host):
    """Legs given out of order, some on another amplifier, land at the
    sync whose window holds their end — not their start — exactly once."""
    manager = make_manager()
    t0 = date_to_sim(2014, 1, 10)
    manager.register_pulse_columns(
        pulse_columns(
            (host.ip, 0xA1, t0 + 300, 60.0, 10.0),  # ends t0 + 360
            (host.ip + 1, 0xA1, t0 + 10, 5.0, 10.0),  # another amplifier
            (host.ip, 0xA2, t0 + 100, 900.0, 10.0),  # ends t0 + 1000
            (host.ip, 0xA3, t0 + 400, 1.0, 10.0),  # ends t0 + 401
        )
    )
    server = manager.sync(host, t0 + 400)
    assert server.table.get(0xA1).count == 600
    assert server.table.get(0xA2) is None and server.table.get(0xA3) is None
    server = manager.sync(host, t0 + 500)
    assert server.table.get(0xA3).count == 10
    assert server.table.get(0xA2) is None
    server = manager.sync(host, t0 + 1000)
    assert server.table.get(0xA2).count == 9000
    assert server.table.get(0xA1).count == 600


def test_malicious_activity_creates_scanner_entries(host):
    manager = make_manager()
    from repro.sim.events import ScanSweep

    t0 = date_to_sim(2014, 1, 10)
    # Enough summed coverage (8 x 0.9 = 7.2 expected hits) that the
    # host's deterministic per-host stream certainly lands some: hit
    # counts are drawn from a stream keyed by (manager rng, host ip).
    sweeps = [
        ScanSweep(
            t=t0 - i * 86400,
            scanner_ip=50000 + i,
            kind="malicious",
            mode=7,
            coverage=0.9,
            targets_per_second=100.0,
            ttl=54,
            duration=3600.0,
        )
        for i in range(8)
    ]
    manager.register_malicious_activity(sweeps)
    server = manager.sync(host, t0 + 10)
    scanner_ips = range(50000, 50008)
    scanner_records = [server.table.get(ip) for ip in scanner_ips if ip in server.table]
    assert scanner_records  # high coverage => hits expected


def test_restart_flushes_old_state():
    """A host with a short restart interval forgets pre-flush history."""
    rng = RngStream(13, "restart-test")
    registry = ASRegistry(rng.child("asn"), n_ases=300)
    pbl = PolicyBlockList(registry)
    pool = build_host_pool(rng.child("hosts"), registry, pbl, PoolParams(scale=0.0002))
    host = next(
        h
        for h in pool.monlist_hosts
        if h.restart_interval is not None and h.restart_interval < 5 * 86400 and h.birth == 0.0
    )
    manager = make_manager()
    t0 = date_to_sim(2014, 1, 10)
    manager.register_pulse_columns(pulse_columns((host.ip, 0xF00D, t0 + 3600, 10.0, 100.0)))
    assert manager.sync(host, t0 + 7200).table.get(0xF00D).count == 1000
    # After more than a restart interval, the victim entry must be gone.
    server = manager.sync(host, t0 + 3600 + 3 * host.restart_interval)
    assert server.table.get(0xF00D) is None
