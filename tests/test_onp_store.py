"""The columnar ONP sweep against the per-host oracle, capture for capture.

Both paths run the same block worker contract over generated blocks: the
store (``repro.measurement.onp._onp_block_worker``) and the per-host sync
and render (``tests.onp_oracle.oracle_block_worker``) must give the same
packed captures, byte for byte, and the same mangler log.  Most examples
run with a tiny table capacity, so that tables prune.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.scanner import ONP_PROBER_IP, RESEARCH_SCANNERS
from repro.faults import FaultInjector, FaultProfile
from repro.measurement.amplifier_state import AmplifierStateManager
from repro.measurement.onp import OnpProber, _onp_block_worker
from repro.ntp import decode_mode7
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD, MONLIST_CAPACITY
from repro.population.amplifiers import BackgroundClients, HostPool, NtpHost, PoolParams
from repro.population.columns import PulseColumns
from repro.population.osmodel import SystemAttributes
from repro.sim.events import ScanSweep
from repro.util import RngStream, date_to_sim
from repro.util.simtime import DAY, HOUR

from tests.onp_oracle import oracle_block_worker

#: The first ONP sweep: a multiple of every restart interval below, so a
#: server at an IP divisible by 997 restarts exactly at sample times.
T0 = date_to_sim(2014, 1, 10)
STEPS = (6 * HOUR, DAY / 2, DAY, 2 * DAY)
IMPLEMENTATIONS = (
    frozenset({IMPL_XNTPD}),
    frozenset({IMPL_XNTPD, IMPL_XNTPD_OLD}),
    frozenset({IMPL_XNTPD_OLD}),
)
LOOPS = (1, 1, 3, 40_000, 2_700_000)
RESTARTS = (None, 6 * HOUR, DAY / 2, DAY, 1.7 * DAY, 3 * DAY, 9 * DAY)
#: Few server IPs, so hosts share them; two restart on exact boundaries.
HOST_IPS = (997 * 4_000_000, 997 * 3_000_001, 0x0A000005, 0x0A000006, 0x0A000007)
VICTIM_IPS = (0x0C000001, 0x0C000002, 0x0C000003)
MALICIOUS_IPS = (0x0D000001, 0x0D000002)
#: Client addresses collide with the prober, a research scanner, a victim
#: and a malicious scanner, and with each other.
CLIENT_IPS = (ONP_PROBER_IP, RESEARCH_SCANNERS[3].ip, VICTIM_IPS[0], MALICIOUS_IPS[0]) + tuple(
    0x0B000001 + i for i in range(8)
)
MANGLING = FaultProfile(
    onp_truncate_rate=0.5, onp_duplicate_rate=0.3, onp_reorder_rate=0.3, onp_corrupt_rate=0.3
)


@st.composite
def clients(draw, birth):
    n = draw(st.integers(0, 40))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CLIENT_IPS),
                st.integers(1024, 65535),
                st.sampled_from((64.0, 1000.0, 2048.0, 6 * HOUR, DAY, 14 * DAY)),
                st.floats(-3 * DAY, 12 * DAY),
                st.booleans(),
            ),
            min_size=n,
            max_size=n,
        )
    )
    ips, ports, intervals, offsets, one_shot = zip(*rows) if rows else ((),) * 5
    return BackgroundClients(
        ips=np.array(ips, dtype=np.int64),
        ports=np.array(ports, dtype=np.int64),
        intervals=np.array(intervals, dtype=np.float64),
        first_polls=np.maximum(birth, T0 + np.array(offsets, dtype=np.float64)),
        one_shot=np.array(one_shot, dtype=bool),
    )


@st.composite
def hosts(draw):
    birth = draw(st.sampled_from((0.0, 0.0, T0 - 3 * DAY, T0 + DAY / 2, T0 + 2 * DAY)))
    death = draw(st.sampled_from((None, None, T0 + DAY, T0 + 5 * DAY)))
    host = NtpHost(
        ip=draw(st.sampled_from(HOST_IPS)),
        asn=1,
        continent="EU",
        country="DE",
        is_end_host=False,
        attrs=SystemAttributes("linux", "Linux/3.2.0", "x86_64", "4.2.6p5", 2012, draw(st.integers(1, 16))),
        responds_version=draw(st.sampled_from((True, True, False))),
        monlist_amplifier=draw(st.sampled_from((True, True, True, False))),
        implementations=draw(st.sampled_from(IMPLEMENTATIONS[:1] * 2 + IMPLEMENTATIONS)),
        base_clients=0,
        primed_full=False,
        loop_factor=draw(st.sampled_from(LOOPS)),
        restart_interval=draw(st.sampled_from(RESTARTS)),
        birth=birth,
        death=death,
        remediation_time=draw(st.sampled_from((None, None, T0 + 3 * DAY))),
        version_off_time=draw(st.sampled_from((None, None, T0 + 4 * DAY))),
    )
    host.clients = None if draw(st.integers(0, 4)) == 0 else draw(clients(birth))
    return host


@st.composite
def blocks(draw):
    """``(hosts, schedule, plan, legs, malicious sweeps)`` of one block."""
    block_hosts = draw(st.lists(hosts(), min_size=1, max_size=6))
    step = draw(st.sampled_from(STEPS))
    entries = draw(st.lists(st.tuples(st.integers(0, 10), st.sampled_from((6, 7))), min_size=1, max_size=8))
    schedule = sorted({(T0 + k * step, mode) for k, mode in entries})
    n_mon = sum(h.monlist_amplifier for h in block_hosts)
    n_ver = sum(h.responds_version for h in block_hosts)
    plan = []
    for _, mode in schedule:
        outage = draw(st.integers(0, 9)) == 9
        limit = None if draw(st.integers(0, 3)) else draw(st.integers(0, n_mon if mode == 7 else n_ver))
        plan.append((outage, limit, 1.0))
    times = [t for t, _ in schedule]
    legs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(HOST_IPS),
                st.sampled_from(VICTIM_IPS),
                st.sampled_from(times),
                st.sampled_from((-DAY, -1.0, 0.0, 0.0, 1.0, 5 * HOUR)),
                st.sampled_from((1.0, 60.0, 3600.0, 5 * DAY)),
                st.sampled_from((0.5, 10.0, 1000.0)),
                st.sampled_from((6, 7)),
            ),
            max_size=12,
        )
    )
    sweeps = [
        ScanSweep(T0 + day * DAY + 100.0, ip, "malicious", mode, coverage, 100.0, 54, 3600.0)
        for day, ip, mode, coverage in draw(
            st.lists(
                st.tuples(
                    st.integers(-8, 10),
                    st.sampled_from(MALICIOUS_IPS),
                    st.sampled_from((6, 7)),
                    st.floats(0.05, 1.0),
                ),
                max_size=10,
            )
        )
    ]
    return block_hosts, schedule, plan, legs, sweeps


def _pulse_columns(legs):
    amp, victim, end, shift, duration, rate, mode = (np.array(column) for column in zip(*legs))
    start = end + shift - duration
    return PulseColumns(
        amp.astype(np.int64),
        victim.astype(np.int64),
        np.full(len(legs), 123, dtype=np.int64),
        mode.astype(np.int64),
        start.astype(np.float64),
        duration.astype(np.float64),
        rate.astype(np.float64),
    )


def _run_both(block, capacity, loss, mangle, seed=5):
    block_hosts, schedule, plan, legs, sweeps = block
    pool = HostPool(block_hosts, PoolParams(), block_lengths=[len(block_hosts)])
    feeds = AmplifierStateManager(RngStream(seed, "state"), RESEARCH_SCANNERS, table_capacity=capacity)
    feeds.register_malicious_activity(sweeps)
    if legs:
        feeds.register_pulse_columns(_pulse_columns(legs))
    faults = FaultInjector(MANGLING, RngStream(seed, "faults")) if mangle else None
    prober = OnpProber(feeds, loss_rate=loss, faults=faults)
    ctx = (prober, pool, RngStream(seed, "onp"), schedule, plan)
    return _onp_block_worker(ctx, 0), oracle_block_worker(ctx, 0)


def _assert_same(got, want):
    (got_parts, got_log), (want_parts, want_log) = got, want
    assert got_log == want_log
    assert len(got_parts) == len(want_parts)
    for mine, theirs in zip(got_parts, want_parts):
        assert (mine is None) == (theirs is None)
        if mine is None:
            continue
        assert mine.t == theirs.t
        for name in ("target_ips", "n_repeats", "pkt_counts", "pkt_offsets", "pkt_lens", "byte_offsets"):
            assert getattr(mine, name).tolist() == getattr(theirs, name).tolist(), name
        assert np.asarray(mine.payload).tobytes() == np.asarray(theirs.payload).tobytes()


@given(
    blocks(),
    st.sampled_from((2, 3, 5, MONLIST_CAPACITY)),
    st.sampled_from((0.0, 0.05, 0.5)),
    st.booleans(),
)
@settings(max_examples=150)
def test_store_equals_per_host_sync(block, capacity, loss, mangle):
    _assert_same(*_run_both(block, capacity, loss, mangle))


def test_version_flush_leaves_a_stale_flush_base():
    """A restart passed inside a version sweep clears the table, but the
    next monlist sync still rebuilds background rows from the older flush
    base, so polls from before that restart come back (a quirk both paths
    keep: fixing it changes world bytes)."""
    host = NtpHost(
        ip=HOST_IPS[0],
        asn=1,
        continent="EU",
        country="DE",
        is_end_host=False,
        attrs=SystemAttributes("linux", "Linux/3.2.0", "x86_64", "4.2.6p5", 2012, 3),
        responds_version=True,
        monlist_amplifier=True,
        implementations=frozenset({IMPL_XNTPD}),
        base_clients=0,
        primed_full=False,
        restart_interval=DAY,
    )
    host.clients = BackgroundClients(
        ips=np.array([0x0B000001], dtype=np.int64),
        ports=np.array([4000], dtype=np.int64),
        intervals=np.array([DAY], dtype=np.float64),
        first_polls=np.array([T0 + DAY / 2], dtype=np.float64),
        one_shot=np.array([True]),
    )
    # Restarts at every T0 + k days: the version probe at T0 + 1.5 d passes
    # the one at T0 + 1 d, and the monlist sync at T0 + 1.75 d passes none.
    schedule = [(T0, 7), (T0 + 1.5 * DAY, 6), (T0 + 1.75 * DAY, 7)]
    plan = [(False, None, 1.0)] * 3
    got, want = _run_both(([host], schedule, plan, [], []), MONLIST_CAPACITY, 0.0, False)
    _assert_same(got, want)
    last = got[0][-1].views()[0]
    entries = [entry for packet in last.packets for entry in decode_mode7(packet).items]
    stale = [e for e in entries if e.addr == 0x0B000001]
    # Polled once at T0 + 0.5 d, before the restart at T0 + 1 d.
    assert stale and stale[0].last_int == int(1.25 * DAY)
