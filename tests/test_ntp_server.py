"""Tests for the simulated ntpd server."""

import pytest

from repro.net import on_wire_bytes
from repro.ntp import (
    IMPL_XNTPD,
    IMPL_XNTPD_OLD,
    NtpServer,
    ProbeReply,
    ServerConfig,
    decode_mode6,
    decode_mode7,
    encode_mode6_request,
    encode_mode7_request,
    parse_system_variables,
)
from repro.measurement import AmplifierStateManager
from repro.ntp.constants import CTL_OP_READVAR, REQ_MON_GETLIST, REQ_MON_GETLIST_1
from repro.population.amplifiers import NtpHost
from repro.population.osmodel import SystemAttributes
from repro.util import RngStream

from tests.onp_oracle import StoreSync
from tests.test_measurement_state import pulse_columns

ONP_IP = 0xCB000001
AMP_IP = 0x0A0A0A0A
VICTIM_IP = 0x55555555


def seeded_server(**config_kwargs):
    server = NtpServer(ip=0x0A0A0A0A, config=ServerConfig(**config_kwargs))
    for i, t in enumerate([100.0, 200.0, 300.0]):
        server.record_client(1000 + i, 123, 3, 4, now=t)
    return server


def test_monlist_probe_recorded_and_answered():
    server = seeded_server()
    reply = server.respond_monlist(ONP_IP, 55555, now=1000.0)
    assert isinstance(reply, ProbeReply)
    pkt = decode_mode7(reply.packets[0])
    assert pkt.n_items == 4
    assert pkt.items[0].addr == ONP_IP  # the probe tops the MRU list
    assert pkt.items[0].mode == 7


def test_monlist_disabled_still_records():
    server = seeded_server(monlist_enabled=False)
    assert server.respond_monlist(ONP_IP, 55555, now=1000.0) is None
    assert ONP_IP in server.table


def test_monlist_wrong_implementation_unanswered():
    server = seeded_server(implementations=frozenset({IMPL_XNTPD_OLD}))
    assert server.respond_monlist(ONP_IP, 55555, now=1000.0, implementation=IMPL_XNTPD) is None
    reply = server.respond_monlist(ONP_IP, 55555, now=1000.0, implementation=IMPL_XNTPD_OLD)
    assert reply is not None
    assert decode_mode7(reply.packets[0]).request_code == REQ_MON_GETLIST


def test_dual_implementation_server():
    server = seeded_server(implementations=frozenset({IMPL_XNTPD, IMPL_XNTPD_OLD}))
    for impl in (IMPL_XNTPD, IMPL_XNTPD_OLD):
        assert server.respond_monlist(ONP_IP, 55555, now=1000.0, implementation=impl)


def test_version_probe():
    server = seeded_server(stratum=2, system="Linux/3.2.0", compile_year=2011)
    reply = server.respond_version(ONP_IP, 55555, now=1000.0)
    pkt = decode_mode6(reply.packets[0])
    variables = parse_system_variables(pkt.data)
    assert variables["system"] == "Linux/3.2.0"
    assert variables["stratum"] == "2"
    assert "2011" in variables["version"]


def test_version_disabled():
    server = seeded_server(responds_version=False)
    assert server.respond_version(ONP_IP, 55555, now=1000.0) is None


def test_handle_datagram_dispatch():
    server = seeded_server()
    now = 1000.0
    monlist = server.handle_datagram(
        encode_mode7_request(IMPL_XNTPD, REQ_MON_GETLIST_1), ONP_IP, 5, now
    )
    assert decode_mode7(monlist.packets[0]).response
    version = server.handle_datagram(encode_mode6_request(CTL_OP_READVAR), ONP_IP, 5, now)
    assert decode_mode6(version.packets[0]).response
    # A mode-3 client poll (LI 0, VN 4, mode 3) is not a probe: no answer.
    mode3 = bytes([0x23]) + bytes(47)
    assert server.handle_datagram(mode3, 777, 123, now) is None


def test_handle_datagram_ignores_responses():
    server = seeded_server()
    reply = server.respond_monlist(ONP_IP, 5, now=1000.0)
    assert server.handle_datagram(reply.packets[0], ONP_IP, 5, 1001.0) is None


def test_loop_factor_repeats_and_count_inflation():
    server = seeded_server(loop_factor=50)
    reply = server.respond_monlist(ONP_IP, 5, now=1000.0)
    assert reply.n_repeats == 50
    assert reply.total_payload_bytes == reply.payload_bytes_once * 50
    assert server.table.get(ONP_IP).count == 50


def test_probe_reply_on_wire_accounting():
    reply = ProbeReply(packets=(b"\x00" * 296,), n_repeats=2)
    assert reply.on_wire_bytes_once == on_wire_bytes(296)
    assert reply.total_on_wire_bytes == 2 * on_wire_bytes(296)


def attacked_record(loop_factor, query_rate, duration, start=5000.0):
    """The victim's monitor-table record after one attack leg through an
    amplifier with ``loop_factor``, folded in by the state manager's sync."""
    host = NtpHost(
        ip=AMP_IP,
        asn=1,
        continent="EU",
        country="DE",
        is_end_host=False,
        attrs=SystemAttributes(
            os_family="linux",
            system="Linux/3.2.0",
            processor="x86_64",
            daemon_version="4.2.6p5",
            compile_year=2012,
            stratum=3,
        ),
        responds_version=False,
        monlist_amplifier=True,
        implementations=frozenset({IMPL_XNTPD}),
        base_clients=0,
        primed_full=False,
        loop_factor=loop_factor,
    )
    feeds = AmplifierStateManager(RngStream(12, "mgr"), [])
    feeds.register_pulse_columns(pulse_columns((AMP_IP, VICTIM_IP, start, duration, query_rate)))
    return StoreSync(feeds, [host]).sync(host, start + duration + 1.0).table.get(VICTIM_IP)


def test_attack_pulse_recording():
    rec = attacked_record(loop_factor=1, query_rate=10.0, duration=40.0)
    assert rec.count == 400
    assert rec.port == 80
    assert rec.mode == 7
    assert rec.last_seen == 5040.0  # the leg's end
    assert rec.first_seen == pytest.approx(5000.0)


def test_loop_factor_multiplies_leg_queries():
    """A looping build processes each spoofed query ``loop_factor`` times."""
    assert attacked_record(loop_factor=7, query_rate=10.0, duration=40.0).count == 7 * 400


def test_uplink_cap_binds_on_long_looped_leg():
    """A loop resends no faster than the uplink's 30K replies a second:
    an hour at 10 queries/s through a 10^5x loop records the cap, not
    the 3.6e9 the loop alone would."""
    rec = attacked_record(loop_factor=100_000, query_rate=10.0, duration=3600.0)
    assert rec.count == 30_000 * 3600


def test_restart_flushes_table():
    server = NtpServer(ip=42, config=ServerConfig(restart_interval=1000.0))
    server.record_client(1, 123, 3, 4, now=10.0)
    assert 1 in server.table
    # Move past the next flush boundary.
    server.record_client(2, 123, 3, 4, now=server.next_flush + 1.0)
    assert 1 not in server.table
    assert 2 in server.table


def test_no_restart_when_disabled():
    server = NtpServer(ip=42, config=ServerConfig(restart_interval=None))
    server.record_client(1, 123, 3, 4, now=10.0)
    assert not server.maybe_flush(1e9)
    assert 1 in server.table


def test_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(loop_factor=0)
    with pytest.raises(ValueError):
        ServerConfig(stratum=17)
