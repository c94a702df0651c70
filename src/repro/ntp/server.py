"""A simulated ntpd server.

Each simulated server owns a monlist MRU table and a configuration that
determines which of the paper's three query surfaces it exposes:

* mode 3 time service (every NTP server),
* mode 6 ``version`` (READVAR) responses (the 4M-strong pool of §3.3), and
* mode 7 ``monlist`` responses for one or both private-mode implementation
  codes (the 1.4M-strong amplifier pool of §3.1).

The *mega amplifier* pathology of §3.4 — a routing/switching loop or stack
flaw causing one query to be re-processed many times, each time re-sending an
updated table — is modeled by ``loop_factor``: a query is recorded
``loop_factor`` times and the reply is the rendered table repeated
``loop_factor`` times.  Replies are therefore returned as a
:class:`ProbeReply` that stores one rendition plus the repeat count, so a
136 GB reply never has to be materialized packet by packet.
"""

from dataclasses import dataclass, field

from repro.net.framing import on_wire_bytes
from repro.ntp.constants import (
    CTL_OP_READVAR,
    IMPL_XNTPD,
    IMPL_XNTPD_OLD,
    MODE6_DATA_AREA,
    MODE_CLIENT,
    MODE_CONTROL,
    MODE_PRIVATE,
    NTP_PORT,
    REQ_MON_GETLIST,
    REQ_MON_GETLIST_1,
    STRATUM_UNSYNCHRONIZED,
)
from repro.ntp.monlist import MonlistTable
from repro.ntp.variables import render_system_variables
from repro.ntp.wire import (
    decode_mode3_or_4,
    decode_mode6,
    decode_mode7,
    encode_mode4,
    encode_mode6_response,
    mode_of,
)

__all__ = ["ServerConfig", "ProbeReply", "NtpServer", "REQUEST_CODE_TO_IMPL"]

#: Which implementation code each monlist request code belongs with.
REQUEST_CODE_TO_IMPL = {
    REQ_MON_GETLIST: IMPL_XNTPD_OLD,
    REQ_MON_GETLIST_1: IMPL_XNTPD,
}

#: Entry format served per implementation code.
_ENTRY_VERSION_OF_IMPL = {IMPL_XNTPD_OLD: 1, IMPL_XNTPD: 2}


@dataclass(frozen=True)
class ServerConfig:
    """Behavioral knobs of one simulated ntpd instance."""

    stratum: int = 3
    system: str = "Linux/3.2.0"
    processor: str = "x86_64"
    daemon_version: str = "4.2.6p5"
    compile_year: int = 2012
    refid: str = "10.3.2.1"
    monlist_enabled: bool = True
    #: Which mode-7 implementation codes this build answers monlist for.
    implementations: frozenset = frozenset({IMPL_XNTPD})
    responds_version: bool = True
    #: >1 turns the server into a mega amplifier (§3.4).
    loop_factor: int = 1
    #: Seconds between daemon restarts (table flushes); None = never.
    restart_interval: float = None
    #: How many optional system variables the build reports (reply size).
    extra_vars: int = 4

    def __post_init__(self):
        if self.loop_factor < 1:
            raise ValueError("loop_factor must be >= 1")
        if not 0 <= self.stratum <= 16:
            raise ValueError("stratum must be 0..16")

    @property
    def is_unsynchronized(self):
        return self.stratum == STRATUM_UNSYNCHRONIZED


@dataclass(frozen=True)
class ProbeReply:
    """A possibly-repeated reply to a single query packet.

    ``packets`` is one rendition of the reply (raw bytes); the full reply on
    the wire is that rendition repeated ``n_repeats`` times.  Packet sizes are
    identical across repetitions (fixed-width binary entries), so aggregate
    sizes are exact without materialization.
    """

    packets: tuple
    n_repeats: int = 1

    def __post_init__(self):
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")

    @property
    def total_packets(self):
        return len(self.packets) * self.n_repeats

    @property
    def payload_bytes_once(self):
        return sum(len(p) for p in self.packets)

    @property
    def total_payload_bytes(self):
        return self.payload_bytes_once * self.n_repeats

    @property
    def on_wire_bytes_once(self):
        return sum(on_wire_bytes(len(p)) for p in self.packets)

    @property
    def total_on_wire_bytes(self):
        return self.on_wire_bytes_once * self.n_repeats

    def materialize(self, max_packets=10_000):
        """Expand repetitions into a flat packet list, bounded for safety."""
        if self.total_packets > max_packets:
            raise ValueError(
                f"refusing to materialize {self.total_packets} packets (> {max_packets})"
            )
        out = []
        for _ in range(self.n_repeats):
            out.extend(self.packets)
        return out


class NtpServer:
    """One simulated NTP server with its monitor table and restart cycle."""

    def __init__(self, ip, config=None, capacity=None):
        self.ip = ip
        self.config = config or ServerConfig()
        self.table = MonlistTable() if capacity is None else MonlistTable(capacity)
        # Deterministic restart phase so flush times differ across servers.
        interval = self.config.restart_interval
        self._next_flush = None if interval is None else (ip % 997) / 997.0 * interval
        # The mode-6 version reply is a pure function of the (frozen)
        # config and ip, so it is rendered at most once per server.
        self._version_reply = None

    # -- restart / flush cycle -------------------------------------------------

    def maybe_flush(self, now):
        """Flush the table for every restart boundary passed before ``now``."""
        interval = self.config.restart_interval
        if interval is None:
            return False
        flushed = False
        while self._next_flush is not None and self._next_flush <= now:
            self.table.clear()
            self._next_flush += interval
            flushed = True
        return flushed

    @property
    def next_flush(self):
        return self._next_flush

    # -- traffic recording ------------------------------------------------------

    def record_client(self, addr, port, mode, version, now, packets=1, span=0.0):
        """Record arbitrary observed traffic into the monitor table."""
        self.maybe_flush(now)
        self.table.record(addr, port, mode, version, now, packets=packets, span=span)

    # -- query handling -----------------------------------------------------------

    def respond_monlist(self, src_ip, src_port, now, implementation=IMPL_XNTPD):
        """Handle one monlist probe; returns a :class:`ProbeReply` or None.

        The probe itself is always recorded (ntpd monitors all traffic);
        whether a reply comes back depends on the server's configuration and
        on the implementation code probed — a build answers only its own.
        """
        self.record_client(src_ip, src_port, MODE_PRIVATE, 2, now, packets=self.config.loop_factor)
        return self.monlist_reply(now, implementation)

    def monlist_reply(self, now, implementation=IMPL_XNTPD):
        """Render the monlist reply as of ``now`` without recording a probe.

        The bulk sampler records every probe up front (ntpd monitors all
        traffic regardless of response-path loss) and renders replies only
        for the probes whose responses survive the loss draw; rendering is
        a pure function of the table at ``now``, so deferring it past the
        draw yields the same bytes :meth:`respond_monlist` would have.
        """
        if not self.config.monlist_enabled:
            return None
        if implementation not in self.config.implementations:
            return None
        entry_version = _ENTRY_VERSION_OF_IMPL[implementation]
        packets = self.table.render_response_packets(now, entry_version, implementation)
        return ProbeReply(packets=tuple(packets), n_repeats=self.config.loop_factor)

    def respond_version(self, src_ip, src_port, now, record=True):
        """Handle one mode-6 READVAR ("version") probe.

        ``record=False`` renders the reply without logging the probe in the
        monitor table — used by samplers that decide only afterwards
        whether the probe ever reached the server (probe-path loss).
        """
        loop = self.config.loop_factor
        if record:
            self.record_client(src_ip, src_port, MODE_CONTROL, 2, now, packets=loop)
        if not self.config.responds_version:
            return None
        if self._version_reply is not None:
            return self._version_reply
        cfg = self.config
        payload = render_system_variables(
            cfg.daemon_version,
            cfg.compile_year,
            cfg.system,
            cfg.processor,
            cfg.stratum,
            cfg.refid,
            extra_vars=cfg.extra_vars,
            weekday_index=self.ip % 7,
        ).encode("ascii")
        fragments = [
            payload[i : i + MODE6_DATA_AREA] for i in range(0, len(payload), MODE6_DATA_AREA)
        ] or [b""]
        packets = []
        for index, fragment in enumerate(fragments):
            packets.append(
                encode_mode6_response(
                    CTL_OP_READVAR,
                    fragment,
                    sequence=index,
                    offset=index * MODE6_DATA_AREA,
                    more=index < len(fragments) - 1,
                )
            )
        self._version_reply = ProbeReply(packets=tuple(packets), n_repeats=loop)
        return self._version_reply

    def respond_time(self, src_ip, src_port, now):
        """Handle a normal mode-3 client poll with a mode-4 reply."""
        self.record_client(src_ip, src_port, MODE_CLIENT, 4, now)
        leap = 3 if self.config.is_unsynchronized else 0
        packet = encode_mode4(self.config.stratum, leap=leap)
        return ProbeReply(packets=(packet,))

    def handle_datagram(self, data, src_ip, src_port, now):
        """Full protocol path: decode a raw query and dispatch it.

        Returns a :class:`ProbeReply` (or ``None`` when the server does not
        answer that query).  This is the byte-level entry point used by the
        examples and protocol tests; bulk simulation uses the ``respond_*``
        methods directly.
        """
        mode = mode_of(data)
        if mode == MODE_PRIVATE:
            packet = decode_mode7(data)
            if packet.response:
                return None
            impl = REQUEST_CODE_TO_IMPL.get(packet.request_code, packet.implementation)
            return self.respond_monlist(src_ip, src_port, now, implementation=impl)
        if mode == MODE_CONTROL:
            packet = decode_mode6(data)
            if packet.response or packet.opcode != CTL_OP_READVAR:
                return None
            return self.respond_version(src_ip, src_port, now)
        if mode == MODE_CLIENT:
            decode_mode3_or_4(data)
            return self.respond_time(src_ip, src_port, now)
        return None

    # -- sizing helpers -----------------------------------------------------------

    def monlist_reply_size(self, now, implementation=IMPL_XNTPD):
        """(packets, payload bytes, on-wire bytes) of a monlist reply *now*,
        without mutating the table.  Used for attack-volume accounting."""
        if not self.config.monlist_enabled or implementation not in self.config.implementations:
            return (0, 0, 0)
        entry_version = _ENTRY_VERSION_OF_IMPL[implementation]
        packets = self.table.render_response_packets(now, entry_version, implementation)
        loop = self.config.loop_factor
        payload = sum(len(p) for p in packets)
        wire = sum(on_wire_bytes(len(p)) for p in packets)
        return (len(packets) * loop, payload * loop, wire * loop)
