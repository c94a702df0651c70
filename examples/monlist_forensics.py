#!/usr/bin/env python
"""Monlist forensics, packet by packet.

Recreates §4.1's Table 3 from first principles: a simulated ntpd server is
fed normal clients, a research scanner, an ONP-style probe, and a spoofed
DDoS attack; we then send it a *raw* mode-7 monlist request, decode the
raw response packets with the ntpdc protocol logic, print the table, and
run the paper's victim-classification filter over it.

Usage::

    python examples/monlist_forensics.py
"""

from repro.analysis import classify_entry
from repro.attack import ONP_PROBER_IP
from repro.net import on_wire_bytes, parse_ip
from repro.ntp import (
    IMPL_XNTPD,
    NtpServer,
    ServerConfig,
    decode_mode7,
    encode_mode7_request,
)
from repro.ntp.constants import REQ_MON_GETLIST_1
from repro.reporting import render_monlist_table
from repro.util import DAY, HOUR, WEEK


def main():
    server = NtpServer(ip=parse_ip("198.51.100.7"), config=ServerConfig(stratum=3))
    now = 40 * DAY

    # Two normal mode-3 clients (one regular poller, one that synced once).
    poll = 1024.0
    n_polls = int(10 * DAY / poll)
    server.record_client(
        parse_ip("192.0.2.10"), 123, 3, 4,
        now=now - 5 * HOUR, packets=n_polls, span=(n_polls - 1) * poll,
    )
    server.record_client(parse_ip("192.0.2.77"), 36008, 3, 4, now=now - 29 * HOUR)

    # A research survey probing weekly for three weeks (mode 6).
    server.record_client(
        parse_ip("203.0.113.50"), 10151, 6, 2, now=now - 2 * DAY, packets=3, span=2 * WEEK
    )

    # A spoofed monlist DDoS against a victim's UDP port 80 (mode 7):
    # 40 seconds at 400 queries/second, ending 560 s before the probe.
    server.record_client(
        parse_ip("198.18.5.5"), 80, 7, 2, now=now - 560.0, packets=int(400 * 40), span=40.0
    )

    # The ONP probe arrives as a real 8-byte mode-7 packet.
    request = encode_mode7_request(IMPL_XNTPD, REQ_MON_GETLIST_1)
    print(f"probe: {len(request)}-byte UDP payload = {on_wire_bytes(len(request))} bytes on the wire")
    reply = server.handle_datagram(request, ONP_PROBER_IP, 57915, now)

    print(f"reply: {reply.total_packets} packet(s), {reply.total_payload_bytes} payload bytes, "
          f"{reply.total_on_wire_bytes} on-wire bytes "
          f"-> BAF {reply.total_on_wire_bytes / on_wire_bytes(len(request)):.2f}x\n")

    # Decode the raw bytes exactly as ntpdc would.
    entries = []
    for raw in reply.packets:
        packet = decode_mode7(raw)
        entries.extend(packet.items)

    print(render_monlist_table(entries, title="monlist table (cf. paper Table 3)"))
    print()
    for entry in entries:
        verdict = classify_entry(entry)
        print(f"  {entry.addr:>12} mode={entry.mode} count={entry.count:>6} "
              f"interarrival={entry.avg_interval:>9.1f}s -> {verdict}")
    print("\nThe spoofed victim is the only entry the §4.2 filter flags as a victim.")


if __name__ == "__main__":
    main()
