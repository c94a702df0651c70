"""Open-loop HTTP load from one asyncio process.

A closed loop (``repro.stream.loadgen``) sends a client's next request
only after its previous reply, so a stalled server simply receives fewer
requests and the stall hides in the few replies that were slow: the
coordinated-omission error.  Here every request's due time is fixed
before the run starts, from seeded Poisson arrivals.  A request's latency
runs from its due time to its parsed reply, so a stall delays every
request due during it, as it would delay independent users.

The generator holds at most a few keep-alive connections.  A due request
waits for a free one, and that wait counts in its latency.  Two more
numbers tell a client-side shortfall from a server one:

* ``late`` — how long after its due time the generator woke to send each
  request (the client's own loop falling behind);
* ``conn_wait`` — how long each request then waited for a free connection
  (all connections busy with slower replies).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field

from perf.common import percentile
from perf.trace import NULL_TRACER

__all__ = ["OpenLoopResult", "poisson_schedule", "run_open_loop", "max_rate_within"]

#: Seconds between building the connections and the first due time.
_LEAD_S = 0.05


def poisson_schedule(rate, seconds, targets, seed):
    """``[(offset seconds, target)]``: Poisson arrivals at ``rate`` per
    second over ``seconds``, each target drawn uniformly from ``targets``;
    the same seed gives the same schedule."""
    rng = random.Random(seed)
    schedule = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        schedule.append((offset, rng.choice(targets)))
        offset += rng.expovariate(rate)
    return schedule


@dataclass
class OpenLoopResult:
    """Per-request seconds, in schedule order.  A failed request's
    latency is ``inf``: it misses any latency limit."""

    latency: list = field(default_factory=list)
    late: list = field(default_factory=list)
    conn_wait: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    failed: int = 0

    def latency_ms(self, q):
        return 1000.0 * percentile(self.latency, q)


class _Connection:
    """One keep-alive HTTP/1.1 connection, reopened after any failure."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.reader = self.writer = None

    async def get(self, target):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self.writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode("latin-1")
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        status_line, _, headers = head.decode("latin-1").partition("\r\n")
        status = int(status_line.split()[1])
        length = None
        keep = True
        for line in headers.split("\r\n"):
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep = value.strip().lower() == "keep-alive"
        if length is None:
            raise ValueError("reply without Content-Length")
        body = await self.reader.readexactly(length)
        if not keep:
            await self.close()
        return status, body

    async def close(self):
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def run_open_loop(
    host, port, schedule, connections, on_reply=None, tracer=None, timeout=10.0
):
    """Send ``schedule`` (see :func:`poisson_schedule`) over at most
    ``connections`` keep-alive connections.

    ``on_reply(target, status, body)`` sees every reply.  With a
    ``tracer``, every other request is recorded as a ``loadgen.request``
    span (timed from its due time) with ``loadgen.conn_wait`` and
    ``loadgen.http`` children, and ``result.traced`` marks which, so the
    caller can set traced latencies against untraced ones.  A request
    with no reply within ``timeout`` seconds fails.
    """
    pool = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(_Connection(host, port))
    n = len(schedule)
    result = OpenLoopResult(
        latency=[math.inf] * n,
        late=[0.0] * n,
        conn_wait=[0.0] * n,
        traced=[tracer is not None and i % 2 == 0 for i in range(n)],
    )

    async def send(index, due, target):
        spans = tracer if result.traced[index] else NULL_TRACER
        with spans.span("loadgen.request", start=due):
            with spans.span("loadgen.conn_wait"):
                queued = time.perf_counter()
                connection = await pool.get()
                result.conn_wait[index] = time.perf_counter() - queued
            try:
                with spans.span("loadgen.http"):
                    status, body = await asyncio.wait_for(connection.get(target), timeout)
            except (OSError, ValueError, asyncio.IncompleteReadError, asyncio.TimeoutError):
                await connection.close()
                result.failed += 1
                return
            finally:
                pool.put_nowait(connection)
        if status == 200:
            result.latency[index] = time.perf_counter() - due
        else:
            result.failed += 1
        if on_reply is not None:
            on_reply(target, status, body)

    tasks = []
    start = time.perf_counter() + _LEAD_S
    try:
        for index, (offset, target) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.late[index] = max(0.0, time.perf_counter() - due)
            tasks.append(asyncio.create_task(send(index, due, target)))
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        while not pool.empty():
            await pool.get_nowait().close()
    return result


async def max_rate_within(host, port, rates, step_seconds, targets, seed, connections, limit_ms):
    """The highest of ``rates`` (ascending) whose open-loop p99 stays
    within ``limit_ms`` with no failed request, or 0.0 if none does.  A
    backlog that grows during a step shows as a p99 past the limit."""
    best = 0.0
    for step, rate in enumerate(rates):
        schedule = poisson_schedule(rate, step_seconds, targets, seed + step)
        result = await run_open_loop(host, port, schedule, connections)
        if result.failed or result.latency_ms(99) > limit_ms:
            break
        best = float(rate)
    return best
