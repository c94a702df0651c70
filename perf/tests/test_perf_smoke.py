"""Smoke tests for the benchmark itself (not part of the tier-1 suite).

Run with ``python -m pytest perf/tests -q`` from the root of a checkout.
Every workload runs for two seconds on a scale-0.0005 world, traced and
untraced; the open-loop generator is checked against a server that
stalls; span self times are checked against their parents.
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perf.common import nproc  # noqa: E402
from perf.openloop import poisson_schedule, run_open_loop  # noqa: E402
from perf.trace import Tracer  # noqa: E402

REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in REGISTRY["workloads"]]


def _run(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perf" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--scale", "0.0005",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, trace): _run(w, trace) for w in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_registered_metric_present_finite_with_unit(runs, workload, trace):
    record = runs[(workload, trace)]
    assert record["correct"] is True
    assert record["attempted"] >= 1 and record["failed"] == 0
    registered = REGISTRY["per_layer"] if trace else REGISTRY["end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in registered}
    for metric in registered:
        value = record["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["unit"]
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, metric["name"]


def test_every_per_layer_metric_measured_by_some_workload(runs):
    # A layer idle in a workload reads 0; a metric that reads 0 in every
    # workload is one no workload actually measures (or a misspelt name).
    zero_when_healthy = {
        "util.pool.retries", "stream.ingest.late", "stream.ingest.duplicate",
        "stream.service.rejected",
    }  # fmt: skip
    if nproc() < 2:  # the fork pools never engage on one CPU
        zero_when_healthy |= {
            "util.pool.build_busy_s", "util.pool.build_efficiency",
            "util.pool.build_engaged_phases", "util.pool.render_engaged",
        }  # fmt: skip
    for metric in REGISTRY["per_layer"]:
        name = metric["name"]
        if name not in zero_when_healthy:
            assert any(runs[(w, 1)]["metrics"][name]["value"] for w in WORKLOADS), name


def test_trace_files_self_time_within_parent(runs):
    for workload in WORKLOADS:
        trace = json.loads((ROOT / ".perfcache" / "traces" / f"{workload}-seed3.json").read_text())
        spans = {(s.get("job"), s["id"]): s for s in trace["spans"]}
        assert spans, workload
        for span in spans.values():
            duration = span["end"] - span["start"]
            assert -1e-9 <= span["self"] <= duration + 1e-9
            if span["parent"] is not None:
                parent = spans[(span.get("job"), span["parent"])]
                assert span["self"] <= parent["end"] - parent["start"] + 1e-9


def test_self_time_subtracts_overlapping_children_once():
    tracer = Tracer()

    async def request(delay):
        with tracer.span("child"):
            await asyncio.sleep(delay)

    async def main():
        with tracer.span("parent"):
            await asyncio.gather(request(0.05), request(0.05))
            await asyncio.sleep(0.05)

    asyncio.run(main())
    own = tracer.self_times()
    parent = next(s for s in tracer.spans if s.name == "parent")
    children = [s for s in tracer.spans if s.name == "child"]
    assert all(child.parent == parent.id and child.trace == parent.trace for child in children)
    assert 0.03 < own[parent.id] < parent.duration - 0.03
    for span in tracer.spans:
        assert 0.0 <= own[span.id] <= span.duration
        if span.parent is not None:
            assert own[span.id] <= parent.duration


class _StallingServer:
    """A keep-alive HTTP server on its own thread and event loop that
    answers at once, except that it blocks its whole loop for
    ``stall_s`` when the first request after ``stall_at_s`` arrives."""

    def __init__(self, stall_at_s, stall_s):
        self.stall_at_s = stall_at_s
        self.stall_s = stall_s
        self.stalled = False
        self.port = None
        self._ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()

    def _serve(self):
        asyncio.set_event_loop(self._loop)
        server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0)
        )
        self.port = server.sockets[0].getsockname()[1]
        self.started = time.perf_counter()
        self._ready.set()
        self._loop.run_forever()
        server.close()
        self._loop.run_until_complete(server.wait_closed())
        self._loop.close()

    async def _handle(self, reader, writer):
        try:
            while True:
                await reader.readuntil(b"\r\n\r\n")
                late = time.perf_counter() - self.started > self.stall_at_s
                if self.stall_s and late and not self.stalled:
                    self.stalled = True
                    time.sleep(self.stall_s)  # blocks every connection
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


def _open_loop_against(stall_s):
    with _StallingServer(stall_at_s=0.5, stall_s=stall_s) as server:
        schedule = poisson_schedule(200.0, 1.5, ("/x",), seed=11)
        return asyncio.run(run_open_loop("127.0.0.1", server.port, schedule, connections=2))


def test_open_loop_p99_shows_a_server_stall():
    steady = _open_loop_against(stall_s=0.0)
    stalled = _open_loop_against(stall_s=0.3)
    assert steady.failed == stalled.failed == 0
    # ~60 of ~300 requests fall due during the stall, and each is timed
    # from its due time, so the stall reaches the p99.  A closed loop
    # would have sent just one request per connection into it.
    assert stalled.latency_ms(99) > 150.0
    assert steady.latency_ms(99) < 50.0
    # The wait piles up at the connections, not in the generator's loop.
    assert 1000.0 * max(stalled.conn_wait) > 100.0
    assert 1000.0 * max(stalled.late) < 50.0
