"""The ``serve-live`` and ``serve-steady`` workloads: ``repro serve`` under open-loop load.

Both spawn ``python -m repro serve`` on the cached clean world and send it
the query mix below from :mod:`perf.openloop`, over at most ``nproc``
keep-alive connections.

* ``serve-live`` loads the service while it ingests (``--pace 0.25``
  stretches the replay's ~95 batches over ~24 s, past the load window), so
  queries queue behind ingest batches and the latency shows it.
* ``serve-steady`` paces nothing, waits for ``/health`` to report
  ``ingest_done`` and only then loads the service: read-only HTTP plus
  the response cache, which no ingest change should move.

Set-up is timed ``SETUPS`` times per run (spawn until ``/health``
answers, or until it reports the ingest drained for ``serve-steady``);
the last server
spawned takes the load.  ``serve-steady`` also checks every distinct body
served for each ``/query/*`` target against an in-process engine fed the
same world.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from urllib.parse import parse_qsl, urlsplit

from perf.common import ROOT, Result, child_env, median, nproc, percentile
from perf.common import world_cache_path, world_params
from perf.openloop import max_rate_within, poisson_schedule, run_open_loop
from perf.trace import Tracer

#: The service's representative query mix, copied here so that a change
#: to the program cannot change the workload.
QUERY_MIX = (
    "/query/victims",
    "/query/top_victims?n=10",
    "/query/scanners",
    "/query/top_ases?n=5",
    "/query/traffic",
    "/query/ingest",
    "/health",
)

SCALE = 0.005
FAULTS = "clean"
BATCH = 512
SETUPS = 3
LIVE = {"rate": 500.0, "pace": 0.25}
STEADY = {"rate": 1000.0, "pace": 0.0}
#: The diagnostic rate ladder a traced ``serve-steady`` run climbs after
#: its main window: the highest step whose p99 stays within the limit.
LADDER_RATES = (1000, 2000, 3000, 4000, 5000)
LATENCY_LIMIT_MS = 20.0
_START_TIMEOUT_S = 120.0


def run_live(seed, seconds, trace, scale=None):
    return _run(seed, seconds, trace, scale, LIVE, steady=False)


def run_steady(seed, seconds, trace, scale=None):
    return _run(seed, seconds, trace, scale, STEADY, steady=True)


class _Server:
    """One ``repro serve`` process and a thread reading its stdout lines."""

    def __init__(self, path, params, pace):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--cache", path,
            "--seed", str(params.seed),
            "--scale", repr(params.scale),
            "--faults", FAULTS,
            "--batch", str(BATCH),
            "--pace", str(pace),
            "--quiet",
        ]  # fmt: skip
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_json(self, key, timeout):
        """The payload of the next stdout JSON line carrying ``key``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"repro serve printed no {key!r} line in {timeout:.0f} s")
            if line is None:
                raise RuntimeError(f"repro serve exited before printing {key!r}")
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and key in payload:
                return payload[key]

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM, then the ``drained`` summary; always reaps the process."""
        try:
            self.process.send_signal(signal.SIGTERM)
            return self.wait_json("drained", 30.0)
        finally:
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self._reader.join(timeout=5.0)
            self.process.stdout.close()


def _wait_healthy(host, port, ingest_done, timeout=_START_TIMEOUT_S):
    """Poll ``/health`` until it answers (and, with ``ingest_done``, until
    it reports the replay fully ingested).  The ``serving`` line is printed
    before the service installs its SIGTERM handler; an answered request
    means the handler is in place, so the server can be stopped cleanly."""
    deadline = time.monotonic() + timeout
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        while time.monotonic() < deadline:
            connection.request("GET", "/health")
            health = json.loads(connection.getresponse().read())
            if health.get("ingest_done") or not ingest_done:
                return
            time.sleep(0.01)
    finally:
        connection.close()
    raise RuntimeError(f"ingest not done after {timeout:.0f} s")


def _run(seed, seconds, trace, scale, load, steady):
    params = world_params(SCALE if scale is None else scale, FAULTS)
    path = world_cache_path(params)
    result = Result()
    setups = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            server = _Server(path, params, load["pace"])
            serving = server.wait_json("serving", _START_TIMEOUT_S)
            host, port = serving["host"], serving["port"]
            _wait_healthy(host, port, ingest_done=steady)
            setups.append(time.perf_counter() - started)

        # A traced steady run gives half its window to the rate ladder.
        ladder = trace and steady
        window = seconds / 2 if ladder else seconds
        schedule = poisson_schedule(load["rate"], window, QUERY_MIX, seed)
        bodies = {}

        def on_reply(target, status, body):
            if steady and status == 200:
                bodies.setdefault(target, Counter())[body] += 1

        tracer = Tracer() if trace else None
        served = asyncio.run(
            run_open_loop(host, port, schedule, nproc(), on_reply=on_reply, tracer=tracer)
        )
        max_qps = 0.0
        if ladder:
            max_qps = asyncio.run(
                max_rate_within(
                    host, port, LADDER_RATES, window / len(LADDER_RATES), QUERY_MIX,
                    seed, nproc(), LATENCY_LIMIT_MS,
                )
            )
        peak_mb = server.peak_rss_mb()
        drained = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()

    result.attempted += len(schedule)
    result.failed += served.failed
    if served.failed:
        result.problems.append(f"{served.failed} of {len(schedule)} requests failed")
    result.check(drained["balanced"], "service ingest ledger unbalanced")
    if steady:
        result.check(drained["ingest_done"], "service stopped before ingest was done")
        for count, problem in _mismatched_bodies(params, path, bodies):
            result.failed += count
            result.problems.append(problem)

    latency_ms = [1000.0 * s for s in served.latency]
    result.samples = {
        "latency_ms": latency_ms,
        "setup_s": setups,
        "peak_rss_mb": [peak_mb],
    }
    result.details = {"p99_ms": [percentile(latency_ms, 99)]}
    if trace:
        result.spans = tracer.records()
        cache = drained["response_cache"]
        lookups = cache["hits"] + cache["misses"]
        traced = [s for s, on in zip(served.latency, served.traced) if on]
        untraced = [s for s, on in zip(served.latency, served.traced) if not on]
        result.layers = {
            "stream.service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "stream.service.cache_misses": float(cache["misses"]),
            "stream.service.connections": float(drained["connections_opened"]),
            "stream.service.rejected": float(drained["requests_rejected"]),
            "stream.service.ingest_excess_s": drained["ingest_seconds"]
            - (drained["records_seen"] // BATCH) * load["pace"],
            "loadgen.late_p99_ms": 1000.0 * percentile(served.late, 99),
            "loadgen.conn_wait_p99_ms": 1000.0 * percentile(served.conn_wait, 99),
            "loadgen.max_qps_p99_20ms": max_qps,
            "trace.overhead": median(traced) / median(untraced),
        }
    return result


def _mismatched_bodies(params, path, bodies):
    """``(replies, problem)`` for each distinct ``/query/*`` body that
    differs from an in-process engine's answer on the same world."""
    from repro.scenario.cache import load_world
    from repro.stream import StreamEngine, replay_plan, replay_records

    world = load_world(path, params)
    engine = StreamEngine.for_world(world, plan=replay_plan(world))
    records = replay_records(world)
    for lo in range(0, len(records), BATCH):
        engine.ingest_many(records[lo : lo + BATCH])
    engine.close()
    for target, counts in sorted(bodies.items()):
        url = urlsplit(target)
        if not url.path.startswith("/query/"):
            continue
        name = url.path[len("/query/"):]
        answer = {"query": name, "result": engine.query(name, **dict(parse_qsl(url.query)))}
        expected = json.loads(json.dumps(answer))
        for body, count in counts.items():
            if json.loads(body) != expected:
                yield count, f"{target}: {count} replies differ from the engine's answer"
