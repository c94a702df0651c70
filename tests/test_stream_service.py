"""Service lifecycle: start/query/shutdown, snapshot consistency, 4xx.

Two layers of coverage:

* in-process asyncio tests drive :class:`StreamService` directly —
  concurrent queries during ingestion must return internally consistent
  snapshots (no torn reads), malformed queries must come back as 4xx
  JSON rather than crashing the loop;
* a subprocess test runs the real ``python -m repro serve`` CLI, queries
  it over HTTP, sends SIGTERM, and asserts a clean drain (exit 0, the
  drained summary line, no process left behind) — the no-orphan
  discipline of ``tests/test_supervision.py`` applied to the server.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.scenario.world import PaperWorld
from repro.stream import StreamEngine, StreamService, replay_plan, replay_records

SCALE = 0.0002
SEED = 7


@pytest.fixture(scope="module")
def small_world():
    return PaperWorld.build(seed=SEED, scale=SCALE)


def _service_for(world):
    plan = replay_plan(world)
    engine = StreamEngine.for_world(world, plan=plan)
    # Tiny batches maximize ingest/query interleaving: more chances to
    # catch a torn read if one were possible.
    return StreamService(engine, replay_records(world), batch=16), plan


# ---------------------------------------------------------------------------
# In-process: consistency and error handling
# ---------------------------------------------------------------------------


def test_concurrent_queries_see_consistent_snapshots(small_world):
    async def exercise():
        service, plan = _service_for(small_world)
        await service.start()
        host, port = service.host, service.port
        inconsistencies = []

        async def reader():
            while not service.ingest_done:
                status, body = await _fetch_method(host, port, "GET", "/stats")
                assert status == 200
                windowed = body["windowed_victim_pairs"]
                total = body["totals"]["victim_pairs"]
                if windowed != total:
                    inconsistencies.append((windowed, total))

        await asyncio.gather(reader(), reader(), reader())
        assert service.ingest_done
        # End state: everything ingested, ledger balanced.
        status, body = await _fetch_method(host, port, "GET", "/query/ingest")
        assert status == 200
        assert body["result"]["balanced"] is True
        assert body["result"]["records_seen"] == plan["expected_total"]
        await service.stop()
        return inconsistencies

    assert asyncio.run(exercise()) == []


def test_malformed_queries_are_4xx_json_not_crashes(small_world):
    async def exercise():
        service, _plan = _service_for(small_world)
        await service.start()
        host, port = service.host, service.port
        cases = [
            ("/query/nonsense", 400),
            ("/query/top_victims?n=banana", 400),
            ("/query/top_victims?n=0", 400),
            ("/nope", 404),
            ("/query/", 404),
        ]
        results = []
        for target, expected in cases:
            status, body = await _fetch_method(host, port, "GET", target)
            results.append((target, status, expected, body))
        # A garbage request line must not kill the server either.
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"\r\n")
        await writer.drain()
        garbage_reply = await reader.read()
        writer.close()
        await writer.wait_closed()
        # POST is rejected, not crashed on.
        post_status, _ = await _fetch_method(host, port, "POST", "/health")
        # The service must still answer normally afterwards.
        status_after, body_after = await _fetch_method(host, port, "GET", "/health")
        await service.stop()
        return results, garbage_reply, post_status, status_after, body_after

    results, garbage_reply, post_status, status_after, body_after = asyncio.run(
        exercise()
    )
    for target, status, expected, body in results:
        assert status == expected, (target, status, body)
        assert "error" in body, target
    assert b"400" in garbage_reply.split(b"\r\n", 1)[0]
    assert post_status == 405
    assert status_after == 200 and body_after["ok"] is True


async def _fetch_method(host, port, method, target):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"{method} {target} HTTP/1.0\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(body)


def test_queries_after_ingest_completion_match_direct_engine(small_world):
    async def exercise():
        service, _plan = _service_for(small_world)
        await service.start()
        while not service.ingest_done:
            await asyncio.sleep(0.01)
        status, body = await _fetch_method(service.host, service.port, "GET", "/query/victims")
        await service.stop()
        return status, body["result"], service.engine

    status, served, engine = asyncio.run(exercise())
    assert status == 200
    assert served == json.loads(json.dumps(engine.query("victims")))


# ---------------------------------------------------------------------------
# Response cache: versioned, never stale
# ---------------------------------------------------------------------------


def _fresh_render(service, target):
    status, body = service._route(target)
    return status, json.dumps(body, separators=(",", ":")).encode()


def test_response_cache_hits_are_byte_identical_and_never_stale(small_world):
    from repro.stream import StreamEngine

    engine = StreamEngine.for_world(small_world, plan=replay_plan(small_world))
    records = replay_records(small_world)
    service = StreamService(engine, records[:0])
    mid = len(records) // 2

    engine.ingest_many(records[:mid])
    status_a, body_a = service._response_for("/query/victims")
    assert (status_a, body_a) == _fresh_render(service, "/query/victims")
    assert service.cache_misses == 1 and service.cache_hits == 0
    # Unchanged engine: served from cache, byte-identical.
    status_b, body_b = service._response_for("/query/victims")
    assert (status_b, body_b) == (status_a, body_a)
    assert service.cache_hits == 1

    # Every applied batch moves the generation: the entry is stale and
    # must be re-rendered against the new state — including across the
    # window closes the second half and close() perform.
    engine.ingest_many(records[mid:])
    engine.close()
    status_c, body_c = service._response_for("/query/victims")
    assert service.cache_misses == 2
    assert (status_c, body_c) == _fresh_render(service, "/query/victims")
    assert body_c != body_a


def test_sketch_backed_tops_survive_darknet_only_batches(small_world):
    import numpy as np

    from repro.stream import RecordBatch, StreamEngine
    from repro.stream.replay import DARKNET

    engine = StreamEngine.for_world(small_world, plan=replay_plan(small_world))
    records = replay_records(small_world)
    service = StreamService(engine, records[:0])
    engine.ingest_many(records[: len(records) // 2])

    service._response_for("/query/top_victims?n=5")
    service._response_for("/query/ingest")
    hits, misses = service.cache_hits, service.cache_misses

    # A one-row darknet batch at the stream head: generation moves (so
    # the accounting query re-renders) but no capture state is touched
    # (so the capture-keyed top stays cached).
    engine.ingest_many(
        RecordBatch(
            t=np.array([engine.max_event_t]),
            kind=np.array([DARKNET], dtype=np.int8),
            a=np.array([-1]),
            b=np.array([7]),
            value=np.zeros(1),
            tables=records.tables,
        )
    )
    status, body = service._response_for("/query/top_victims?n=5")
    assert service.cache_hits == hits + 1
    assert (status, body) == _fresh_render(service, "/query/top_victims?n=5")
    service._response_for("/query/ingest")
    assert service.cache_misses == misses + 1


# ---------------------------------------------------------------------------
# Keep-alive: connection reuse, Connection: close, HTTP/1.0 close
# ---------------------------------------------------------------------------


async def _raw_exchange(reader, writer, target, version="HTTP/1.1", headers=""):
    writer.write(f"GET {target} {version}\r\n{headers}\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    body = await reader.readexactly(length)
    return head, json.loads(body)


def test_keepalive_connection_serves_many_requests(small_world):
    async def exercise():
        service, _plan = _service_for(small_world)
        await service.start()
        reader, writer = await asyncio.open_connection(service.host, service.port)
        bodies = []
        for _ in range(3):
            head, body = await _raw_exchange(reader, writer, "/health")
            assert b"Connection: keep-alive" in head
            bodies.append(body)
        writer.close()
        await writer.wait_closed()
        opened, served = service.connections_opened, service.requests_served
        await service.stop()
        return bodies, opened, served

    bodies, opened, served = asyncio.run(exercise())
    assert all(body["ok"] is True for body in bodies)
    # The reuse satellite's point: one connection, many requests.
    assert opened == 1 and served == 3


def test_connection_close_request_is_answered_then_closed(small_world):
    """An HTTP/1.1 client that wants one request per connection sends
    ``Connection: close``: one response, then the server closes."""

    async def exercise():
        service, _plan = _service_for(small_world)
        await service.start()
        reader, writer = await asyncio.open_connection(service.host, service.port)
        head, body = await _raw_exchange(
            reader, writer, "/health", headers="Connection: close\r\n"
        )
        trailing = await reader.read()  # server closes: EOF after the body
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return head, body, trailing

    head, body, trailing = asyncio.run(exercise())
    assert b"Connection: close" in head
    assert body["ok"] is True
    assert trailing == b""


def test_http10_client_without_keepalive_header_gets_closed(small_world):
    async def exercise():
        service, _plan = _service_for(small_world)
        await service.start()
        reader, writer = await asyncio.open_connection(service.host, service.port)
        head, body = await _raw_exchange(reader, writer, "/health", version="HTTP/1.0")
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return head, body, trailing

    head, body, trailing = asyncio.run(exercise())
    assert b"Connection: close" in head
    assert body["ok"] is True
    assert trailing == b""


# ---------------------------------------------------------------------------
# Framing: request bodies and oversized heads
# ---------------------------------------------------------------------------


class _RecordingWriter:
    """Stands in for a connection's ``StreamWriter``: keeps every byte
    the service writes and whether it closed the connection."""

    def __init__(self):
        self.data = b""
        self.closed = False

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def _converse(service, raw):
    """Run one connection of ``service`` over the bytes ``raw``; returns
    ``[(status, connection header)]`` for every response it wrote."""

    async def exercise():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        writer = _RecordingWriter()
        await service._handle(reader, writer)
        assert writer.closed
        return writer.data

    data = asyncio.run(exercise())
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        fields = dict(line.split(b": ", 1) for line in lines[1:])
        length = int(fields[b"Content-Length"])
        responses.append((int(lines[0].split()[1]), fields[b"Connection"]))
        data = rest[length:]
    return responses


#: A complete request, smuggled as the body of another.
_SMUGGLED = b"GET /query/scanners HTTP/1.1\r\n\r\n"


@pytest.mark.parametrize(
    "raw, status",
    [
        pytest.param(
            b"POST /query/victims HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(_SMUGGLED), _SMUGGLED),
            400,
            id="post-declaring-body",
        ),
        pytest.param(
            b"GET /query/victims HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(_SMUGGLED), _SMUGGLED),
            400,
            id="get-declaring-body",
        ),
        pytest.param(
            b"GET /query/victims HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"20\r\n%s\r\n0\r\n\r\n" % _SMUGGLED,
            400,
            id="get-chunked-body",
        ),
        pytest.param(
            b"GET /health HTTP/1.1\r\n"
            + b"".join(b"X-Pad-%05d: %s\r\n" % (i, b"x" * 100) for i in range(200))
            + b"\r\n",
            431,
            id="head-over-16k",
        ),
        pytest.param(
            b"GET /health HTTP/1.1\r\nX-Long: " + b"x" * 70_000 + b"\r\n\r\n",
            431,
            id="line-over-reader-limit",
        ),
    ],
)
def test_unframeable_request_is_refused_once_and_closes(small_world, raw, status):
    """Nothing after a body or an oversized head is parsed as a request:
    one refusal, counted, then the connection closes."""
    service, _plan = _service_for(small_world)
    assert _converse(service, raw) == [(status, b"close")]
    assert service.requests_rejected == 1
    assert service.requests_served == 0


def test_pipelined_bodiless_gets_are_all_answered(small_world):
    """Framing checks leave pipelining alone; ``Content-Length: 0``
    declares no body."""
    service, _plan = _service_for(small_world)
    raw = (
        b"GET /health HTTP/1.1\r\n\r\n"
        b"GET /query/ingest HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
    )
    assert _converse(service, raw) == [(200, b"keep-alive"), (200, b"keep-alive")]
    assert service.requests_served == 2
    assert service.requests_rejected == 0


# ---------------------------------------------------------------------------
# Subprocess: the real CLI, SIGTERM drain, no orphans
# ---------------------------------------------------------------------------


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_serve_cli_lifecycle_sigterm_drains_cleanly():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--seed",
            str(SEED),
            "--scale",
            str(SCALE),
            "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        serving = json.loads(proc.stdout.readline())["serving"]
        base = f"http://127.0.0.1:{serving['port']}"
        with urllib.request.urlopen(base + "/health", timeout=10) as response:
            health = json.loads(response.read())
        assert health["ok"] is True
        with urllib.request.urlopen(
            base + "/query/top_victims?n=3", timeout=10
        ) as response:
            top = json.loads(response.read())
        assert top["query"] == "top_victims"
        assert len(top["result"]["entries"]) <= 3

        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode == 0, stdout
    drained = json.loads(stdout.strip().splitlines()[-1])["drained"]
    assert drained["requests_served"] >= 2
    assert drained["balanced"] is True

    deadline = time.time() + 10
    while time.time() < deadline:
        if not _pid_exists(proc.pid):
            break
        time.sleep(0.1)
    assert not _pid_exists(proc.pid), "serve process survived SIGTERM"
