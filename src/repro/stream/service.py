"""A long-running asyncio HTTP/JSON service over one streaming engine.

``python -m repro serve`` builds (or loads) a world, starts ingesting its
replay stream in the background, and answers queries over plain HTTP the
whole time — the serving posture AMON runs in production, scaled down to
the repro.  Everything is standard library: ``asyncio.start_server`` plus
a hand-rolled HTTP/1.1 exchange, because the container ships no aiohttp
and the protocol surface here is tiny.

Connections are **keep-alive** under HTTP/1.1 semantics: persistent
unless the client sends ``Connection: close`` (a client that wants one
request per connection sends it), while an HTTP/1.0 client must opt in
with ``Connection: keep-alive``.  A load generator thus pays the TCP
handshake once per client instead of once per request; the drain summary
reports connections opened next to requests served so the reuse ratio is
visible.

Responses are cached **per version token**: each cached body remembers
the engine version it was rendered at and is revalidated on every
lookup.  Sketch-backed top queries key on their source's mutation
counter (``StreamEngine.query_version``), so a darknet-only batch —
most of a replay — leaves them cached; everything else keys on the
per-record generation, so between ingest batches every target's JSON
body is rendered at most once and served byte-identically.  Hits still
advance the served/rejected counters.

Consistency model
-----------------
The server and the ingest task share one event loop.  Ingestion applies
slices of the replay batch synchronously — :meth:`StreamEngine.ingest_many`
never awaits — and only yields to the loop *between* slices, so every
request handler runs against an engine that is between-records: snapshots
are internally consistent by construction (no torn reads), which the
service tests verify by cross-checking the redundant global counters
inside each response.

Lifecycle
---------
On start the service prints one JSON line (``{"serving": ...}``) to
stdout so callers can discover the bound (possibly ephemeral) port.
SIGTERM and SIGINT drain cleanly: stop accepting, cancel ingestion at a
batch boundary, close open connections, print ``{"drained": ...}``, exit
0 — the no-orphan discipline the supervision tests enforce elsewhere.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from urllib.parse import parse_qsl, urlsplit

from repro.stream.ingest import QUERY_NAMES

__all__ = ["StreamService", "serve_world"]

_MAX_REQUEST_BYTES = 16384


def _dumps(body):
    """Compact JSON (no separator padding): the bodies are machine-read,
    and the windows queries render kilobytes per response."""
    return json.dumps(body, separators=(",", ":"))

#: Response-cache entry cap: distinct well-formed targets number ~a
#: dozen, so growth beyond this means a client is probing — serve those
#: uncached rather than letting them grow the map.
_MAX_CACHED_TARGETS = 256


class StreamService:
    """One engine, one record batch, one asyncio server."""

    def __init__(
        self,
        engine,
        records,
        host="127.0.0.1",
        port=0,
        batch=256,
        pace=0.0,
    ):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.engine = engine
        self.records = records
        self.host = host
        self.port = int(port)
        self.batch = int(batch)
        self.pace = float(pace)
        self.server = None
        self.ingest_task = None
        self.ingest_done = False
        self.ingest_seconds = 0.0
        self.requests_served = 0
        self.requests_rejected = 0
        self.connections_opened = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._response_cache = {}
        self._token_fns = {}
        self._connections = set()
        self._shutdown = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the server and kick off background ingestion."""
        self.server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self.server.sockets[0].getsockname()[1]
        self.ingest_task = asyncio.create_task(self._ingest())
        return self

    async def _ingest(self):
        started = time.monotonic()
        try:
            ingest_many = self.engine.ingest_many
            records, batch = self.records, self.batch
            for lo in range(0, len(records) + 1, batch):
                chunk = records[lo : lo + batch]
                if len(chunk):
                    ingest_many(chunk)
                if len(chunk) < batch:
                    self.engine.close()
                    self.ingest_done = True
                    return
                # Yield between synchronous batches: this await is the
                # only point queries can interleave with ingestion.
                await asyncio.sleep(self.pace)
        finally:
            self.ingest_seconds = time.monotonic() - started

    async def serve_until_shutdown(self):
        """Run until SIGTERM/SIGINT; drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._shutdown.set)
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)

    async def stop(self):
        """Stop accepting, cancel ingestion at a batch boundary, close
        every connection (idle keep-alive readers included)."""
        if self.ingest_task is not None and not self.ingest_task.done():
            self.ingest_task.cancel()
            try:
                await self.ingest_task
            except asyncio.CancelledError:
                pass
        if self.server is not None:
            self.server.close()
        for writer in list(self._connections):
            writer.close()
        if self.server is not None:
            await self.server.wait_closed()

    def describe(self):
        return {
            "host": self.host,
            "port": self.port,
            "queries": list(QUERY_NAMES),
            "batch": self.batch,
            "pace": self.pace,
        }

    def drain_summary(self):
        return {
            "requests_served": self.requests_served,
            "requests_rejected": self.requests_rejected,
            "connections_opened": self.connections_opened,
            "response_cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "records_seen": self.engine.records_seen,
            "ingest_done": self.ingest_done,
            "ingest_seconds": round(self.ingest_seconds, 4),
            "balanced": self.engine.balanced,
        }

    # -- HTTP exchanges ------------------------------------------------------

    async def _handle(self, reader, writer):
        self.connections_opened += 1
        self._connections.add(writer)
        try:
            while True:
                exchange = await self._respond(reader)
                if exchange is None:
                    break  # clean EOF between requests
                keep, status, payload = exchange
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
                ).encode()
                writer.write(head + payload)
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, reader):
        """Read one request; returns ``(keep_alive, status, payload)`` or
        ``None`` on a clean end-of-connection.

        Only bodiless requests are read.  A request that declares a body
        (a non-zero ``Content-Length`` or any ``Transfer-Encoding``) is
        refused with 400; a head over ``_MAX_REQUEST_BYTES`` or a line
        over the reader's limit with 431.  Each refusal closes the
        connection, because the bytes after it cannot be framed: read on,
        they would be answered as requests of their own.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            return self._refuse(431, "request line too long")
        except ConnectionResetError:
            return self._refuse(400, "unreadable request")
        if not request_line:
            return None
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return self._refuse(400, "malformed request line")
        method, target = parts[0], parts[1]
        version = parts[2] if len(parts) > 2 else "HTTP/1.0"
        # Read the head, watching for the Connection token and for any
        # header that declares a body.  Clients send the head in one
        # segment, so these reads are served from the buffered data
        # without extra loop wake-ups.
        connection = None
        head_bytes = len(request_line)
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return self._refuse(431, "header line too long")
            head_bytes += len(line)
            if head_bytes > _MAX_REQUEST_BYTES:
                return self._refuse(431, "request head too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"connection":
                connection = value.strip().lower()
            elif name in (b"content-length", b"transfer-encoding"):
                # Only an explicit zero length declares no body.
                length = value.strip()
                if name == b"transfer-encoding" or not length or length.strip(b"0"):
                    return self._refuse(400, "request bodies are not accepted")
        keep = (
            connection == b"keep-alive"
            if version != "HTTP/1.1"
            else connection != b"close"
        )
        if method != "GET":
            self.requests_rejected += 1
            body = {"error": f"method {method} not allowed (GET only)"}
            return keep, 405, _dumps(body).encode()
        status, payload = self._response_for(target)
        return keep, status, payload

    def _refuse(self, status, error):
        """Count a refused request; its response closes the connection."""
        self.requests_rejected += 1
        return False, status, _dumps({"error": error}).encode()

    def _token_fn_for(self, target):
        """The zero-argument version probe for ``target``'s cache entry.

        Query targets validate against the engine's ``query_version``
        (per-source mutation counters for the sketch tops); everything
        else validates against the global generation.
        """
        engine = self.engine
        path = urlsplit(target).path.rstrip("/")
        if path.startswith("/query/"):
            name = path[len("/query/"):]
            return lambda: engine.query_version(name)
        return lambda: ("g", engine.generation)

    def _response_for(self, target):
        """The rendered response, served from the cache while the
        engine state the target reads is unchanged.

        Each entry remembers the version token it was rendered at; a
        lookup re-probes the token and re-renders on mismatch, so stale
        entries are replaced in place (no global clear on generation
        moves — a capture-keyed top answer survives darknet batches).
        """
        token_fn = self._token_fns.get(target)
        if token_fn is None:
            token_fn = self._token_fn_for(target)
            if len(self._token_fns) < _MAX_CACHED_TARGETS:
                self._token_fns[target] = token_fn
        token = token_fn()
        entry = self._response_cache.get(target)
        if entry is None or entry[0] != token:
            self.cache_misses += 1
            status, body = self._route(target)
            entry = (token, status, _dumps(body).encode())
            if (
                target in self._response_cache
                or len(self._response_cache) < _MAX_CACHED_TARGETS
            ):
                self._response_cache[target] = entry
        else:
            self.cache_hits += 1
        _token, status, payload = entry
        if status == 200:
            self.requests_served += 1
        else:
            self.requests_rejected += 1
        return status, payload

    def _route(self, target):
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        params = dict(parse_qsl(url.query))
        if path == "/health":
            return 200, {
                "ok": True,
                "records_seen": self.engine.records_seen,
                "ingest_done": self.ingest_done,
                "watermark": self.engine.watermark,
            }
        if path == "/stats":
            return 200, self.engine.snapshot()
        if path.startswith("/query/"):
            name = path[len("/query/"):]
            try:
                result = self.engine.query(name, **params)
            except KeyError as exc:
                return 400, {"error": str(exc.args[0])}
            except (TypeError, ValueError) as exc:
                return 400, {"error": f"bad query parameters: {exc}"}
            return 200, {"query": name, "result": result}
        return 404, {"error": f"no route {path!r} (try /health, /stats, /query/<name>)"}


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    431: "Request Header Fields Too Large",
}


async def serve_world(
    world,
    host="127.0.0.1",
    port=0,
    skew=0.0,
    batch=256,
    pace=0.0,
):
    """Build engine + replay for ``world``, serve until SIGTERM/SIGINT.

    Prints the ``{"serving": ...}`` discovery line on start and the
    ``{"drained": ...}`` summary on exit; returns 0 (the CLI exit code).
    """
    from repro.stream.ingest import StreamEngine
    from repro.stream.replay import replay_plan, replay_records

    plan = replay_plan(world)
    engine = StreamEngine.for_world(world, plan=plan, skew=skew)
    service = StreamService(
        engine,
        replay_records(world),
        host=host,
        port=port,
        batch=batch,
        pace=pace,
    )
    await service.start()
    print(json.dumps({"serving": {**service.describe(), "plan": plan["expected"]}}), flush=True)
    await service.serve_until_shutdown()
    print(json.dumps({"drained": service.drain_summary()}), flush=True)
    return 0
