"""Streaming analysis: the batch pipeline's signals, answered online.

The batch pipeline answers the paper's questions after the fact: build
world -> parse corpus -> render.  Merit's follow-on architecture (AMON)
answers the same signals *online* over multi-gigabit streams with
bounded-memory sketches, and mid-campaign views of exactly this kind
underpin the later IXP amplification studies.  This package is that
serving layer for the repro:

* :mod:`repro.stream.replay` — adapters that turn an existing world's
  packed captures and compacted flow arrays into one sim-time-ordered
  record batch (parallel NumPy columns over shared side tables);
* :mod:`repro.stream.windows` — tumbling sim-time windows with
  watermark-based late/duplicate accounting, decided for a whole batch
  at once, and bounded per-window state;
* :mod:`repro.stream.sketches` — count-min and space-saving summaries
  (top victims, top amplifiers, per-AS concentration) with declared,
  mergeable error bounds;
* :mod:`repro.stream.ingest` — the incremental engine tying the three
  together, able to answer Fig 1/7/13-style queries at any mid-window
  point without a full reparse — one vectorized ingest path, whatever
  the batch size;
* :mod:`repro.stream.service` — a long-running asyncio HTTP/JSON service
  over one engine (``python -m repro serve`` / ``repro stream-query``).
  The benchmark's ``serve-live`` and ``serve-steady`` workloads load it
  from outside (``perf/``).

The conformance contract is the heart of the package: the
``world.streaming_matches_batch`` invariant in :mod:`repro.verify`
asserts that at end-of-window the streaming aggregates equal the batch
:class:`~repro.analysis.context.AnalysisContext` answers exactly
(counts) or within the declared sketch bounds (top-K membership and
estimates), across the usual seed x scale x fault matrix.
"""

from repro.stream.ingest import QUERY_NAMES, StreamEngine
from repro.stream.replay import RecordBatch, replay_plan, replay_records
from repro.stream.service import StreamService, serve_world
from repro.stream.sketches import CountMinSketch, SpaceSavingTopK
from repro.stream.windows import TumblingWindows, WindowSet

__all__ = [
    "QUERY_NAMES",
    "StreamEngine",
    "RecordBatch",
    "StreamService",
    "serve_world",
    "replay_records",
    "replay_plan",
    "CountMinSketch",
    "SpaceSavingTopK",
    "TumblingWindows",
    "WindowSet",
]
