"""Content-addressed persistent cache for parsed monlist corpora.

The sibling of :mod:`repro.scenario.cache` one layer up the pipeline:
world construction caches the *built* world, this module caches the
*decoded* corpus, so ``render --all``, ``quality``, and repeated
``verify-world`` invocations decode each corpus at most once across
processes.

Correctness follows the same discipline as the world cache:

* the **cache key** is a SHA-256 over the corpus bytes themselves (every
  capture's packets, identity, and repeat count, plus the sample-level
  apparatus flags) and the package version — a world rebuilt with
  different faults, an edited capture, or an upgraded decoder all miss
  instead of silently serving stale tables;
* every cache file embeds the ``(format, version, digest)`` envelope it
  was keyed by and :func:`load_parsed_corpus` re-validates it on the way
  in; any mismatch or unreadable file is a :class:`CacheMiss`, never a
  crash and never a wrong answer.

Nothing here is consulted unless a cache directory is configured (the
``REPRO_PARSE_CACHE`` environment variable or an explicit argument), so
the default pipeline behaviour is unchanged.
"""

import hashlib
import os
import pickle
import struct

from repro.analysis.event_columns import build_event_columns

__all__ = [
    "PARSE_CACHE_ENV_VAR",
    "CacheMiss",
    "corpus_digest",
    "cached_corpus_path",
    "save_parsed_corpus",
    "load_parsed_corpus",
    "load_or_decode_corpus",
]

#: Environment variable naming the parsed-corpus cache directory.
PARSE_CACHE_ENV_VAR = "REPRO_PARSE_CACHE"

#: Bumped when the envelope or digest schema itself changes.  Format 2:
#: the cached payload is an :class:`~repro.analysis.event_columns
#: .EventColumns` (three structured arrays) instead of a list of per-sample
#: objects; format-1 files from older builds simply miss.
_ENVELOPE_FORMAT = 2

_PACK_SAMPLE = struct.Struct(">dBd")
_PACK_CAPTURE = struct.Struct(">IdI")


class CacheMiss(Exception):
    """The cache has no usable entry (absent, stale, or corrupt)."""


def _package_version():
    from repro import __version__

    return __version__


def corpus_digest(samples):
    """SHA-256 over everything the parse layer reads from ``samples``.

    Covers each sample's timestamp and apparatus flags and each capture's
    target, timestamp, repeat count, and raw packet bytes — i.e. the full
    input domain of :func:`~repro.analysis.event_columns.columns_for_sample`.
    Two corpora with equal digests parse to equal results; anything else
    (different faults, seeds, scales, versions of the apparatus) differs
    in at least one hashed byte.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-parsed-corpus/1")
    for sample in samples:
        digest.update(
            _PACK_SAMPLE.pack(
                sample.t,
                1 if getattr(sample, "outage", False) else 0,
                getattr(sample, "coverage", 1.0),
            )
        )
        for capture in sample.captures:
            digest.update(_PACK_CAPTURE.pack(capture.target_ip, capture.t, capture.n_repeats))
            for packet in capture.packets:
                digest.update(struct.pack(">I", len(packet)))
                digest.update(packet)
    return digest.hexdigest()


def cached_corpus_path(digest, cache_dir=None):
    """The keyed file path for a corpus digest (under ``cache_dir`` or the
    ``REPRO_PARSE_CACHE`` directory); None when no directory is configured."""
    directory = cache_dir or os.environ.get(PARSE_CACHE_ENV_VAR)
    if not directory:
        return None
    return os.path.join(directory, f"parsed-{digest[:24]}.pkl")


def save_parsed_corpus(parsed, digest, path):
    """Pickle a parsed corpus to ``path`` with its validation envelope.

    Writes via a temp file + rename so a crashed writer never leaves a
    truncated entry behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = {
        "format": _ENVELOPE_FORMAT,
        "version": _package_version(),
        "digest": digest,
        "parsed": parsed,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_parsed_corpus(path, digest):
    """Load a cached parsed corpus, validating its envelope.

    Raises :class:`CacheMiss` when the file is absent, unreadable, written
    by a different package version, or keyed to a different corpus digest.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CacheMiss(f"no cache file at {path}") from None
    except Exception as exc:  # noqa: BLE001 -- unpickling garbage raises
        # whatever opcode decodes first; any load failure is a miss.
        raise CacheMiss(f"unreadable cache file {path}: {exc}") from None
    if not isinstance(payload, dict) or "parsed" not in payload:
        raise CacheMiss(f"{path} has no validation envelope")
    if payload.get("format") != _ENVELOPE_FORMAT:
        raise CacheMiss(f"{path}: cache envelope format {payload.get('format')!r}")
    if payload.get("version") != _package_version():
        raise CacheMiss(
            f"{path}: written by repro {payload.get('version')!r}, "
            f"this is {_package_version()!r}"
        )
    if payload.get("digest") != digest:
        raise CacheMiss(f"{path}: digest mismatch (stale or foreign entry)")
    return payload["parsed"]


def load_or_decode_corpus(samples, jobs=1, cache_dir=None):
    """Parse ``samples`` through the keyed directory cache (if configured).

    The decode runs through the columnar path: one
    :class:`~repro.analysis.event_columns.EventColumns` batch per corpus,
    returned as its list of per-sample
    :class:`~repro.analysis.event_columns.ColumnarSample` views (all views
    share the one column store, which is what the cache pickles).

    Returns ``(parsed, n_parses)`` where ``n_parses`` is how many sample
    decodes actually ran: ``0`` on a cache hit, ``len(samples)`` otherwise
    — callers feed it straight into the parse-once ledger so a cache hit
    is visible in the accounting rather than impersonating a decode.
    With no cache directory this is exactly ``build_event_columns``.
    """
    samples = list(samples)
    directory = cache_dir or os.environ.get(PARSE_CACHE_ENV_VAR)
    if not directory:
        return build_event_columns(samples, jobs=jobs).sample_views(), len(samples)
    digest = corpus_digest(samples)
    path = cached_corpus_path(digest, directory)
    try:
        return load_parsed_corpus(path, digest).sample_views(), 0
    except CacheMiss:
        pass
    columns = build_event_columns(samples, jobs=jobs)
    try:
        save_parsed_corpus(columns, digest, path)
    except OSError:
        pass  # unwritable cache never blocks the pipeline
    return columns.sample_views(), len(samples)
