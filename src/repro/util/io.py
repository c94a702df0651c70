"""Atomic file writes: temp file + ``os.replace``.

Every writer of a file another process may read — the world cache,
build checkpoints, BENCH records, golden manifests, conformance
reports, rendered artifacts — gets the same guarantee: a reader never
observes a truncated file.  Either the old bytes are still
there or the new bytes are complete; an interrupted writer leaves at
worst an orphaned ``*.tmp.<pid>`` alongside, never a half-written
target.
"""

from __future__ import annotations

import json
import os

__all__ = ["atomic_write_stream", "atomic_write_bytes", "atomic_write_text", "atomic_write_json"]


def atomic_write_stream(path, write):
    """Replace ``path`` atomically with what ``write(handle)`` writes to
    a binary temp file beside it; returns ``path``.  The bytes stream to
    disk (a large pickle is never held in memory), and on any exception
    the temp file is deleted before the exception propagates."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_bytes(path, data):
    """Write ``data`` to ``path`` atomically; returns ``path``."""
    return atomic_write_stream(path, lambda handle: handle.write(data))


def atomic_write_text(path, text, encoding="utf-8"):
    """Write ``text`` to ``path`` atomically; returns ``path``."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path, record, indent=2, sort_keys=True):
    """Serialize ``record`` and write it atomically with a trailing
    newline.  Serialization happens fully *before* the first byte is
    written, so an unserializable record never touches the target."""
    text = json.dumps(record, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)
