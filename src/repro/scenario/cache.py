"""Content-addressed persistent world cache.

``PaperWorld.build`` is deterministic in ``(seed, WorldParams)``, so a
built world can be reused across processes — provided the cached bytes
really correspond to the world being asked for.  This module owns that
correspondence:

* the **cache key** is a SHA-256 over the fully-resolved
  :class:`~repro.scenario.world.WorldParams` fields *and* the package
  version, so a parameter change, a different seed, or upgrading the
  simulator all miss the cache instead of silently serving a stale world;
* every cache file embeds the same ``(version, params)`` envelope it was
  keyed by, and :func:`load_world` re-validates it on the way in — a file
  renamed, copied between checkouts, or written by an older ``repro``
  is rejected (``CacheMiss``) rather than trusted.  A file starts with
  a short prefix naming its layout, then holds the envelope and the
  world as two pickles: a file in any other layout misses before
  anything is unpickled, and a stale envelope misses before the world
  is.  Build checkpoints (:mod:`repro.scenario.checkpoint`) share this
  layout through :func:`write_enveloped` and :func:`read_enveloped`.

Two consumers:

* the CLI ``--cache PATH`` flag (one explicit file, validated on load);
* the ``REPRO_WORLD_CACHE`` environment variable (a cache *directory*,
  keyed automatically), honored by ``benchmarks/conftest.py`` and
  :func:`build_world_cached`.
"""

import dataclasses
import hashlib
import os
import pickle
import sys

from repro.util.io import atomic_write_stream

__all__ = [
    "CACHE_ENV_VAR",
    "CacheMiss",
    "cache_key",
    "cached_world_path",
    "save_world",
    "load_world",
    "build_world_cached",
    "write_enveloped",
    "read_enveloped",
]

#: Environment variable naming the cache directory for keyed world reuse.
CACHE_ENV_VAR = "REPRO_WORLD_CACHE"

#: Bumped independently of the package version when the cache file
#: layout changes (2: envelope and world as two pickles, hosts packed;
#: 3: the layout prefix).
_ENVELOPE_FORMAT = 3

#: The first bytes of every world cache file.
_WORLD_LAYOUT = b"repro/world:envelope,world\n"


class CacheMiss(Exception):
    """The cache has no usable entry (absent, stale, or corrupt)."""


def _package_version():
    from repro import __version__

    return __version__


def cache_key(params):
    """Deterministic hex key for a world: resolved params + package version.

    Uses the *resolved* AS count so ``n_ases=None`` and an explicit equal
    count share an entry, and includes every other ``WorldParams`` field by
    name so adding a field changes the key rather than aliasing old entries.
    """
    fields = dataclasses.asdict(params)
    fields["n_ases"] = params.resolved_n_ases()
    material = repr(
        (
            "repro-world",
            _ENVELOPE_FORMAT,
            _package_version(),
            sorted(fields.items()),
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def cached_world_path(params, cache_dir=None):
    """The keyed file path for ``params`` (under ``cache_dir`` or the
    ``REPRO_WORLD_CACHE`` directory); None when no directory is configured."""
    directory = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    return os.path.join(directory, f"world-{cache_key(params)[:24]}.pkl")


def write_enveloped(path, layout, fmt, params, payload, **extra):
    """Write ``layout``, an envelope, then ``payload`` to ``path``.

    The envelope is a small pickle of ``fmt``, the package version,
    ``params`` and any ``extra`` fields; ``payload`` is the second
    pickle.  Written atomically (:func:`~repro.util.io.atomic_write_stream`):
    a crashed or failed writer leaves neither a truncated file nor its
    temp file behind.  Returns ``path``.
    """
    envelope = {"format": fmt, "version": _package_version(), "params": params, **extra}

    def write(handle):
        handle.write(layout)
        pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

    return atomic_write_stream(path, write)


def read_enveloped(path, layout, fmt, params, kind, check=None):
    """``(envelope, payload)`` from a file :func:`write_enveloped` wrote.

    Raises :class:`CacheMiss` when the file is absent, starts with
    anything but ``layout``, is unreadable, or its envelope is stale: a
    format other than ``fmt``, another package version, other params, or
    a reason ``check(envelope)`` returns.  Nothing is unpickled before
    the prefix matches, and the payload only once the envelope passes.
    ``kind`` names the file in the miss note.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(layout))
            if head != layout:
                raise CacheMiss(f"unreadable {kind} file {path}: {_layout_of(head)}")
            envelope = pickle.load(handle)
            reason = _stale_reason(envelope, fmt, params) or (check and check(envelope))
            if reason:
                raise CacheMiss(f"{path}: {reason}")
            return envelope, pickle.load(handle)
    except CacheMiss:
        raise
    except FileNotFoundError:
        raise CacheMiss(f"no {kind} file at {path}") from None
    except Exception as exc:  # noqa: BLE001 -- unpickling garbage raises
        # whatever opcode happens to decode first (ValueError, KeyError,
        # UnpicklingError, ...); any failure to load is a miss, never a crash.
        raise CacheMiss(f"unreadable {kind} file {path}: {exc}") from None


def _layout_of(head):
    """Name the layout of a file whose first bytes are ``head``."""
    if not head:
        return "empty file"
    if head[:1] == pickle.PROTO:
        return "a bare pickle with no layout prefix (the layout before format 3)"
    return f"unknown layout starting {head[:16]!r}"


def _stale_reason(envelope, fmt, params):
    if not isinstance(envelope, dict):
        return "no validation envelope"
    if envelope.get("format") != fmt:
        return f"envelope format {envelope.get('format')!r}"
    if envelope.get("version") != _package_version():
        return f"written by repro {envelope.get('version')!r}, this is {_package_version()!r}"
    try:
        params_match = envelope.get("params") == params
    except Exception:  # noqa: BLE001 -- a params object unpickled from an
        # older schema can fail dataclass comparison (missing fields); any
        # comparison failure is a stale file, never a crash.
        params_match = False
    if not params_match:
        return f"built for {envelope.get('params')!r}, requested {params!r}"
    return None


def save_world(world, path):
    """Save ``world`` to ``path`` behind its validation envelope."""
    return write_enveloped(path, _WORLD_LAYOUT, _ENVELOPE_FORMAT, world.params, world)


def load_world(path, params):
    """Load a cached world from ``path``, validating it matches ``params``.

    Raises :class:`CacheMiss` when the file is absent, in another layout,
    unreadable, written by a different package version, or built from
    different params — the caller should rebuild (and usually re-save).
    The world is unpickled on a match alone.
    """
    return read_enveloped(path, _WORLD_LAYOUT, _ENVELOPE_FORMAT, params, "cache")[1]


def build_world_cached(params, cache_dir=None, quiet=True, note=None, jobs=1):
    """Build a world through the keyed directory cache (if configured).

    With no cache directory (argument or ``REPRO_WORLD_CACHE``), this is
    exactly ``PaperWorld.build``.  Otherwise a valid entry is loaded, and
    a miss triggers a build followed by a best-effort save.  ``note`` is
    an optional callable receiving one human-readable status line
    (defaults to stderr when ``quiet`` is false).

    ``jobs`` only parallelizes a cache-missed build; it is deliberately
    NOT part of the cache key, because the built world is byte-identical
    at any ``jobs`` — a world built with 8 workers is a valid hit for a
    serial request and vice versa.
    """
    from repro.scenario.world import PaperWorld

    def tell(message):
        if note is not None:
            note(message)
        elif not quiet:
            print(message, file=sys.stderr)

    path = cached_world_path(params, cache_dir)
    if path is None:
        return PaperWorld.build(params=params, quiet=quiet, jobs=jobs)
    try:
        world = load_world(path, params)
        tell(f"(loaded cached world from {path})")
        return world
    except CacheMiss as miss:
        tell(f"(world cache miss: {miss})")
    world = PaperWorld.build(params=params, quiet=quiet, jobs=jobs)
    try:
        save_world(world, path)
        tell(f"(cached world to {path})")
    except OSError as exc:
        tell(f"(could not write world cache {path}: {exc})")
    return world
