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
  is rejected (``CacheMiss``) rather than trusted.  The envelope is the
  file's first, small pickle and the world its second, so a stale file
  is rejected without unpickling the world.

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
]

#: Environment variable naming the cache directory for keyed world reuse.
CACHE_ENV_VAR = "REPRO_WORLD_CACHE"

#: Bumped independently of the package version when the cache file
#: layout changes (2: envelope and world as two pickles, hosts packed).
_ENVELOPE_FORMAT = 2


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


def _envelope(world):
    return {
        "format": _ENVELOPE_FORMAT,
        "version": _package_version(),
        "params": world.params,
    }


def save_world(world, path):
    """Pickle ``world`` to ``path`` after its validation envelope.

    Written atomically (:func:`~repro.util.io.atomic_write_stream`): a
    crashed or failed writer leaves neither a truncated cache entry nor
    its temp file behind.
    """

    def write(handle):
        pickle.dump(_envelope(world), handle, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)

    return atomic_write_stream(path, write)


def load_world(path, params):
    """Load a cached world from ``path``, validating it matches ``params``.

    Raises :class:`CacheMiss` when the file is absent, unreadable, written
    by a different package version, or built from different params — the
    caller should rebuild (and usually re-save).  Only the envelope is
    read before that verdict; the world is unpickled on a match alone.
    """
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
            _check_envelope(path, envelope, params)
            return pickle.load(handle)
    except CacheMiss:
        raise
    except FileNotFoundError:
        raise CacheMiss(f"no cache file at {path}") from None
    except Exception as exc:  # noqa: BLE001 -- unpickling garbage raises
        # whatever opcode happens to decode first (ValueError, KeyError,
        # UnpicklingError, ...); any failure to load is a miss, never a crash.
        raise CacheMiss(f"unreadable cache file {path}: {exc}") from None


def _check_envelope(path, envelope, params):
    if not isinstance(envelope, dict):
        # Legacy bare-world pickles (pre-envelope) carry no provenance.
        raise CacheMiss(f"{path} has no validation envelope (legacy cache?)")
    if envelope.get("format") != _ENVELOPE_FORMAT:
        raise CacheMiss(f"{path}: cache envelope format {envelope.get('format')!r}")
    if envelope.get("version") != _package_version():
        raise CacheMiss(
            f"{path}: built by repro {envelope.get('version')!r}, "
            f"this is {_package_version()!r}"
        )
    try:
        params_match = envelope.get("params") == params
    except Exception:  # noqa: BLE001 -- a params object unpickled from an
        # older schema can fail dataclass comparison (missing fields); any
        # comparison failure is a stale cache, never a crash.
        params_match = False
    if not params_match:
        raise CacheMiss(
            f"{path}: built for {envelope.get('params')!r}, requested {params!r}"
        )


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
