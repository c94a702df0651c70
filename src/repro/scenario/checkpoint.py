"""Phase-level build checkpoints: resumable ``PaperWorld`` builds.

A multi-minute full-scale build that dies to SIGKILL, OOM, or a machine
reboot should not start over.  ``PaperWorld.build(checkpoint_dir=...)``
persists the accumulated build state after **every completed phase**;
an interrupted build re-run with the same checkpoint directory resumes
from the last finished phase and produces a byte-identical world —
every phase draws from an RNG stream derived statelessly from
``(seed, phase name)`` (see :mod:`repro.util.rng`), and the stateful
objects a later phase reads (the fault injector, the amplifier state
manager, ...) travel inside the pickled state, so replaying the
remaining phases is exactly the suffix of the uninterrupted build.

Validation follows the world-cache envelope idiom
(:mod:`repro.scenario.cache`): every checkpoint starts with a small
pickle of ``(format, package version, params, completed-phase list)``,
and any mismatch — different params, a different ``repro`` version, a
phase sequence that no longer matches the current build order, or a
truncated file — is a *miss* that restarts the build from scratch,
never a wrong world, decided before the state (the file's second
pickle) is read.  The state's host pool, planted amplifiers and attacks
travel packed (:func:`~repro.scenario.world.pack_population`).  Writes
are atomic (temp file + ``os.replace``), so a build killed mid-save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import os
import pickle

from repro.util.io import atomic_write_stream

__all__ = ["BuildCheckpoint"]

#: Bumped when the checkpoint file layout changes (2: envelope and
#: state as two pickles, population packed).
_CHECKPOINT_FORMAT = 2


def _package_version():
    from repro import __version__

    return __version__


class BuildCheckpoint:
    """One build's checkpoint file, keyed like the world cache.

    :attr:`stats` accumulates provenance for BENCH records: whether a
    resume happened, which phases were loaded, how many saves landed,
    and why a present-but-unusable checkpoint was ignored.
    """

    def __init__(self, directory, params):
        from repro.scenario.cache import cache_key

        self.directory = os.fspath(directory)
        self.params = params
        self.path = os.path.join(
            self.directory, f"checkpoint-{cache_key(params)[:24]}.pkl"
        )
        self.stats = {
            "enabled": True,
            "path": self.path,
            "resumed": False,
            "phases_loaded": [],
            "saves": 0,
            "save_errors": 0,
            "reason": None,
        }

    # -- loading -----------------------------------------------------------------------

    def load(self):
        """Return ``(completed_phases, state)`` or None on any miss.

        Never raises on a bad file: an absent, truncated, stale, or
        foreign checkpoint is recorded in ``stats["reason"]`` and the
        build starts from scratch.
        """
        try:
            with open(self.path, "rb") as handle:
                envelope = pickle.load(handle)
                reason = self._reject_reason(envelope)
                if reason is not None:
                    self.stats["reason"] = reason
                    return None
                state = _unpack_state(pickle.load(handle))
        except FileNotFoundError:
            self.stats["reason"] = "no checkpoint file"
            return None
        except Exception as exc:  # noqa: BLE001 -- unpickling garbage raises
            # whatever opcode decodes first; any load failure is a miss.
            self.stats["reason"] = f"unreadable checkpoint: {exc}"
            return None
        phases = list(envelope["phases"])
        self.stats["resumed"] = True
        self.stats["phases_loaded"] = list(phases)
        self.stats["reason"] = None
        return phases, state

    def _reject_reason(self, payload):
        if not isinstance(payload, dict):
            return "no checkpoint envelope"
        if payload.get("format") != _CHECKPOINT_FORMAT:
            return f"checkpoint envelope format {payload.get('format')!r}"
        if payload.get("version") != _package_version():
            return (
                f"written by repro {payload.get('version')!r}, "
                f"this is {_package_version()!r}"
            )
        try:
            params_match = payload.get("params") == self.params
        except Exception:  # noqa: BLE001 -- cross-schema dataclass comparison
            params_match = False
        if not params_match:
            return f"built for {payload.get('params')!r}"
        # The saved phases must be a prefix of the current build order —
        # a reordered or renamed phase sequence invalidates the resume.
        from repro.scenario.world import _BUILD_PHASES

        order = [name for name, _ in _BUILD_PHASES]
        phases = list(payload.get("phases") or [])
        if not phases or phases != order[: len(phases)]:
            return f"phase sequence {phases!r} does not prefix the build order"
        return None

    # -- saving ------------------------------------------------------------------------

    def save(self, completed_phases, state):
        """Atomically persist the state after a completed phase.

        Best-effort on I/O failure (a full disk must not kill a build
        that can still finish in memory); serialization bugs still
        raise.  Either way no temp file is left behind.  Returns True
        when the checkpoint landed.
        """
        envelope = {
            "format": _CHECKPOINT_FORMAT,
            "version": _package_version(),
            "params": self.params,
            "phases": list(completed_phases),
        }

        def write(handle):
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(_pack_state(state), handle, protocol=pickle.HIGHEST_PROTOCOL)

        try:
            atomic_write_stream(self.path, write)
        except OSError as exc:
            self.stats["save_errors"] += 1
            self.stats["reason"] = f"checkpoint save failed: {exc}"
            return False
        self.stats["saves"] += 1
        return True

    def clear(self):
        """Remove the checkpoint once the build completed (the world
        cache, not a stale checkpoint, is the reuse mechanism)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self.stats["cleared"] = True


def _pack_state(state):
    """The build state with its population packed (once the hosts phase
    ran; ``attacks`` joins after the campaign)."""
    if "hosts" not in state:
        return state
    from repro.scenario.world import pack_population

    packed = dict(state)
    packed["hosts"] = pack_population(state["hosts"], state["local"], state.get("attacks"))
    del packed["local"]
    packed.pop("attacks", None)
    return packed


def _unpack_state(state):
    if "hosts" in state:
        from repro.scenario.world import unpack_population

        state["hosts"], state["local"], attacks = unpack_population(state["hosts"])
        if attacks is not None:
            state["attacks"] = attacks
    return state
