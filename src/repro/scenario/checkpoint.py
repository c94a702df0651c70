"""Phase-level build checkpoints: resumable ``PaperWorld`` builds.

A multi-minute full-scale build that dies to SIGKILL, OOM, or a machine
reboot should not start over.  ``PaperWorld.build(checkpoint_dir=...)``
persists the accumulated build state after **every completed phase**;
an interrupted build re-run with the same checkpoint directory resumes
from the last finished phase and produces a byte-identical world —
every phase draws from an RNG stream derived statelessly from
``(seed, phase name)`` (see :mod:`repro.util.rng`), and the stateful
objects a later phase reads (the fault injector, the monitor-table
feeds, ...) travel inside the pickled state, so replaying the
remaining phases is exactly the suffix of the uninterrupted build.

Files share the world cache's layout and validation
(:func:`~repro.scenario.cache.write_enveloped`): a layout prefix, a
small pickle of ``(format, package version, params, completed-phase
list)``, then the state.  Any mismatch — a file in another layout,
different params, a different ``repro`` version, a phase sequence that
no longer matches the current build order, or a truncated file — is a
*miss* that restarts the build from scratch, never a wrong world,
decided before the state is unpickled.  The state's host pool, planted
amplifiers and attacks travel as the columns a finished world keeps
(:func:`~repro.scenario.world.pack_population`), and a resume turns
them back into objects.  Writes are atomic
(temp file + ``os.replace``), so a build killed mid-save leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import os

from repro.scenario.cache import CacheMiss, cache_key, read_enveloped, write_enveloped

__all__ = ["BuildCheckpoint"]

#: Bumped when the checkpoint file layout changes (2: envelope and
#: state as two pickles, population packed; 3: the layout prefix; 4: no
#: state manager after ``onp``, interval routing tables, every ONP
#: sample packed; 5: the ``state`` phase keeps the monitor-table feeds,
#: not the per-host state manager; 6: the population as a host table,
#: planted-amplifier rows and an attack table).
_CHECKPOINT_FORMAT = 6

#: The first bytes of every checkpoint file.
_CHECKPOINT_LAYOUT = b"repro/checkpoint:envelope,state\n"


class BuildCheckpoint:
    """One build's checkpoint file, keyed like the world cache.

    :attr:`stats` (the built world's ``checkpoint_stats``) records whether a
    resume happened, which phases were loaded, how many saves landed,
    and why a present-but-unusable checkpoint was ignored.
    """

    def __init__(self, directory, params):
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
            envelope, state = read_enveloped(
                self.path,
                _CHECKPOINT_LAYOUT,
                _CHECKPOINT_FORMAT,
                self.params,
                "checkpoint",
                check=_phase_mismatch,
            )
        except CacheMiss as miss:
            self.stats["reason"] = str(miss)
            return None
        state = _unpack_state(state)
        phases = list(envelope["phases"])
        self.stats["resumed"] = True
        self.stats["phases_loaded"] = list(phases)
        self.stats["reason"] = None
        return phases, state

    # -- saving ------------------------------------------------------------------------

    def save(self, completed_phases, state):
        """Atomically persist the state after a completed phase.

        Best-effort on I/O failure (a full disk must not kill a build
        that can still finish in memory); serialization bugs still
        raise.  Either way no temp file is left behind.  Returns True
        when the checkpoint landed.
        """
        try:
            write_enveloped(
                self.path,
                _CHECKPOINT_LAYOUT,
                _CHECKPOINT_FORMAT,
                self.params,
                _pack_state(state),
                phases=list(completed_phases),
            )
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


def _phase_mismatch(envelope):
    """Why the saved phases cannot resume: they must be a prefix of the
    current build order, so a reordered or renamed phase sequence
    invalidates the resume."""
    from repro.scenario.world import _BUILD_PHASES

    order = [name for name, _ in _BUILD_PHASES]
    phases = list(envelope.get("phases") or [])
    if not phases or phases != order[: len(phases)]:
        return f"phase sequence {phases!r} does not prefix the build order"
    return None


def _pack_state(state):
    """The build state with its population as columns (once the hosts
    phase ran; ``attacks`` joins after the campaign)."""
    if "hosts" not in state:
        return state
    from repro.scenario.world import pack_population

    packed = dict(state)
    packed["hosts"], packed["local"], attacks = pack_population(
        state["hosts"], state["local"], state.get("attacks"), state.get("victims")
    )
    if attacks is not None:
        packed["attacks"] = attacks
    return packed


def _unpack_state(state):
    if "hosts" in state:
        from repro.scenario.world import unpack_population

        state["hosts"], state["local"], attacks = unpack_population(
            state["hosts"], state["local"], state.get("attacks"), state.get("victims")
        )
        if attacks is not None:
            state["attacks"] = attacks
    return state
