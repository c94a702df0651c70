"""Imperfect-apparatus fault injection (the paper's §3 data caveats).

The paper's five datasets were messy in ways a simulator naturally is not:
ONP sweeps saw rate-limited and truncated mode-7 responses, weekly samples
could be missing or partial, the darknet sensor had downtime, and the
authors explicitly worked around parse failures and undercounts.  This
module models those pathologies as a :class:`FaultProfile` carried on
:class:`~repro.scenario.world.WorldParams` and applied *at the measurement
boundary* by a :class:`FaultInjector` — the ground-truth simulation is
never perturbed, only what the apparatus records of it.

Determinism contract
--------------------
Every fault decision is drawn from dedicated RNG child streams (named
under ``faults/``), never from the streams the clean simulation uses, and
every draw is guarded by its rate: with the default (empty) profile no
fault stream is ever consumed and every injection hook is a no-op, so the
clean world stays byte-identical to a build without this layer.

Each injected fault is counted in an :class:`InjectionLog` (stored on the
built world as ``world.fault_log``); ``python -m repro quality`` reconciles
the log against what the degraded datasets and the parse layer actually
report — the synthetic analogue of the paper's own data-caveats section.
"""

from dataclasses import dataclass, field

__all__ = [
    "FaultProfile",
    "CLEAN_PROFILE",
    "PAPER_PROFILE",
    "HOSTILE_PROFILE",
    "FAULT_PROFILES",
    "resolve_fault_profile",
    "InjectionLog",
    "FaultInjector",
]


_RATE_FIELDS = (
    "onp_truncate_rate",
    "onp_duplicate_rate",
    "onp_reorder_rate",
    "onp_corrupt_rate",
    "onp_sample_outage_rate",
    "onp_partial_sweep_rate",
    "darknet_outage_rate",
    "arbor_missing_day_rate",
)


@dataclass(frozen=True)
class FaultProfile:
    """Per-fault-class rates, all probabilities in ``[0, 1]``.

    Each class reproduces one of the paper's acknowledged measurement
    imperfections (§3):

    * ``onp_truncate_rate`` — a multi-packet monlist response loses its
      tail fragments (rate limiting / filtering of the single scan source);
    * ``onp_duplicate_rate`` — a response fragment arrives twice
      (retransmission / capture artifacts);
    * ``onp_reorder_rate`` — fragments of one response arrive out of order
      (UDP gives no ordering guarantee);
    * ``onp_corrupt_rate`` — a captured payload is bit-corrupted and may no
      longer parse (the paper's "responses we could not parse");
    * ``onp_sample_outage_rate`` — an entire weekly sweep is missing;
    * ``onp_partial_sweep_rate`` — a sweep aborts partway through the
      address space, probing only a fraction of targets;
    * ``darknet_outage_rate`` — per-day probability the darknet sensor is
      down and records nothing;
    * ``arbor_missing_day_rate`` — per-day probability the global traffic
      collector has no daily record.
    """

    name: str = "custom"
    onp_truncate_rate: float = 0.0
    onp_duplicate_rate: float = 0.0
    onp_reorder_rate: float = 0.0
    onp_corrupt_rate: float = 0.0
    onp_sample_outage_rate: float = 0.0
    onp_partial_sweep_rate: float = 0.0
    darknet_outage_rate: float = 0.0
    arbor_missing_day_rate: float = 0.0

    def __post_init__(self):
        for rate_field in _RATE_FIELDS:
            rate = getattr(self, rate_field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_field} must be in [0, 1], got {rate!r}")

    @property
    def is_clean(self):
        """True when every fault rate is zero (nothing is ever injected)."""
        return all(getattr(self, rate_field) == 0.0 for rate_field in _RATE_FIELDS)

    def nonzero_rates(self):
        """[(field name, rate)] for every active fault class."""
        return [(f, getattr(self, f)) for f in _RATE_FIELDS if getattr(self, f) > 0.0]

    def describe(self):
        """One line: profile name plus its active rates."""
        active = self.nonzero_rates()
        if not active:
            return f"{self.name} (no faults)"
        rates = ", ".join(f"{name}={rate:g}" for name, rate in active)
        return f"{self.name}: {rates}"


#: The default: a perfect apparatus (pre-fault-layer behavior, bit for bit).
CLEAN_PROFILE = FaultProfile(name="clean")

#: Roughly the imperfection level the paper describes working around:
#: occasional truncated/unparseable responses, one-in-many-weeks outages,
#: short sensor downtimes.
PAPER_PROFILE = FaultProfile(
    name="paper",
    onp_truncate_rate=0.03,
    onp_duplicate_rate=0.005,
    onp_reorder_rate=0.02,
    onp_corrupt_rate=0.004,
    onp_sample_outage_rate=0.04,
    onp_partial_sweep_rate=0.08,
    darknet_outage_rate=0.01,
    arbor_missing_day_rate=0.005,
)

#: A stress profile for chaos testing: every fault class fires often.  The
#: analysis pipeline must degrade, never crash.
HOSTILE_PROFILE = FaultProfile(
    name="hostile",
    onp_truncate_rate=0.15,
    onp_duplicate_rate=0.08,
    onp_reorder_rate=0.20,
    onp_corrupt_rate=0.08,
    onp_sample_outage_rate=0.12,
    onp_partial_sweep_rate=0.25,
    darknet_outage_rate=0.12,
    arbor_missing_day_rate=0.08,
)

FAULT_PROFILES = {
    "clean": CLEAN_PROFILE,
    "paper": PAPER_PROFILE,
    "hostile": HOSTILE_PROFILE,
}


def resolve_fault_profile(value):
    """Accept a preset name or a ready :class:`FaultProfile`."""
    if isinstance(value, FaultProfile):
        return value
    if value is None:
        return CLEAN_PROFILE
    try:
        return FAULT_PROFILES[value]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {value!r}; choose from {sorted(FAULT_PROFILES)}"
        ) from None


# ---------------------------------------------------------------------------
# Injection accounting
# ---------------------------------------------------------------------------


@dataclass
class InjectionLog:
    """Counts of every fault actually injected, by namespaced kind.

    Kinds are dotted strings (``onp.monlist.truncated_response``,
    ``darknet.down_day``, ...).  The quality report reconciles these
    against what the degraded datasets observably lost.
    """

    counts: dict = field(default_factory=dict)

    def record(self, kind, n=1):
        self.counts[kind] = self.counts.get(kind, 0) + n

    def get(self, kind):
        return self.counts.get(kind, 0)

    @property
    def total(self):
        return sum(self.counts.values())

    def as_dict(self):
        return dict(sorted(self.counts.items()))


class FaultInjector:
    """Applies a :class:`FaultProfile` at the measurement boundary.

    One injector serves a whole world build.  Each fault site draws from
    its own named child stream of the injector's RNG, so sites never
    perturb each other and a site that is disabled (rate 0) consumes no
    draws at all.
    """

    def __init__(self, profile, rng):
        self.profile = profile
        self.log = InjectionLog()
        self._rng = rng
        self._onp_rng = rng.child("onp")
        self._darknet_rng = rng.child("darknet")
        self._arbor_rng = rng.child("arbor")
        #: {day index: bool} — each darknet day's status is drawn once.
        self._darknet_days = {}

    # -- ONP sweep-level ----------------------------------------------------

    @staticmethod
    def _sweep_label(mode):
        return "monlist" if mode == 7 else "version"

    def sample_outage(self, mode, t):
        """True when the whole weekly sweep at ``t`` is missing."""
        rate = self.profile.onp_sample_outage_rate
        if rate <= 0.0:
            return False
        if self._onp_rng.random() >= rate:
            return False
        self.log.record(f"onp.{self._sweep_label(mode)}.sample_outage")
        return True

    def sweep_cutoff(self, mode, t):
        """Fraction of the sweep completed, or None for a full sweep."""
        rate = self.profile.onp_partial_sweep_rate
        if rate <= 0.0:
            return None
        if self._onp_rng.random() >= rate:
            return None
        cutoff = float(self._onp_rng.uniform(0.3, 0.95))
        self.log.record(f"onp.{self._sweep_label(mode)}.partial_sweep")
        return cutoff

    # -- ONP per-capture packet mangling -------------------------------------

    def block_mangler(self, block):
        """A per-build-block mode-7 mangler, or None with no mangle rates.

        The block-sharded ONP sweep mangles each block's captures from a
        dedicated ``onp-mangle-b{block}`` child stream (derived, never
        shared across processes) and counts into a local
        :class:`InjectionLog` the parent merges back — the same blocks
        consume the same streams at any ``--jobs``.
        """
        profile = self.profile
        if (
            profile.onp_truncate_rate == 0.0
            and profile.onp_duplicate_rate == 0.0
            and profile.onp_reorder_rate == 0.0
            and profile.onp_corrupt_rate == 0.0
        ):
            return None
        return BlockMangler(profile, self._rng.child(f"onp-mangle-b{block}"))

    # -- darknet -------------------------------------------------------------

    def darknet_down(self, day):
        """True when the darknet sensor is down for the whole ``day``.

        Drawn once per day (cached), so every sweep touching the day sees
        the same status and the log counts each down day exactly once.
        """
        rate = self.profile.darknet_outage_rate
        if rate <= 0.0:
            return False
        status = self._darknet_days.get(day)
        if status is None:
            status = bool(self._darknet_rng.random() < rate)
            self._darknet_days[day] = status
            if status:
                self.log.record("darknet.down_day")
        return status

    # -- arbor ---------------------------------------------------------------

    def arbor_missing(self, day):
        """True when the traffic collector has no record for ``day``."""
        rate = self.profile.arbor_missing_day_rate
        if rate <= 0.0:
            return False
        if self._arbor_rng.random() >= rate:
            return False
        self.log.record("arbor.missing_day")
        return True


def _mangle_packets(profile, rng, log, packets):
    """Degrade one captured mode-7 response; returns the new tuple.

    Applied in wire order: tail truncation (rate limiting kills late
    fragments; the first fragment always survives), fragment
    duplication, reordering, and finally per-capture bit corruption.
    Always returns at least one packet.
    """
    out = list(packets)
    if len(out) > 1 and profile.onp_truncate_rate > 0.0:
        if rng.random() < profile.onp_truncate_rate:
            keep = 1 + int(rng.integers(0, len(out) - 1))
            log.record("onp.monlist.truncated_response")
            log.record("onp.monlist.dropped_packet", len(out) - keep)
            out = out[:keep]
    if profile.onp_duplicate_rate > 0.0 and rng.random() < profile.onp_duplicate_rate:
        source = int(rng.integers(0, len(out)))
        position = int(rng.integers(0, len(out) + 1))
        out.insert(position, out[source])
        log.record("onp.monlist.duplicated_packet")
    if len(out) > 1 and profile.onp_reorder_rate > 0.0:
        if rng.random() < profile.onp_reorder_rate:
            order = list(rng.generator.permutation(len(out)))
            out = [out[i] for i in order]
            log.record("onp.monlist.reordered_response")
    if profile.onp_corrupt_rate > 0.0 and rng.random() < profile.onp_corrupt_rate:
        index = int(rng.integers(0, len(out)))
        out[index] = _flip_bytes(rng, out[index])
        log.record("onp.monlist.corrupted_packet")
    return tuple(out)


def _flip_bytes(rng, packet):
    """XOR 1-4 random bytes of a packet with random nonzero masks."""
    data = bytearray(packet)
    n_flips = 1 + int(rng.integers(0, 4))
    for _ in range(n_flips):
        position = int(rng.integers(0, len(data)))
        mask = 1 + int(rng.integers(0, 255))
        data[position] ^= mask
    return bytes(data)


class BlockMangler:
    """Mode-7 packet mangling scoped to one build block: own child stream,
    own local log (merged into the world log by the sweep parent)."""

    __slots__ = ("profile", "rng", "log")

    def __init__(self, profile, rng):
        self.profile = profile
        self.rng = rng
        self.log = InjectionLog()

    def mangle(self, packets):
        return _mangle_packets(self.profile, self.rng, self.log, packets)
