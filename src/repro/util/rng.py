"""Deterministic random-number streams.

Every stochastic component of the simulation draws from a named child stream
of one master seed.  The same ``(seed, name)`` pair always yields the same
stream, independent of the order in which streams are created, so adding a new
component never perturbs the randomness of existing ones.
"""

import hashlib
import math

import numpy as np

__all__ = ["derive_seed", "RngStream"]

_HASH_BYTES = 8


def derive_seed(master_seed, name):
    """Derive a stable 64-bit child seed from a master seed and a label.

    The derivation is a SHA-256 hash of the decimal master seed and the
    label, so it is stable across processes and Python versions (unlike the
    built-in ``hash``).
    """
    if not isinstance(name, str) or not name:
        raise ValueError("stream name must be a non-empty string")
    digest = hashlib.sha256(f"{int(master_seed)}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:_HASH_BYTES], "big")


class RngStream:
    """A named, deterministic random stream backed by NumPy's PCG64.

    Provides the handful of distributions the simulation needs, including a
    few heavy-tailed ones that NumPy does not expose directly in the shape
    we want (bounded Pareto, discrete Zipf over a finite support).
    """

    def __init__(self, master_seed, name):
        self.name = name
        self.seed = derive_seed(master_seed, name)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._master_seed = int(master_seed)

    def child(self, name):
        """Create a child stream namespaced under this stream."""
        return RngStream(self._master_seed, f"{self.name}/{name}")

    # -- thin pass-throughs -------------------------------------------------

    @property
    def generator(self):
        """The underlying :class:`numpy.random.Generator`."""
        return self._gen

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def choice(self, seq, size=None, replace=True, p=None):
        return self._gen.choice(seq, size=size, replace=replace, p=p)

    def shuffle(self, array):
        self._gen.shuffle(array)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def exponential(self, scale=1.0, size=None):
        return self._gen.exponential(scale, size)

    def poisson(self, lam, size=None):
        return self._gen.poisson(lam, size)

    def geometric(self, p, size=None):
        return self._gen.geometric(p, size)

    # -- heavy-tailed helpers ------------------------------------------------

    def bounded_pareto(self, alpha, low, high, size=None):
        """Sample a Pareto distribution truncated to ``[low, high]``.

        Uses inverse-CDF sampling of the truncated Pareto, which keeps the
        tail shape while guaranteeing the bound (needed e.g. for monlist
        table sizes capped at 600 entries).
        """
        if not low > 0:
            raise ValueError("low must be positive")
        if not high > low:
            raise ValueError("high must exceed low")
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        u = self._gen.random(size)
        la = low**alpha
        ha = high**alpha
        return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)

    def zipf_ranks(self, n_ranks, exponent, size=None):
        """Sample 0-based ranks from a Zipf law over ``n_ranks`` items.

        Returns ranks where rank 0 is the most likely.  Used for skewed
        selections such as which AS a victim lives in.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        weights = 1.0 / np.arange(1, n_ranks + 1, dtype=float) ** exponent
        weights /= weights.sum()
        return self._gen.choice(n_ranks, size=size, p=weights)

    def lognormal_for_median(self, median, sigma, size=None):
        """Lognormal samples parameterized by their median instead of mu."""
        if median <= 0:
            raise ValueError("median must be positive")
        return self._gen.lognormal(math.log(median), sigma, size)

    def bernoulli(self, p, size=None):
        """Boolean samples that are ``True`` with probability ``p``."""
        return self._gen.random(size) < p
