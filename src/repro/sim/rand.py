"""Deterministic random streams for reproducible experiments.

Every stochastic component (YCSB key chooser, R-MAT generator,
microbenchmark offsets) draws from its own named stream derived from a
single experiment seed, so runs are bit-reproducible and components do not
perturb each other when one consumes more randomness.

Counter streams (:func:`counter_draws`) come out in bulk as numpy
``uint64`` arrays, the form every access plan is built from; numpy is a
required dependency, with no scalar fallback.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterator, List

import numpy as np


def derive_seed(master_seed: int, stream_name: str) -> int:
    """Derive a 64-bit stream seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{stream_name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed: int, stream_name: str) -> random.Random:
    """A :class:`random.Random` seeded deterministically for one stream."""
    return random.Random(derive_seed(master_seed, stream_name))


_MASK64 = (1 << 64) - 1
#: splitmix64 increment (2^64 / golden ratio); decorrelates counters.
_SPLITMIX_PHI = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """splitmix64 finalizer: one 64-bit value -> one well-mixed 64-bit value.

    Counter-based alternative to a stateful rng: ``mix64(base + PHI*i)``
    yields draw *i* of a stream directly, so draws can be generated in any
    order, one at a time or in bulk (see :func:`counter_draws`), always
    with identical values.
    """
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def counter_draws(base: int, tag: int, count: int) -> np.ndarray:
    """``count`` 64-bit draws of the counter stream ``(base, tag)``.

    Returns a ``numpy.uint64`` array whose element *i* equals
    ``mix64(start + PHI*i)``: the same splitmix64 arithmetic, vectorized
    on wrapping uint64 (``tests/sim/test_rand.py`` pins it to the scalar
    form).  Each ``tag`` names an independent stream over the same base
    seed, so a caller can skip a stream entirely without perturbing the
    others — unlike a shared sequential rng, where every consumer shifts
    the rest.
    """
    start = (base ^ mix64(tag)) & _MASK64
    z = start + np.uint64(_SPLITMIX_PHI) * np.arange(count, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def exponential_interarrivals(
    base: int, tag: int, count: int, mean_cycles: float
) -> List[int]:
    """``count`` exponential inter-arrival gaps (integer cycles) from the
    counter stream ``(base, tag)``.

    Gaps are inverse-CDF transforms of :func:`counter_draws` values —
    ``-mean * log((draw + 0.5) / 2^64)`` — rounded to whole cycles and
    clamped to >= 1.  The log/round step runs in pure Python over the int
    draws (never through numpy float kernels), so gap *i* is a pure
    function of ``(base, tag, i, mean_cycles)`` and regeneration is
    byte-identical on every platform.

    The +0.5 centering keeps the transform unbiased and the argument of
    ``log`` strictly inside (0, 1): the gap mean converges to
    ``mean_cycles`` (up to the >=1 clamp) and the variance to
    ``mean_cycles ** 2`` — the closed forms the serve property tier
    checks against.
    """
    if mean_cycles <= 0:
        raise ValueError("mean_cycles must be positive")
    draws = counter_draws(base, tag, count).tolist()
    scale = -float(mean_cycles)
    inv_span = 1.0 / 2.0 ** 64
    return [
        max(1, round(scale * math.log((draw + 0.5) * inv_span))) for draw in draws
    ]


class ZipfGenerator:
    """Zipfian integer generator over ``[0, n)`` (YCSB's default skew).

    Uses the rejection-inversion method of Hörmann (as in YCSB's
    ``ZipfianGenerator``) so that generation is O(1) per sample even for
    large ``n``.
    """

    def __init__(self, n: int, theta: float = 0.99, rng: random.Random = None) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = rng if rng is not None else random.Random(0)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        # For n <= 2, zeta(n) == zeta(2) and the denominator vanishes; eta
        # is never used there (next() resolves ranks 0/1 before the eta
        # branch), so any finite value works.
        denom = 1.0 - self._zeta2 / self._zetan
        if denom == 0.0:
            self._eta = 0.0
        else:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / denom

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n, Euler-Maclaurin tail approximation for large n
        # to keep construction O(1)-ish.
        limit = min(n, 10_000)
        total = sum(1.0 / (i ** theta) for i in range(1, limit + 1))
        if n > limit:
            # integral tail of x^-theta from limit to n
            total += ((n ** (1.0 - theta)) - (limit ** (1.0 - theta))) / (1.0 - theta)
        return total

    def next(self) -> int:
        """Draw one zipf-distributed value in ``[0, n)`` (0 is hottest)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        value = int(self.n * ((self._eta * u - self._eta + 1.0) ** self._alpha))
        return min(value, self.n - 1)

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next()


class ScrambledZipfGenerator:
    """Zipfian keys scattered over the key space (YCSB ``scrambled_zipfian``).

    Without scrambling, hot keys cluster at low ids and enjoy unrealistic
    spatial locality; YCSB hashes the rank to spread hot keys uniformly.
    """

    def __init__(self, n: int, theta: float = 0.99, rng: random.Random = None) -> None:
        self.n = n
        self._zipf = ZipfGenerator(n, theta, rng)

    def next(self) -> int:
        """Draw one scrambled zipf value in ``[0, n)``."""
        rank = self._zipf.next()
        return fnv1a_64(rank) % self.n


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's key scrambler)."""
    fnv_offset = 0xCBF29CE484222325
    fnv_prime = 0x100000001B3
    h = fnv_offset
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        h ^= octet
        h = (h * fnv_prime) & 0xFFFFFFFFFFFFFFFF
    return h


class LatestGenerator:
    """YCSB ``latest`` distribution: skewed toward recently inserted keys."""

    def __init__(self, initial_n: int, theta: float = 0.99, rng: random.Random = None) -> None:
        self._n = initial_n
        self._theta = theta
        self._rng = rng if rng is not None else random.Random(0)
        self._zipf = ZipfGenerator(max(initial_n, 1), theta, self._rng)
        self._built_n = max(initial_n, 1)

    def grow(self) -> None:
        """Register one newly inserted key as the latest.

        The underlying zipf table is rebuilt lazily (when the key space has
        grown 10%) to keep inserts O(1) amortized.
        """
        self._n += 1
        if self._n > self._built_n * 1.1:
            self._zipf = ZipfGenerator(self._n, self._theta, self._rng)
            self._built_n = self._n

    def next(self) -> int:
        """Draw a key id, hottest at the most recent insert."""
        return self._n - 1 - min(self._zipf.next(), self._n - 1)
