"""Bloom filter for SST files (RocksDB's full-filter equivalent).

10 bits per key with 7 hash probes gives a ~0.8% false-positive rate —
RocksDB's default configuration.  Serializes to bytes so it can live in a
table's filter block.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable


def _hash_pair(key: bytes) -> tuple:
    digest = hashlib.md5(key).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1
    return h1, h2


class BloomFilter:
    """Fixed-size bloom filter over byte-string keys."""

    def __init__(self, num_keys: int, bits_per_key: int = 10, *,
                 num_bits: int = 0, num_probes: int = 0, bits: bytes = b"") -> None:
        """Sized for ``num_keys`` at ``bits_per_key``, or restored from a
        serialized filter's ``num_bits``, ``num_probes`` and ``bits``."""
        self.num_bits = num_bits or max(64, num_keys * bits_per_key)
        self.num_probes = num_probes or max(1, min(30, round(bits_per_key * math.log(2))))
        self._bits = bytearray(bits or (self.num_bits + 7) // 8)

    def add(self, key: bytes) -> None:
        """Insert a key."""
        h1, h2 = _hash_pair(key)
        for i in range(self.num_probes):
            bit = (h1 + i * h2) % self.num_bits
            self._bits[bit >> 3] |= 1 << (bit & 7)

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Insert many keys."""
        for key in keys:
            self.add(key)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        h1, h2 = _hash_pair(key)
        for i in range(self.num_probes):
            bit = (h1 + i * h2) % self.num_bits
            if not self._bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def to_bytes(self) -> bytes:
        """Serialize: [u32 num_bits][u8 probes][bit array]."""
        header = self.num_bits.to_bytes(4, "little") + bytes([self.num_probes])
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Deserialize a filter produced by :meth:`to_bytes`."""
        num_bits = int.from_bytes(data[:4], "little")
        return cls(0, num_bits=num_bits, num_probes=data[4],
                   bits=data[5 : 5 + (num_bits + 7) // 8])
