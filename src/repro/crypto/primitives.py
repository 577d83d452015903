"""Hashing, key derivation, and deterministic randomness.

The simulation must be fully deterministic so that experiments are exactly
reproducible; all randomness flows from :class:`DeterministicRandom`, a
SHA-256-based CSPRNG-shaped generator seeded explicitly by the caller.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import math
import struct

_pack_counter = struct.Struct(">Q").pack


def sha256(*parts: bytes) -> bytes:
    """Hash the concatenation of ``parts`` with SHA-256."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def hmac_sha256(key: bytes, *parts: bytes) -> bytes:
    """Compute HMAC-SHA-256 of the concatenation of ``parts`` under ``key``."""
    mac = _hmac.new(key, digestmod=hashlib.sha256)
    for part in parts:
        mac.update(part)
    return mac.digest()


def counter_blocks(prefix: "hashlib._Hash", first: int, count: int) -> bytes:
    """Concatenate ``SHA-256(prefix || counter)`` for ``count`` counters.

    ``prefix`` is a SHA-256 object that has already absorbed the fixed
    prefix; each block hashes a copy of it plus the 8-byte big-endian
    counter, starting at ``first``. This is the counter-mode core shared by
    the DRBG and the AEAD keystream.
    """
    copy = prefix.copy
    blocks = []
    for counter in range(first, first + count):
        block = copy()
        block.update(_pack_counter(counter))
        blocks.append(block.digest())
    return b"".join(blocks)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking the mismatch position."""
    return _hmac.compare_digest(a, b)


def hkdf(key_material: bytes, info: bytes, length: int = 32,
         salt: bytes = b"") -> bytes:
    """HKDF (RFC 5869) with SHA-256: extract-then-expand key derivation.

    Parameters
    ----------
    key_material:
        Input keying material.
    info:
        Context string binding the derived key to its purpose.
    length:
        Number of output bytes (at most 255 * 32).
    salt:
        Optional non-secret salt.
    """
    if length <= 0 or length > 255 * 32:
        raise ValueError(f"invalid HKDF output length: {length}")
    pseudo_random_key = hmac_sha256(salt or b"\x00" * 32, key_material)
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac_sha256(pseudo_random_key, previous, info,
                               bytes([counter]))
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


class DeterministicRandom:
    """A deterministic random byte generator (SHA-256 in counter mode).

    All key generation, nonce selection, and workload randomness in the
    simulation derives from instances of this class, making every experiment
    bit-for-bit reproducible from its seed.
    """

    def __init__(self, seed: bytes) -> None:
        if not seed:
            raise ValueError("seed must be non-empty")
        self._state = sha256(b"repro-drbg-v1", seed)
        self._prefix = hashlib.sha256(self._state)
        self._counter = 0

    def bytes(self, length: int) -> bytes:
        """Return ``length`` pseudo-random bytes."""
        if 0 < length <= 32:
            # One block: the size of every randint/random/expovariate draw.
            counter = self._counter
            self._counter = counter + 1
            block = self._prefix.copy()
            block.update(_pack_counter(counter))
            return block.digest()[:length]
        if length < 0:
            raise ValueError("length must be non-negative")
        first = self._counter
        count = (length + 31) // 32
        self._counter = first + count
        return counter_blocks(self._prefix, first, count)[:length]

    def fork(self, label: bytes) -> "DeterministicRandom":
        """Derive an independent child generator bound to ``label``.

        Forking lets subsystems draw randomness without perturbing each
        other's streams (adding a component does not change the bytes every
        other component sees).
        """
        return DeterministicRandom(sha256(self._state, b"fork", label))

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if low > high:
            raise ValueError("low must not exceed high")
        span = high - low + 1
        # Rejection sampling over the next power-of-two range for uniformity.
        nbytes = (span.bit_length() + 7) // 8
        bound = 1 << (nbytes * 8)
        limit = bound - (bound % span)
        while True:
            value = int.from_bytes(self.bytes(nbytes), "big")
            if value < limit:
                return low + (value % span)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return int.from_bytes(self.bytes(7), "big") / (1 << 56)

    def expovariate(self, rate: float) -> float:
        """Return an exponentially distributed sample with the given rate."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        # 1 - random() is in (0, 1], so log() is defined.
        return -math.log(1.0 - self.random()) / rate

    def choice(self, items: "list"):
        """Return a uniformly chosen element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty list")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: "list") -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
