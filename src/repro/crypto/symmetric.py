"""Authenticated symmetric encryption (AEAD).

The cipher is SHA-256 in counter mode as a keystream generator, with an
encrypt-then-MAC HMAC-SHA-256 tag over nonce, associated data, and
ciphertext. This gives real confidentiality and integrity inside the
simulation with zero dependencies; a deployment would use AES-GCM.

The kernel keeps the per-byte work in C: the keystream hashes a copy of a
SHA-256 object that has already absorbed ``key || nonce``, the XOR is one
big-integer operation, and the MAC copies an HMAC object keyed once per
cipher.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto.primitives import (
    DeterministicRandom,
    constant_time_equal,
    counter_blocks,
    hkdf,
)
from repro.errors import IntegrityError

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted, authenticated message."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Serialize to ``nonce || tag || body``."""
        return self.nonce + self.tag + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ciphertext":
        """Parse the serialization produced by :meth:`to_bytes`."""
        if len(data) < NONCE_SIZE + TAG_SIZE:
            raise IntegrityError("ciphertext too short")
        nonce = data[:NONCE_SIZE]
        tag = data[NONCE_SIZE:NONCE_SIZE + TAG_SIZE]
        body = data[NONCE_SIZE + TAG_SIZE:]
        return cls(nonce=nonce, body=body, tag=tag)

    def __len__(self) -> int:
        return len(self.nonce) + len(self.tag) + len(self.body)


class AEADCipher:
    """Authenticated encryption with associated data under a single key.

    Separate encryption and MAC keys are derived from the master key via
    HKDF so a single 32-byte secret drives the whole construction.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
        self._stream_prefix = hashlib.sha256(hkdf(key, b"aead-encryption"))
        self._mac = hmac.new(hkdf(key, b"aead-mac"), digestmod=hashlib.sha256)

    def _xor_keystream(self, data: bytes, nonce: bytes) -> bytes:
        """XOR ``data`` with the keystream ``SHA-256(key || nonce || ctr)``."""
        length = len(data)
        prefix = self._stream_prefix.copy()
        prefix.update(nonce)
        stream = counter_blocks(prefix, 0, (length + 31) // 32)[:length]
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream, "big")).to_bytes(length, "big")

    def _tag(self, nonce: bytes, associated_data: bytes, body: bytes) -> bytes:
        """HMAC-SHA-256 over ``nonce || associated_data || body``."""
        mac = self._mac.copy()
        mac.update(nonce)
        mac.update(associated_data)
        mac.update(body)
        return mac.digest()

    def encrypt(self, plaintext: bytes, nonce: bytes,
                associated_data: bytes = b"") -> Ciphertext:
        """Encrypt and authenticate ``plaintext``.

        The caller supplies the nonce; reusing a nonce under the same key for
        different plaintexts breaks confidentiality, exactly as with real
        stream ciphers, so callers draw nonces from a DRBG.
        """
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
        body = self._xor_keystream(plaintext, nonce)
        return Ciphertext(nonce=nonce, body=body,
                          tag=self._tag(nonce, associated_data, body))

    def decrypt(self, ciphertext: Ciphertext,
                associated_data: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on tampering."""
        expected = self._tag(ciphertext.nonce, associated_data,
                             ciphertext.body)
        if not constant_time_equal(expected, ciphertext.tag):
            raise IntegrityError("AEAD tag mismatch")
        return self._xor_keystream(ciphertext.body, ciphertext.nonce)


class SecretBox:
    """Convenience wrapper: AEAD plus automatic nonce management.

    This is the shape most PALAEMON components want — "encrypt this blob" —
    with nonces drawn from a forked DRBG so two boxes never collide.
    """

    def __init__(self, key: bytes, rng: DeterministicRandom) -> None:
        self._cipher = AEADCipher(key)
        self._rng = rng

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Encrypt ``plaintext`` into a self-contained byte string."""
        nonce = self._rng.bytes(NONCE_SIZE)
        return self._cipher.encrypt(plaintext, nonce, associated_data).to_bytes()

    def open(self, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Decrypt a byte string produced by :meth:`seal`."""
        return self._cipher.decrypt(Ciphertext.from_bytes(sealed),
                                    associated_data)


def generate_key(rng: DeterministicRandom) -> bytes:
    """Draw a fresh symmetric key from ``rng``."""
    return rng.bytes(KEY_SIZE)
