"""Tests for the AEAD cipher and SecretBox."""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primitives import DeterministicRandom, hkdf, hmac_sha256
from repro.crypto.symmetric import (
    AEADCipher,
    Ciphertext,
    KEY_SIZE,
    NONCE_SIZE,
    SecretBox,
    generate_key,
)
from repro.errors import IntegrityError


def make_cipher(seed=b"key-seed"):
    rng = DeterministicRandom(seed)
    return AEADCipher(rng.bytes(KEY_SIZE)), rng


class TestAEADCipher:
    def test_round_trip(self):
        cipher, rng = make_cipher()
        nonce = rng.bytes(NONCE_SIZE)
        ct = cipher.encrypt(b"hello world", nonce)
        assert cipher.decrypt(ct) == b"hello world"

    def test_ciphertext_hides_plaintext(self):
        cipher, rng = make_cipher()
        plaintext = b"very secret bytes"
        ct = cipher.encrypt(plaintext, rng.bytes(NONCE_SIZE))
        assert plaintext not in ct.body
        assert plaintext not in ct.to_bytes()

    def test_tampered_body_rejected(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE))
        bad = Ciphertext(nonce=ct.nonce,
                         body=bytes([ct.body[0] ^ 1]) + ct.body[1:],
                         tag=ct.tag)
        with pytest.raises(IntegrityError):
            cipher.decrypt(bad)

    def test_tampered_tag_rejected(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE))
        bad = Ciphertext(nonce=ct.nonce, body=ct.body,
                         tag=bytes([ct.tag[0] ^ 1]) + ct.tag[1:])
        with pytest.raises(IntegrityError):
            cipher.decrypt(bad)

    def test_tampered_nonce_rejected(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE))
        bad = Ciphertext(nonce=bytes([ct.nonce[0] ^ 1]) + ct.nonce[1:],
                         body=ct.body, tag=ct.tag)
        with pytest.raises(IntegrityError):
            cipher.decrypt(bad)

    def test_wrong_key_rejected(self):
        cipher_a, rng = make_cipher(b"a")
        cipher_b, _ = make_cipher(b"b")
        ct = cipher_a.encrypt(b"data", rng.bytes(NONCE_SIZE))
        with pytest.raises(IntegrityError):
            cipher_b.decrypt(ct)

    def test_associated_data_binds(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"data", rng.bytes(NONCE_SIZE),
                            associated_data=b"context-a")
        with pytest.raises(IntegrityError):
            cipher.decrypt(ct, associated_data=b"context-b")
        assert cipher.decrypt(ct, associated_data=b"context-a") == b"data"

    def test_empty_plaintext(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"", rng.bytes(NONCE_SIZE))
        assert cipher.decrypt(ct) == b""

    def test_bad_key_size_rejected(self):
        with pytest.raises(ValueError):
            AEADCipher(b"short")

    def test_bad_nonce_size_rejected(self):
        cipher, _ = make_cipher()
        with pytest.raises(ValueError):
            cipher.encrypt(b"data", b"short-nonce")

    @given(st.binary(max_size=2048))
    def test_round_trip_property(self, plaintext):
        cipher, rng = make_cipher(b"hyp")
        nonce = rng.bytes(NONCE_SIZE)
        assert cipher.decrypt(cipher.encrypt(plaintext, nonce)) == plaintext

    @given(st.binary(min_size=1, max_size=512), st.integers(0, 10_000))
    def test_bit_flip_always_detected(self, plaintext, flip_seed):
        cipher, rng = make_cipher(b"flip")
        ct = cipher.encrypt(plaintext, rng.bytes(NONCE_SIZE))
        raw = bytearray(ct.to_bytes())
        position = flip_seed % (len(raw) * 8)
        raw[position // 8] ^= 1 << (position % 8)
        with pytest.raises(IntegrityError):
            cipher.decrypt(Ciphertext.from_bytes(bytes(raw)))


class TestCiphertextSerialization:
    def test_round_trip(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"payload", rng.bytes(NONCE_SIZE))
        parsed = Ciphertext.from_bytes(ct.to_bytes())
        assert parsed == ct

    def test_truncated_rejected(self):
        with pytest.raises(IntegrityError):
            Ciphertext.from_bytes(b"too short")

    def test_length(self):
        cipher, rng = make_cipher()
        ct = cipher.encrypt(b"12345", rng.bytes(NONCE_SIZE))
        assert len(ct) == len(ct.to_bytes())


class TestSecretBox:
    def test_round_trip(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        sealed = box.seal(b"secret")
        assert box.open(sealed) == b"secret"

    def test_distinct_nonces_per_seal(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        assert box.seal(b"same") != box.seal(b"same")

    def test_associated_data(self):
        rng = DeterministicRandom(b"box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        sealed = box.seal(b"secret", associated_data=b"ad")
        with pytest.raises(IntegrityError):
            box.open(sealed)
        assert box.open(sealed, associated_data=b"ad") == b"secret"


# Known answers: ciphertexts and tags pinned as hex so that any change to the
# kernel that alters a single output byte fails here. Bodies longer than 33
# bytes are pinned by their SHA-256 digest.
KAT_KEY = bytes(range(32))
KAT_NONCE = bytes(range(0xA0, 0xB0))
KAT_AD = b"kat-ad"

KAT_ENCRYPT = [
    (0, "",
     "328fd90f258954c16f5073085a7750847933d051176c52d0131f1e8a675c9b0d"),
    (1, "da",
     "1ea95d5b36eb9637c5cdc180db578cb1538fd848dd12fd553e2811edc5aeee3a"),
    (31, "dab1d71848a230478cc290f7232fa70eec93d8a421b18c368ab9e38f4fbd6f",
     "a093cf030ae11032e0aff13b63ba75ac53499bfcf2f16196c083e5b6ea22ff5f"),
    (32, "dab1d71848a230478cc290f7232fa70eec93d8a421b18c368ab9e38f4fbd6fa1",
     "59468877964c33ebcc8abbc58f184f17f20665c605a22d8decfd310d9c7b6709"),
    (33, "dab1d71848a230478cc290f7232fa70eec93d8a421b18c368ab9e38f4fbd6fa146",
     "774c8a5518b2bcb9f92c9b0d1fab5145a33ad9584200aaf99974f138e11eb027"),
    (1000,
     "sha256:81e2a7b9c44a5edf0926faddbf3324645a65ee47ef03f38d07f6d7aa9a4e4048",
     "9f729eb96375b0b8cde9ff8b669f3ba95d43f32852b0169f720adf36198b748a"),
    (4103,
     "sha256:cf150d3774a5d835a5cb537d69c8f48f58c1154aca976662bd71b016c785bfc9",
     "49bd0c300be9f88db3b8bede7d7cc9f37e980413da95d308744122a2b005ee6b"),
]

KAT_SEALS = [
    "cbc6c32e23d3c300164a9b6142e6e570a872d07de346224341af749904a327d3"
    "6dc4e792937a8d9b25801c6cc00e9a9c",
    "a1f553eddd8f5151a3005b6659cc07fe5c3565d8f943593ed02abee35ecc93bf"
    "2ac7d34196d98b538169499814178d7d793a650c4976e912db60d34e",
    "43da6e61e1772f1671cddbab37c00f37770bf63019e5f22d61589a7630029cf6"
    "ca749f6794226f32f903a9ec8588363bf87fa1d2c182c3b071d2ac49145a53e0"
    "0e1bd4b1233e3d4b8ff0a5b636e077daf841289a597f94c0",
]


def kat_plaintext(length):
    return bytes((7 * i + 3) % 256 for i in range(length))


class TestKnownAnswers:
    @pytest.mark.parametrize("length,body,tag", KAT_ENCRYPT,
                             ids=[str(row[0]) for row in KAT_ENCRYPT])
    def test_encrypt(self, length, body, tag):
        cipher = AEADCipher(KAT_KEY)
        ct = cipher.encrypt(kat_plaintext(length), KAT_NONCE, KAT_AD)
        assert len(ct.body) == length
        if body.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(ct.body).hexdigest() == body
        else:
            assert ct.body.hex() == body
        assert ct.tag.hex() == tag
        assert cipher.decrypt(ct, KAT_AD) == kat_plaintext(length)

    def test_first_three_seals(self):
        rng = DeterministicRandom(b"kat-box")
        box = SecretBox(generate_key(rng), rng.fork(b"nonces"))
        inputs = [(b"", b""), (b"palaemon tag", b""),
                  (kat_plaintext(40), KAT_AD)]
        sealed = [box.seal(plaintext, ad) for plaintext, ad in inputs]
        assert [s.hex() for s in sealed] == KAT_SEALS
        for s, (plaintext, ad) in zip(sealed, inputs):
            assert box.open(s, ad) == plaintext


# Reference kernel: the plain byte-at-a-time construction, kept here (not in
# the package) so the property test below checks the fast kernel against it.
def reference_keystream(key, nonce, length):
    blocks = bytearray()
    counter = 0
    while len(blocks) < length:
        blocks.extend(hashlib.sha256(
            key + nonce + struct.pack(">Q", counter)).digest())
        counter += 1
    return bytes(blocks[:length])


def reference_encrypt(key, nonce, plaintext, associated_data):
    encryption_key = hkdf(key, b"aead-encryption")
    mac_key = hkdf(key, b"aead-mac")
    stream = reference_keystream(encryption_key, nonce, len(plaintext))
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac_sha256(mac_key, nonce, associated_data, body)
    return body, tag


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE),
           st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
           st.binary(max_size=8192),
           st.binary(max_size=64))
    def test_encrypt_matches_reference(self, key, nonce, plaintext, ad):
        cipher = AEADCipher(key)
        ct = cipher.encrypt(plaintext, nonce, ad)
        assert (ct.body, ct.tag) == reference_encrypt(key, nonce, plaintext,
                                                      ad)
        assert ct.nonce == nonce
        assert cipher.decrypt(ct, ad) == plaintext
