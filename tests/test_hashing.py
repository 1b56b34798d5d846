"""Digest helper: fixed vectors and determinism."""
import hashlib

from rblab import hashing

# Well-known SHA-256 test vector for the empty string.
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_empty_input_matches_published_sha256_vector():
    assert hashing.digest(b"") == SHA256_EMPTY


def test_digest_matches_hashlib_and_is_digest_size():
    for payload in (b"x", b"hello world", bytes(range(256))):
        expected = hashlib.sha256(payload).digest()
        assert hashing.digest(payload) == expected
        assert len(hashing.digest(payload)) == hashing.DIGEST_SIZE


def test_digest_is_deterministic_and_collision_free_on_distinct_inputs():
    seen = {}
    for i in range(200):
        payload = i.to_bytes(4, "big")
        d = hashing.digest(payload)
        assert hashing.digest(payload) == d
        assert d not in seen
        seen[d] = payload
