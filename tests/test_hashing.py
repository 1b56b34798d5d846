"""Digest helper: fixed vectors, determinism and the last-input memo."""
import hashlib

from conftest import count_sha256_runs
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


def test_equal_bytes_in_another_object_reuse_the_last_digest(monkeypatch):
    counter = count_sha256_runs(monkeypatch)
    payload = bytes(range(256)) * 4
    copy = bytes(bytearray(payload))
    assert copy is not payload
    assert hashing.digest(payload) == hashing.digest(copy) == hashlib.sha256(payload).digest()
    assert counter.runs == 1


def test_different_bytes_of_equal_length_are_hashed_anew(monkeypatch):
    counter = count_sha256_runs(monkeypatch)
    a, b = b"\x00" * 1000, b"\x00" * 999 + b"\x01"
    assert hashing.digest(a) == hashlib.sha256(a).digest()
    assert hashing.digest(b) == hashlib.sha256(b).digest()
    assert counter.runs == 2


def test_alternating_inputs_are_each_hashed_every_time(monkeypatch):
    counter = count_sha256_runs(monkeypatch)
    a, b = b"first input", b"other input"
    for i in range(6):
        data = (a, b)[i % 2]
        assert hashing.digest(data) == hashlib.sha256(data).digest()
    assert counter.runs == 6
    assert hashing.digest(b) == hashlib.sha256(b).digest()
    assert counter.runs == 6


def test_a_mutated_buffer_never_gets_a_stale_digest(monkeypatch):
    counter = count_sha256_runs(monkeypatch)
    buf = bytearray(b"mutable payload")
    first = hashing.digest(buf)
    buf[0] ^= 0xFF
    assert hashing.digest(buf) == hashlib.sha256(bytes(buf)).digest() != first
    # Equal bytes hashed after a buffer are hashed too: no buffer is kept.
    assert hashing.digest(bytes(buf)) == hashlib.sha256(bytes(buf)).digest()
    assert counter.runs == 3
