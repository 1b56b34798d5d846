"""Content digests used to stand in for full payloads on the wire.

Every protocol that ships digests instead of payloads assumes a
collision-resistant function with a fixed output width: SHA-256, whose
32-byte output the envelope format fixes as ``DIGEST_SIZE``.

``digest`` remembers the last ``bytes`` input it hashed and that digest.
An input equal to it (the same object, or equal bytes by memcmp) returns
the remembered digest without running SHA-256, so the n nodes of a world
that hash one payload in turn pay for one run. Only immutable ``bytes``
are remembered; any other buffer is hashed every time. The input and its
digest are replaced as one tuple, so concurrent callers can at worst
cost each other a run, never get a wrong digest.
"""
from __future__ import annotations

import hashlib

DIGEST_SIZE = 32

_last: tuple[bytes | None, bytes] = (None, b"")  # last bytes input, its digest


def digest(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``."""
    global _last
    if type(data) is not bytes:
        return hashlib.sha256(data).digest()
    last, out = _last
    if data != last:  # identity, then length, then memcmp
        out = hashlib.sha256(data).digest()
        _last = (data, out)
    return out
