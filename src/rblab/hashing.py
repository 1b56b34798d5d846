"""Content digests used to stand in for full payloads on the wire.

Every protocol that ships digests instead of payloads assumes a
collision-resistant function with a fixed output width: SHA-256, whose
32-byte output the envelope format fixes as ``DIGEST_SIZE``.
"""
from __future__ import annotations

import hashlib

DIGEST_SIZE = 32


def digest(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()
