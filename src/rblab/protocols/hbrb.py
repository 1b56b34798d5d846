"""Hash-based Byzantine broadcast: quorums vote on digests, not payloads.

Only the source's MSG and the on-demand FWD carry the payload; ECHO, ACC,
and REQ carry a 32-byte digest. A node that sees a quorum form around a
digest it cannot resolve asks the quorum members for the payload (REQ) and
accepts a forwarded copy (FWD) only from nodes it asked, only if the copy
hashes to the requested digest. The ``DoubleEcho`` engine tallies the
digest votes and decides when to REQ; the REQ and FWD handlers, and the
closed record that keeps the payloads held to answer REQs from, are the
``Fetching`` layer's.

HBrb3f1 runs the double-echo pattern (ECHO then ACC) and needs n >= 3f+1.
HBrb5f1 drops the ACC wave entirely: with n >= 5f+1 a single ECHO wave
amplified at n-2f already guarantees agreement, saving one hop.
"""
from __future__ import annotations

from .base import DoubleEcho, Fetching


class HBrb3f1(Fetching, DoubleEcho):
    """ECHO then ACC wave, n >= 3f+1."""


class HBrb5f1(Fetching, DoubleEcho):
    """One ECHO wave, n >= 5f+1."""

    ACC_WAVE = False
    on_acc = None  # no ACC wave: an ACC is not a vote here
