"""Hash-based Byzantine broadcast: quorums vote on digests, not payloads.

Only the source's MSG and the on-demand FWD carry the payload; ECHO, ACC,
and REQ carry a 32-byte digest. A node that sees a quorum form around a
digest it cannot resolve asks the quorum members for the payload (REQ) and
accepts a forwarded copy (FWD) only from nodes it asked, only if the copy
hashes to the requested digest. The ``DoubleEcho`` engine tallies the
digest votes; each protocol here supplies only its fetch trigger.

HBrb3f1 runs the double-echo pattern (ECHO then ACC) and needs n >= 3f+1.
HBrb5f1 drops the ACC wave entirely: with n >= 5f+1 a single ECHO wave
amplified at n-2f already guarantees agreement, saving one hop.
"""
from __future__ import annotations

from ..core import (
    Action,
    Candidate,
    MsgKind,
    NodeId,
    Send,
    SeqIndex,
    WireMessage,
)
from .base import Automaton, DoubleEcho


class _HashBrb(DoubleEcho):
    """Shared REQ / FWD plumbing for the digest-voting protocols."""

    def on_req(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        if not rec.once(("req", frm)):
            return []
        m = rec.payload(msg.digest)
        if m is None:
            return []
        return [Send(frm, WireMessage(MsgKind.FWD, s, h, payload=m))]

    def on_fwd(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.payload is None:
            return []
        s, h, m = msg.source, msg.h, msg.payload
        digest = self.digest_of(m)
        rec = self.instances.get((s, h))
        if rec is None or not rec.was_asked(digest, frm):
            return []
        if not rec.once(("fwd", frm, digest)):
            return []
        return self.check(rec, s, h, rec.hold(digest, m))

    def fetch(self, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        # Ask the backers of the last wave once, when exactly f+1 of them
        # back the digest.
        backers = c.accs if self.ACC_WAVE else c.echoes
        if len(backers) != self.f_plus_1:
            return []
        return self.request_payload(s, h, c, backers)


class HBrb3f1(_HashBrb):
    """ECHO then ACC wave, n >= 3f+1."""


class HBrb5f1(_HashBrb):
    """One ECHO wave, n >= 5f+1."""

    ACC_WAVE = False
    on_acc = Automaton.on_acc  # no ACC wave: an ACC is not a vote here
