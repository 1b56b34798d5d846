"""Hash-based Byzantine broadcast: quorums vote on digests, not payloads.

Only the source's MSG and the on-demand FWD carry the payload; ECHO, ACC,
and REQ carry a 32-byte digest. A node that sees a quorum form around a
digest it cannot resolve asks the quorum members for the payload (REQ) and
accepts a forwarded copy (FWD) only from nodes it asked, only if the copy
hashes to the requested digest. A node takes one REQ and hashes one FWD per
sender and instance. The ``DoubleEcho`` engine tallies the digest votes
and decides when to REQ; the protocols here add only the REQ and FWD
handlers, which ec-brb-3f1, ec-brb-4f1 and ec-crb share. A closed instance
keeps the payloads it held and answers REQs from them as before.

HBrb3f1 runs the double-echo pattern (ECHO then ACC) and needs n >= 3f+1.
HBrb5f1 drops the ACC wave entirely: with n >= 5f+1 a single ECHO wave
amplified at n-2f already guarantees agreement, saving one hop.
"""
from __future__ import annotations

from ..core import (
    Action,
    Closed,
    Instance,
    MsgKind,
    NodeId,
    Send,
    SeqIndex,
    WireMessage,
)
from .base import DoubleEcho


class _HashBrb(DoubleEcho):
    """Shared REQ / FWD plumbing for the digest-voting protocols."""

    def on_req(self, frm: NodeId, msg: WireMessage,
               rec: Instance | Closed | None) -> list[Action]:
        # A node without a record of the instance holds no payload for it,
        # and a REQ makes no record. An open and a closed record answer
        # alike.
        bit = 1 << frm
        if rec is None or msg.digest is None or rec.req_taken & bit:
            return []
        rec.req_taken |= bit
        m = rec.payload(msg.digest)
        if m is None:
            return []
        return [Send(frm, WireMessage(MsgKind.FWD, msg.source, msg.h, payload=m))]

    def close(self, s: NodeId, h: SeqIndex, rec: Instance) -> None:
        self.instances[(s, h)] = rec.closed()

    def on_fwd(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        # Hash only the first FWD from a node asked for a payload still
        # missing: an honest node answers a requester once per instance, and
        # once the payload is held ``check`` has already run with it.
        m = msg.payload
        bit = 1 << frm
        if rec is None or m is None or rec.fwd_taken & bit \
                or not any(c.awaits(frm) for c in rec.candidates.values()):
            return []
        rec.fwd_taken |= bit
        c = rec.candidates.get(self.digest_of(m))
        if c is None or not c.awaits(frm):
            return []
        c.payload = m
        return self.check(rec, msg.source, msg.h, c)


class HBrb3f1(_HashBrb):
    """ECHO then ACC wave, n >= 3f+1."""


class HBrb5f1(_HashBrb):
    """One ECHO wave, n >= 5f+1."""

    ACC_WAVE = False
    on_acc = None  # no ACC wave: an ACC is not a vote here
