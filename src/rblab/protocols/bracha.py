"""Bracha's double-echo broadcast carrying the full payload end to end.

Three waves: the source's MSG, an ECHO wave, and an ACC wave, with the
thresholds of the ``DoubleEcho`` engine. Every message carries the whole
payload, so its resolver is the vote itself and nodes never have to fetch
it separately; internally the tallies are keyed by payload digest so
equivocating sources split their support instead of pooling it.
"""
from __future__ import annotations

from ..core import (
    Action,
    Candidate,
    Instance,
    MsgKind,
    NodeId,
    SeqIndex,
    WireMessage,
)
from .base import DoubleEcho


class Bracha(DoubleEcho):
    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        m = msg.payload
        if m is None:
            return []
        return self.tally(frm, msg, self.digest_of(m), Instance.count_echo, m)

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        m = msg.payload
        if m is None:
            return []
        return self.tally(frm, msg, self.digest_of(m), Instance.count_acc, m)

    def vote(self, kind: MsgKind, s: NodeId, h: SeqIndex, c: Candidate,
             element=None) -> WireMessage:
        return WireMessage(kind, s, h, payload=c.payload)
