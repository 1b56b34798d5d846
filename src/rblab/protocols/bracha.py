"""Bracha's double-echo broadcast carrying the full payload end to end.

Three waves: the source's MSG, an ECHO wave, and an ACC wave, with the
thresholds of the ``DoubleEcho`` engine. Every message carries the whole
payload, so its resolver is the vote itself and nodes never have to fetch
it separately. The tallies are keyed by the payload a vote carries, not by
its digest, so Bracha never hashes: distinct bytes are distinct candidates,
and an equivocating source still splits its support instead of pooling it.
"""
from __future__ import annotations

from ..core import (
    Action,
    Candidate,
    Instance,
    MsgKind,
    NodeId,
    Payload,
    SeqIndex,
    WireMessage,
)
from .base import DoubleEcho


class Bracha(DoubleEcho):
    def msg_digest(self, msg: WireMessage) -> Payload | None:
        return msg.payload

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return self.tally(frm, msg, rec, msg.payload, Instance.count_echo, True)

    def on_acc(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return self.tally(frm, msg, rec, msg.payload, Instance.count_acc, True)

    def vote(self, kind: MsgKind, s: NodeId, h: SeqIndex, c: Candidate,
             element=None) -> WireMessage:
        return WireMessage(kind, s, h, payload=c.payload)
