"""Crash-tolerant reliable broadcast: flooding and its erasure-coded variant.

CrbFlood sends the full payload to everyone and every first receiver
re-floods it, so each broadcast costs n + n^2 messages but finishes one
hop after the source's wave lands. A node closes the instance at its first
MSG.

EcCrb splits the payload into n coded elements of which any k reconstruct
it. The source sends one element per node, nodes echo their element to
everyone, and whoever collects k elements decodes, delivers, and hands the
reassembled payload to any node that decoded nothing (e.g. because the
crashed source never reached it) via an ACC carrying the full payload. A
node closes the instance once it has decoded, delivered and sent its ACC,
and has echoed the source's MSG: it echoes every MSG from the source, so
closing before would lose the ECHO of a late one.
"""
from __future__ import annotations

from ..codec import CodecError, CodedElement, decode_erasure, encode
from ..core import (
    CLOSED,
    Action,
    Deliver,
    Instance,
    MsgKind,
    NodeId,
    Payload,
    SeqIndex,
    WireMessage,
)
from .base import Automaton


class CrbFlood(Automaton):
    def on_msg(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        # Only a first MSG reaches here (``rec`` is None): it closes the
        # instance.
        if msg.payload is None:
            return []
        self.instances[(msg.source, msg.h)] = CLOSED
        return self.send_all(msg) + [Deliver(msg.source, msg.payload, msg.h)]


class EcCrb(Automaton):
    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        return self.send_elements(h, encode(payload, self.params))

    def on_msg(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        if frm != msg.source or msg.element is None:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        rec.msg_seen = True
        echo = WireMessage(MsgKind.ECHO, s, h, element=msg.element)
        actions: list[Action] = self.send_all(echo)
        actions += self._store(rec, s, h, msg.element)
        return actions

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        if msg.element is None:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        return self._store(rec, s, h, msg.element)

    def _store(self, rec: Instance, s: NodeId, h: SeqIndex,
               element: CodedElement) -> list[Action]:
        actions: list[Action] = []
        if len(rec.add_element(element)) >= self.params.k and not rec.decoded:
            rec.decoded = True
            actions = self._decode(rec, s, h)
        if rec.acc_sent and rec.msg_seen:
            self.close(s, h, rec)
        return actions

    def _decode(self, rec: Instance, s: NodeId, h: SeqIndex) -> list[Action]:
        """Decode the held elements once; deliver and ACC the payload."""
        elements = sorted(rec.elements, key=lambda e: (e.index, e.data))
        payload_len = elements[0].claimed_len
        try:
            payload = decode_erasure(elements[: self.params.k], self.params, payload_len)
        except CodecError:
            return []
        actions: list[Action] = []
        self.deliver_once(rec, s, payload, h, actions)
        rec.acc_sent = True
        actions += self.send_all(WireMessage(MsgKind.ACC, s, h, payload=payload))
        return actions

    def on_acc(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        if msg.payload is None:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        actions: list[Action] = []
        self.deliver_once(rec, s, msg.payload, h, actions)
        return actions
