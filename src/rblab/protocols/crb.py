"""Crash-tolerant reliable broadcast: flooding and its erasure-coded variant.

CrbFlood sends the full payload to everyone and every first receiver
re-floods it, so each broadcast costs n + n^2 messages but finishes one
hop after the source's wave lands. A node closes the instance at its first
MSG.

EcCrb splits the payload into n coded elements of which any k reconstruct
it. The source sends one element per node, nodes echo their element to
everyone, and whoever collects k elements decodes, once, keeps the payload
under its digest, delivers, and multicasts an ACC carrying the digest. A
node that has not delivered asks each ACC sender once for the payload
(REQ) and takes the forwarded copy (FWD) through the ``Fetching`` layer:
only from a node it asked, and only if the copy hashes to the digest. It
then delivers and sends its own ACC. Every correct node that delivers has
sent its ACC to all and holds the payload to answer with, so a node that
the crashed source never reached still delivers. A node closes the
instance once it has delivered and sent its ACC, and has echoed the
source's MSG: it echoes every MSG from the source, so closing before would
lose the ECHO of a late one. Its closed record keeps the payload and
answers REQs. A node holds the first element it gets at each position, so
k elements are k positions; a crash-faulty source sends each node one
MSG, so no position gets two.
"""
from __future__ import annotations

from ..codec import CodecError, CodedElement, decode_erasure, encode
from ..core import (
    CLOSED,
    Action,
    Candidate,
    Deliver,
    Instance,
    MsgKind,
    NodeId,
    Payload,
    SeqIndex,
    WireMessage,
)
from .base import Automaton, Fetching


class CrbFlood(Automaton):
    def on_msg(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        # Only a first MSG reaches here (``rec`` is None): it closes the
        # instance.
        if msg.payload is None:
            return []
        self.instances[(msg.source, msg.h)] = CLOSED
        return self.send_all(msg) + [Deliver(msg.source, msg.payload, msg.h)]


class EcCrb(Fetching):
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
        """Hold ``element`` at its position and decode, once, when k
        positions are first held, unless the payload was delivered first.
        No element is added after that."""
        k = self.params.k
        if rec.acc_sent or len(rec.elements or ()) >= k or len(rec.add_element(element)) < k:
            return self.check(rec, s, h)
        held = rec.elements
        try:
            payload = decode_erasure(held.values(), self.params, held[min(held)].claimed_len)
        except CodecError:
            return []
        return self.check(rec, s, h, rec.hold(self.digest_of(payload), payload))

    def check(self, rec: Instance, s: NodeId, h: SeqIndex,
              c: Candidate | None = None) -> list[Action]:
        """Deliver ``c``'s payload and ACC its digest unless already done;
        close once that is done and the MSG is echoed. ``c`` is given on a
        decode and on a FWD that hashed to a requested digest."""
        actions: list[Action] = []
        if c is not None and not rec.acc_sent:
            rec.acc_sent = True
            self.deliver_once(rec, s, c.payload, h, actions)
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=c.digest))
        if rec.acc_sent and rec.msg_seen:
            self.close(s, h, rec)
        return actions

    def on_acc(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        # The sender holds the payload behind the digest: ask it, once.
        if msg.digest is None:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        if rec.delivered:
            return []
        c = rec.count_acc(msg.digest, frm)
        return [] if c is None else self.request_payload(s, h, c, [frm])
