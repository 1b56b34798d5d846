"""Crash-tolerant reliable broadcast: flooding and its erasure-coded variant.

CrbFlood sends the full payload to everyone and every first receiver
re-floods it, so each broadcast costs n + n^2 messages but finishes one
hop after the source's wave lands.

EcCrb splits the payload into n coded elements of which any k reconstruct
it. The source sends one element per node, nodes echo their element to
everyone, and whoever collects k elements decodes, delivers, and hands the
reassembled payload to any node that decoded nothing (e.g. because the
crashed source never reached it) via an ACC carrying the full payload.
"""
from __future__ import annotations

from ..codec import CodecError, CodeParams, decode_erasure, encode
from ..core import (
    Action,
    MsgKind,
    NodeId,
    Payload,
    Send,
    SeqIndex,
    WireMessage,
)
from . import ProtocolConfig
from .base import Automaton


class CrbFlood(Automaton):
    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.payload is None:
            return []
        rec = self.instance(msg.source, msg.h)
        if rec.msg_seen:
            return []
        rec.msg_seen = True
        actions: list[Action] = self.send_all(msg)
        self.deliver_once(rec, msg.source, msg.payload, msg.h, actions)
        return actions


class EcCrb(Automaton):
    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        k = config.resolved_k()
        assert k is not None
        self.k = k
        self.params = CodeParams(self.n, k)

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        elements = encode(payload, self.params)
        return [
            Send(i, WireMessage(MsgKind.MSG, self.me, h, element=elements[i]))
            for i in range(self.n)
        ]

    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if frm != msg.source or msg.element is None:
            return []
        echo = WireMessage(MsgKind.ECHO, msg.source, msg.h, element=msg.element)
        actions: list[Action] = self.send_all(echo)
        actions += self._store(msg.source, msg.h, msg)
        return actions

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.element is None:
            return []
        return self._store(msg.source, msg.h, msg)

    def _store(self, s: NodeId, h: SeqIndex, msg: WireMessage) -> list[Action]:
        rec = self.instance(s, h)
        held = rec.elements
        if held is None:
            held = rec.elements = set()
        held.add(msg.element)
        if len(held) < self.k or rec.decoded:
            return []
        rec.decoded = True
        elements = sorted(held, key=lambda e: (e.index, e.data))
        payload_len = elements[0].claimed_len
        try:
            payload = decode_erasure(elements[: self.k], self.params, payload_len)
        except CodecError:
            return []
        actions: list[Action] = []
        self.deliver_once(rec, s, payload, h, actions)
        acc = WireMessage(MsgKind.ACC, s, h, payload=payload)
        actions += self.send_all(acc)
        return actions

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.payload is None:
            return []
        actions: list[Action] = []
        self.deliver_once(self.instance(msg.source, msg.h), msg.source, msg.payload, msg.h,
                          actions)
        return actions
