"""Shared machinery for the broadcast automata.

Every automaton is a pure-ish state machine: ``step(event)`` mutates only
the automaton's own bookkeeping and returns the list of Send / Deliver
actions the node performs in response. Nothing here touches a clock or a
socket, which keeps runs replayable and lets tests drive single handlers.

A node always sends to itself too (the transport loops the copy back), so
handler code never special-cases the local node: the source learns about
its own broadcast the same way everyone else does.

Per-instance state lives in one ``core.Instance`` record per (source, h),
kept in ``Automaton.instances``. A handler fetches the record once with
``instance(s, h)`` and reads and writes its fields directly: the sent and
delivered flags, and per digest a ``core.Candidate`` with its payload and
its ECHO and ACC backers.
"""
from __future__ import annotations

from .. import hashing
from ..core import (
    Action,
    BroadcastRequest,
    Candidate,
    Deliver,
    Digest,
    Event,
    Instance,
    MsgKind,
    NodeId,
    Payload,
    Receive,
    Send,
    SeqIndex,
    WireMessage,
)
from . import ProtocolConfig


class Automaton:
    """Base class: event dispatch, fan-out helpers, delivery bookkeeping."""

    def __init__(self, config: ProtocolConfig):
        config.validate()
        self.config = config
        self.n = config.n
        self.f = config.f
        self.me = config.node
        self.instances: dict[tuple[NodeId, SeqIndex], Instance] = {}
        self._digest_memo: dict[bytes, Digest] = {}
        # Quorum sizes, read on every vote and exposed for tests and for
        # the bench reporter.
        self.f_plus_1 = self.f + 1
        self.n_minus_f = self.n - self.f
        self.n_minus_2f = self.n - 2 * self.f

    def instance(self, s: NodeId, h: SeqIndex) -> Instance:
        """The record of instance (s, h), created on first use."""
        rec = self.instances.get((s, h))
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        return rec

    def digest_of(self, payload: Payload) -> Digest:
        memo = self._digest_memo.get(payload)
        if memo is None:
            memo = hashing.digest(payload)
            self._digest_memo[payload] = memo
        return memo

    # -- event entry point -------------------------------------------------
    def step(self, event: Event) -> list[Action]:
        if isinstance(event, Receive):
            handler = self._handler_of.get(event.msg.kind)
            if handler is None:
                return []
            return handler(self, event.frm, event.msg)
        if isinstance(event, BroadcastRequest):
            return self.source_sends(event.payload, event.h)
        raise TypeError(f"unknown event {event!r}")

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Send]:
        """Build the source's initial sends without touching state.

        Pure by design: the source's own state updates happen when its
        loopback copies arrive, and adversary strategies reuse this builder
        to craft per-recipient splits of the initial wave.
        """
        raise NotImplementedError

    # -- handlers (override per protocol) ----------------------------------
    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return []

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return []

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return []

    def on_req(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return []

    def on_fwd(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return []

    def on_hash_rb(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return []

    _HANDLERS = {
        MsgKind.MSG: "on_msg",
        MsgKind.ECHO: "on_echo",
        MsgKind.ACC: "on_acc",
        MsgKind.REQ: "on_req",
        MsgKind.FWD: "on_fwd",
        MsgKind.HASH_RB: "on_hash_rb",
    }

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Kind -> handler function, resolved once per class for ``step``.
        cls._handler_of = {kind: getattr(cls, name) for kind, name in cls._HANDLERS.items()}

    # -- action helpers -----------------------------------------------------
    def send_all(self, msg: WireMessage) -> list[Action]:
        return [Send(to, msg) for to in range(self.n)]

    def request_payload(self, s: NodeId, h: SeqIndex, c: Candidate,
                        backers: list[NodeId]) -> list[Action]:
        """REQ the payload behind a digest from the nodes that vouched for it."""
        req = WireMessage(MsgKind.REQ, s, h, digest=c.digest)
        return [Send(j, req) for j in c.ask(backers)]

    def deliver_once(self, rec: Instance, source: NodeId, payload: Payload, h: SeqIndex,
                     out: list[Action]) -> None:
        """Append a Deliver unless (source, h) was already delivered."""
        if rec.delivered:
            return
        rec.delivered = True
        out.append(Deliver(source, payload, h))
