"""Hash-based Byzantine broadcast: quorums vote on digests, not payloads.

Only the source's MSG and the on-demand FWD carry the payload; ECHO, ACC,
and REQ carry a 32-byte digest. A node that sees a quorum form around a
digest it cannot resolve asks the quorum members for the payload (REQ) and
accepts a forwarded copy (FWD) only from nodes it asked, only if the copy
hashes to the requested digest.

HBrb3f1 runs the double-echo pattern (ECHO then ACC) and needs n >= 3f+1.
HBrb5f1 drops the ACC wave entirely: with n >= 5f+1 a single ECHO wave
amplified at n-2f already guarantees agreement, saving one hop.
"""
from __future__ import annotations

from ..core import (
    Action,
    Candidate,
    Instance,
    MsgKind,
    NodeId,
    Payload,
    Send,
    SeqIndex,
    WireMessage,
)
from .base import Automaton


class _HashBrb(Automaton):
    """Shared MSG / REQ / FWD plumbing for the digest-voting protocols."""

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Send]:
        msg = WireMessage(MsgKind.MSG, self.me, h, payload=payload)
        return self.send_all(msg)

    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if frm != msg.source or msg.payload is None:
            return []
        s, h, m = msg.source, msg.h, msg.payload
        rec = self.instance(s, h)
        if rec.msg_seen:
            return []
        rec.msg_seen = True
        digest = self.digest_of(m)
        rec.hold(digest, m)
        rec.count_echo(digest, self.me)
        if rec.echo_sent:
            return []
        rec.echo_sent = True
        return self.send_all(WireMessage(MsgKind.ECHO, s, h, digest=digest))

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

    def check(self, rec: Instance, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        raise NotImplementedError


class HBrb3f1(_HashBrb):
    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        rec = self.instance(msg.source, msg.h)
        c = rec.count_echo(msg.digest, frm)
        if c is None:
            return []
        return self.check(rec, msg.source, msg.h, c)

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        c = rec.count_acc(msg.digest, frm)
        if c is None:
            return []
        actions: list[Action] = []
        if len(c.accs) == self.f_plus_1 and c.payload is None:
            actions += self.request_payload(s, h, c, c.accs)
        actions += self.check(rec, s, h, c)
        return actions

    def check(self, rec: Instance, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        m = c.payload
        if m is None:
            return []
        actions: list[Action] = []
        echoes, accs = len(c.echoes), len(c.accs)
        if echoes >= self.f_plus_1 and not rec.echo_sent:
            rec.echo_sent = True
            actions += self.send_all(WireMessage(MsgKind.ECHO, s, h, digest=c.digest))
        if (echoes >= self.n_minus_f or accs >= self.f_plus_1) and not rec.acc_sent:
            rec.acc_sent = True
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=c.digest))
        if accs >= self.n_minus_f:
            self.deliver_once(rec, s, m, h, actions)
        return actions


class HBrb5f1(_HashBrb):
    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        c = rec.count_echo(msg.digest, frm)
        if c is None:
            return []
        actions: list[Action] = []
        if len(c.echoes) == self.f_plus_1 and c.payload is None:
            actions += self.request_payload(s, h, c, c.echoes)
        actions += self.check(rec, s, h, c)
        return actions

    def check(self, rec: Instance, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        m = c.payload
        if m is None:
            return []
        actions: list[Action] = []
        echoes = len(c.echoes)
        if echoes >= self.n_minus_2f and not rec.echo_sent:
            rec.echo_sent = True
            actions += self.send_all(WireMessage(MsgKind.ECHO, s, h, digest=c.digest))
        if echoes >= self.n_minus_f:
            self.deliver_once(rec, s, m, h, actions)
        return actions
