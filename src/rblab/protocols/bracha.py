"""Bracha's double-echo broadcast carrying the full payload end to end.

Three waves: the source's MSG, an ECHO wave, and an ACC wave. A node
echoes after the source's MSG or after f+1 matching ECHOs, accepts after
n-f ECHOs or f+1 ACCs, and delivers after n-f ACCs. Every message carries
the whole payload, so nodes never have to fetch it separately; internally
the tallies are keyed by payload digest so equivocating sources split
their support instead of pooling it.
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


class Bracha(Automaton):
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
        return self.send_all(WireMessage(MsgKind.ECHO, s, h, payload=m))

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return self._tally(frm, msg, Instance.count_echo)

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        return self._tally(frm, msg, Instance.count_acc)

    def _tally(self, frm: NodeId, msg: WireMessage, count) -> list[Action]:
        """Hold the payload, then count the vote with ``count`` (ECHO or ACC)."""
        if msg.payload is None:
            return []
        rec = self.instance(msg.source, msg.h)
        digest = self.digest_of(msg.payload)
        rec.hold(digest, msg.payload)
        c = count(rec, digest, frm)
        if c is None:
            return []
        return self.check(rec, msg.source, msg.h, c)

    def check(self, rec: Instance, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        m = c.payload
        actions: list[Action] = []
        echoes, accs = len(c.echoes), len(c.accs)
        if echoes >= self.f_plus_1 and not rec.echo_sent:
            rec.echo_sent = True
            actions += self.send_all(WireMessage(MsgKind.ECHO, s, h, payload=m))
        if (echoes >= self.n_minus_f or accs >= self.f_plus_1) and not rec.acc_sent:
            rec.acc_sent = True
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, payload=m))
        if accs >= self.n_minus_f:
            self.deliver_once(rec, s, m, h, actions)
        return actions
