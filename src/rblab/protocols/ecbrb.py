"""Erasure-coded Byzantine broadcast in two bandwidth/resilience trade-offs.

EcBrb3f1 (n >= 3f+1) codes the payload at k = f+1 so any f+1 honest
elements rebuild it. It runs on the ``DoubleEcho`` engine with the
hash-based protocols' REQ/FWD fallback. Its MSG and ECHO votes travel as
(digest, element) pairs, its ACCs as digests. Its resolver feeds every
element voted for a digest to an online error-correcting decoder, which
accepts only a reconstruction that hashes to that digest (up to f
elements are adversarial garbage, and with c of them held the payload
decodes from k + 2c elements). Its fetch trigger is h-brb-3f1's: it asks
the ACC backers once, when exactly f+1 of them back a digest whose payload
is missing. One of those f+1 is honest, and an honest node ACCs only a
payload it holds, so it answers.

EcBrb4f1 (n >= 4f+1) codes at k = n-3f, which leaves enough distance to
decode through f corruptions outright: once n-f elements arrive a node
error-corrects without any digest hint. The digest still matters for
agreement, so the source runs a nested full-payload broadcast of the
32-byte digest, tunneled inside HASH_RB envelopes; a node only accepts a
reconstruction endorsed by that nested broadcast. The envelope does not
name its sender, so every honest node's ECHO of one digest is the same
bytes, and an honest instance tunnels three distinct envelopes (the nested
MSG, ECHO and ACC) in 1 + 2n multicasts. A node parses each distinct
envelope once per instance and keeps the result, or None for an envelope
it rejects, on the instance record until the instance delivers; later
copies are parsed one by one.

In both, node i only ever sends the element at position i+1 (the source
sends it the same one), so an ECHO whose element index is not its
sender's + 1, or a MSG whose index is not the receiver's + 1, is dropped:
it cannot void or take another node's position.
"""
from __future__ import annotations

from collections import Counter

from ..codec import (
    CodedElement,
    CodeParams,
    SubsetDecoder,
    decode_correcting,
    encode,
    encode_element,
)
from ..core import (
    Action,
    Candidate,
    Deliver,
    Digest,
    Instance,
    MalformedEnvelope,
    MsgKind,
    Multicast,
    NodeId,
    Payload,
    Receive,
    Send,
    SeqIndex,
    WireMessage,
    decode_envelope,
    encode_envelope,
)
from . import ProtocolConfig, ProtocolKind
from .base import Automaton
from .bracha import Bracha
from .hbrb import _HashBrb


class EcBrb3f1(_HashBrb):
    """REQ / FWD as in the hash-based protocols; MSG and ECHO carry elements."""

    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        self.params = CodeParams(self.n, config.resolved_k())

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        digest = self.digest_of(payload)
        elements = encode(payload, self.params)
        return [
            Send(i, WireMessage(MsgKind.MSG, self.me, h,
             digest=digest, element=elements[i]))
            for i in range(self.n)
        ]

    def msg_digest(self, msg: WireMessage) -> Digest | None:
        # The source sends node i the element at position i+1.
        element = msg.element
        return None if element is None or element.index != self.me + 1 else msg.digest

    def vote(self, kind: MsgKind, s: NodeId, h: SeqIndex, c: Candidate,
             element: CodedElement | None = None) -> WireMessage:
        if kind is MsgKind.ECHO and element is None:
            element = encode_element(c.payload, self.params, self.me + 1)
        return WireMessage(kind, s, h, digest=c.digest, element=element)

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        # Node j only ever echoes the element at its own position j+1.
        if msg.digest is None or msg.element is None or msg.element.index != frm + 1:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        c = rec.count_echo(msg.digest, frm)
        if c is None:
            return []
        self.learn(c, msg)
        return self.check(rec, s, h, c)

    def learn(self, c: Candidate, msg: WireMessage) -> None:
        """Feed the message's element to the online decoder of its digest,
        which returns the payload once a decode hashes to that digest."""
        if c.decoder is None:
            c.decoder = SubsetDecoder(self.params, c.digest)
        payload = c.decoder.add(msg.element)
        if payload is not None and c.payload is None:
            c.payload = payload


# An honest instance tunnels three distinct envelopes: the nested MSG and
# the ECHO and ACC of its digest. The cap leaves room for an equivocating
# source and bounds what a faulty node's distinct envelopes can make a node
# hold; envelopes past it are parsed per copy.
_TUNNEL_MEMO_CAP = 8
_UNPARSED = object()


class EcBrb4f1(Automaton):
    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        self.params = CodeParams(self.n, config.resolved_k())
        self.inner = Bracha(ProtocolConfig(
            ProtocolKind.BRACHA, self.n, self.f, self.me,
            strict_resilience=False))

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        digest = self.digest_of(payload)
        sends = self._tunnel(self.inner.source_sends(digest, h))
        elements = encode(payload, self.params)
        sends += [
            Send(i, WireMessage(MsgKind.MSG, self.me, h, element=elements[i]))
            for i in range(self.n)
        ]
        return sends

    @staticmethod
    def _tunnel(inner_actions: list[Action]) -> list[Action]:
        """Wrap each message the nested broadcast sends in a HASH_RB envelope
        and send that the same way: a Multicast as one Multicast, a unicast
        Send to its one recipient. The nested Delivers stay inside."""
        out: list[Action] = []
        for action in inner_actions:
            cls = type(action)
            if cls is Multicast or cls is Send:
                inner = action.msg
                tagged = encode_envelope(WireMessage(
                    inner.kind, inner.source, inner.h, inner.payload, inner.digest,
                    inner.element, "hash-rb"))
                outer = WireMessage(MsgKind.HASH_RB, inner.source, inner.h, payload=tagged)
                out.append(Multicast(outer) if cls is Multicast else Send(action.to, outer))
        return out

    def on_hash_rb(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        envelope = msg.payload
        if envelope is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        memo = rec.tunneled
        if memo is None:
            memo = {}
            if not rec.delivered:
                rec.tunneled = memo
        inner_msg = memo.get(envelope, _UNPARSED)
        if inner_msg is _UNPARSED:
            inner_msg = self._untunnel(envelope, s, h)
            if len(memo) < _TUNNEL_MEMO_CAP:
                memo[envelope] = inner_msg
        if inner_msg is None:
            return []
        inner_actions = self.inner.step(Receive(frm, inner_msg))
        if not inner_actions:
            return []
        actions = self._tunnel(inner_actions)
        # The nested instance is (s, h) too and delivers at most once: its
        # payload is the digest this instance may accept.
        for action in inner_actions:
            if type(action) is Deliver:
                rec.endorsed = action.payload
                actions += self.check(rec, s, h)
        return actions

    @staticmethod
    def _untunnel(envelope: bytes, s: NodeId, h: SeqIndex) -> WireMessage | None:
        """The nested-broadcast message of instance (s, h) that ``envelope``
        carries; None if it is malformed or carries anything else."""
        try:
            inner_msg = decode_envelope(envelope)
        except MalformedEnvelope:
            return None
        if inner_msg.instance != "hash-rb" \
                or inner_msg.kind not in (MsgKind.MSG, MsgKind.ECHO, MsgKind.ACC) \
                or inner_msg.source != s or inner_msg.h != h:
            return None
        return inner_msg

    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if frm != msg.source or msg.element is None or msg.element.index != self.me + 1:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        if rec.msg_seen:
            return []
        rec.msg_seen = True
        self._add_element(rec, msg.element)
        return self.send_all(WireMessage(MsgKind.ECHO, s, h, element=msg.element))

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.element is None or msg.element.index != frm + 1:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        # ECHO votes here carry no digest (it arrives through the nested
        # broadcast), so only which senders echoed is counted.
        bit = 1 << frm
        if rec.echo_voted & bit:
            return []
        rec.echo_voted |= bit
        self._add_element(rec, msg.element)
        if len(rec.elements) < self.n_minus_f or not self._untried_length(rec) \
                or not self._attempt_decode(rec):
            return []
        return self.check(rec, s, h)

    @staticmethod
    def _add_element(rec: Instance, element: CodedElement) -> None:
        if rec.elements is None:
            rec.elements = set()
        rec.elements.add(element)

    @staticmethod
    def _untried_length(rec: Instance) -> bool:
        """Whether some length claimed in the element set has not decoded yet."""
        done = rec.decoded_lens
        return done is None or any(e.claimed_len not in done for e in rec.elements)

    def _attempt_decode(self, rec: Instance) -> bool:
        """Error-correct the element set under each plausible payload length.

        Honest elements agree on the true length, so lengths are tried by
        how many elements claim them; a successful reconstruction is only
        acted on once the nested broadcast endorses its digest. A length
        that decoded once is not tried again."""
        if rec.decoded_lens is None:
            rec.decoded_lens = set()
        done = rec.decoded_lens
        claims = Counter(e.claimed_len for e in rec.elements)
        progressed = False
        for length, _ in sorted(claims.items(), key=lambda kv: (-kv[1], kv[0])):
            if length in done:
                continue
            payload = decode_correcting(rec.elements, self.params, self.f, length)
            if payload is not None:
                done.add(length)
                rec.hold(self.digest_of(payload), payload)
                progressed = True
        return progressed

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        c = rec.count_acc(msg.digest, frm)
        if c is None:
            return []
        actions: list[Action] = []
        if len(c.accs) == self.f_plus_1 and not rec.acc_sent:
            rec.acc_sent = True
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=c.digest))
        actions += self.check(rec, s, h)
        return actions

    def on_req(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h, digest = msg.source, msg.h, msg.digest
        rec = self.instance(s, h)
        if not rec.once(("req", digest, frm)):
            return []
        m = rec.payload(digest)
        if m is None:
            return []
        return [Send(frm, WireMessage(MsgKind.FWD, s, h, payload=m, digest=digest))]

    def on_fwd(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        # Hash only a FWD from a node asked for the payload it names while
        # that payload is missing; once it is held, ``check`` has run.
        s, h, m = msg.source, msg.h, msg.payload
        rec = None if m is None or msg.digest is None else self.instances.get((s, h))
        c = None if rec is None else rec.candidates.get(msg.digest)
        if c is None or not c.awaits(frm) or self.digest_of(m) != msg.digest:
            return []
        c.payload = m
        return self.check(rec, s, h)

    def check(self, rec: Instance, s: NodeId, h: SeqIndex) -> list[Action]:
        """Run after the node learns a digest, a payload or an ACC for
        (s, h): ACC the endorsed digest once its payload is held, and at
        n-f ACCs for it deliver, or fetch the payload from those backers."""
        c = None if rec.endorsed is None else rec.candidates.get(rec.endorsed)
        if c is None:
            return []
        actions: list[Action] = []
        if c.payload is not None and not rec.acc_sent:
            rec.acc_sent = True
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=c.digest))
        if len(c.accs) < self.n_minus_f:
            return actions
        if c.payload is None:
            return self.request_payload(s, h, c, c.accs)
        self.deliver_once(rec, s, c.payload, h, actions)
        rec.tunneled = None
        return actions
