"""Erasure-coded Byzantine broadcast in two bandwidth/resilience trade-offs.

EcBrb3f1 (n >= 3f+1) codes the payload at k = f+1 so any f+1 honest
elements rebuild it. It runs on the ``DoubleEcho`` engine with the
hash-based protocols' REQ/FWD fallback. Its MSG and ECHO votes travel as
(digest, element) pairs, its ACCs as digests. Its resolver feeds every
element voted for a digest to an incremental subset search, which
accepts only a reconstruction that hashes to that digest (up to f
elements are adversarial garbage). Its fetch trigger asks every ACC
backer from the (f+1)-th on while the payload is missing.

EcBrb4f1 (n >= 4f+1) codes at k = n-3f, which leaves enough distance to
decode through f corruptions outright: once n-f elements arrive a node
error-corrects without any digest hint. The digest still matters for
agreement, so the source runs a nested full-payload broadcast of the
32-byte digest, tunneled inside HASH_RB envelopes; a node only accepts a
reconstruction endorsed by that nested broadcast.
"""
from __future__ import annotations

from .. import hashing
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
        return None if msg.element is None else msg.digest

    def vote(self, kind: MsgKind, s: NodeId, h: SeqIndex, c: Candidate,
             element: CodedElement | None = None) -> WireMessage:
        if kind is MsgKind.ECHO and element is None:
            element = encode_element(c.payload, self.params, self.me + 1)
        return WireMessage(kind, s, h, digest=c.digest, element=element)

    def fetch(self, s: NodeId, h: SeqIndex, c: Candidate) -> list[Action]:
        # Ask every ACC backer from the (f+1)-th on.
        if len(c.accs) < self.f_plus_1:
            return []
        return self.request_payload(s, h, c, c.accs)

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None or msg.element is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        c = rec.count_echo(msg.digest, frm)
        if c is None:
            return []
        self.learn(c, msg)
        return self.check(rec, s, h, c)

    def learn(self, c: Candidate, msg: WireMessage) -> None:
        """Record the message's element and advance the subset search for
        its digest.

        One searcher per claimed payload length: honest elements agree on
        the true length, and a lie about it only spawns a searcher that can
        never match the digest. Every element feeds every searcher (each
        one drops lengths whose shard width disagrees)."""
        element = msg.element
        if c.arrivals is None:
            c.arrivals, c.searchers = {}, {}
        elif element in c.arrivals:
            return
        group = c.searchers
        if element.claimed_len not in group:
            # A bound self.digest_of here would make every world a
            # reference cycle that only the cyclic collector frees.
            searcher = SubsetDecoder(self.params, c.digest, element.claimed_len,
                                     hashing.digest)
            group[element.claimed_len] = searcher
            for prior in c.arrivals:
                self._found(c, searcher.add(prior))
        c.arrivals[element] = None
        for searcher in group.values():
            self._found(c, searcher.add(element))

    def _found(self, c: Candidate, payload: Payload | None) -> None:
        if payload is not None:
            self._digest_memo[payload] = c.digest  # the searcher checked it hashes to digest
            if c.payload is None:
                c.payload = payload


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
        if msg.payload is None:
            return []
        try:
            inner_msg = decode_envelope(msg.payload)
        except MalformedEnvelope:
            return []
        if inner_msg.instance != "hash-rb" \
                or inner_msg.kind not in (MsgKind.MSG, MsgKind.ECHO, MsgKind.ACC) \
                or inner_msg.source != msg.source or inner_msg.h != msg.h:
            return []
        inner_actions = self.inner.step(Receive(frm, inner_msg))
        actions = self._tunnel(inner_actions)
        # The nested instance is (msg.source, msg.h) too and delivers at
        # most once: its payload is the digest this instance may accept.
        for action in inner_actions:
            if isinstance(action, Deliver):
                rec = self.instance(msg.source, msg.h)
                rec.endorsed = action.payload
                actions += self.check(rec, msg.source, msg.h)
        return actions

    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if frm != msg.source or msg.element is None:
            return []
        s, h = msg.source, msg.h
        rec = self.instance(s, h)
        if rec.msg_seen:
            return []
        rec.msg_seen = True
        self._add_element(rec, msg.element)
        if rec.echo_sent:
            return []
        rec.echo_sent = True
        return self.send_all(WireMessage(MsgKind.ECHO, s, h, element=msg.element))

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.element is None:
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
        """Add a distinct element to the instance and count its claimed length."""
        if rec.elements is None:
            rec.elements, rec.claims = set(), {}
        if element not in rec.elements:
            rec.elements.add(element)
            rec.claims[element.claimed_len] = rec.claims.get(element.claimed_len, 0) + 1

    @staticmethod
    def _untried_length(rec: Instance) -> bool:
        """Whether some length claimed in the element set has not decoded yet."""
        return rec.decoded_lens is None or not rec.decoded_lens.issuperset(rec.claims)

    def _attempt_decode(self, rec: Instance) -> bool:
        """Error-correct the element set under each plausible payload length.

        Honest elements agree on the true length, so lengths are tried by
        how many elements claim them; a successful reconstruction is only
        acted on once the nested broadcast endorses its digest. A length
        that decoded once is not tried again."""
        if rec.decoded_lens is None:
            rec.decoded_lens = set()
        done = rec.decoded_lens
        elements = sorted(rec.elements, key=lambda e: (e.index, e.data, e.claimed_len))
        progressed = False
        for length, _ in sorted(rec.claims.items(), key=lambda kv: (-kv[1], kv[0])):
            if length in done:
                continue
            payload = decode_correcting(elements, self.params, self.f, length)
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
        if msg.payload is None or msg.digest is None:
            return []
        s, h, m = msg.source, msg.h, msg.payload
        if self.digest_of(m) != msg.digest:
            return []
        rec = self.instances.get((s, h))
        if rec is None or not rec.was_asked(msg.digest, frm):
            return []
        if not rec.once(("fwd", frm, msg.digest)):
            return []
        rec.hold(msg.digest, m)
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
        return actions
