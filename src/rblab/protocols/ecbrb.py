"""Erasure-coded Byzantine broadcast in two bandwidth/resilience trade-offs.

EcBrb3f1 (n >= 3f+1) codes the payload at k = f+1 so any f+1 honest
elements rebuild it. It runs on the ``DoubleEcho`` engine with the
``Fetching`` layer's REQ/FWD fallback. Its MSG and ECHO votes travel as
(digest, element) pairs, its ACCs as digests; its ``on_echo`` counts an
ECHO under the digest it carries only if its element sits at its sender's
position, and learns from the element. Its resolver feeds every element
voted for a digest to an online error-correcting decoder, which accepts
only a reconstruction that hashes to that digest (up to f elements are
adversarial garbage, and with c of them held the payload decodes from
k + 2c elements). It fetches by the engine's rule: it asks the ACC backers
once, when exactly f+1 of them back a digest whose payload is missing. One
of those f+1 is honest, and an honest node ACCs only a payload it holds,
so it answers.

EcBrb4f1 (n >= 4f+1) codes at k = n-3f, which leaves enough distance to
decode through f corruptions outright: once n-f positions are held
(``Instance.add_element``), ``_attempt_decode`` error-corrects them
without any digest hint. The digest still matters for agreement, so the
source runs a nested full-payload broadcast of the 32-byte digest,
tunneled inside HASH_RB envelopes; a node only accepts a reconstruction
endorsed by that nested broadcast. ``check`` sends the node's one ACC: for
a digest that exactly f+1 ACCs back (one of them is honest), or else for
the endorsed digest once its payload is held. When n-f ACCs back the
endorsed digest and its payload is still missing, a node asks those
backers for it and takes the forwarded copy through the ``Fetching``
layer. The envelope does not name its sender, so every honest node's ECHO
of one digest is the same bytes, and an honest instance tunnels three
distinct envelopes (the nested MSG, ECHO and ACC) in 1 + 2n multicasts.
Each carries the 32-byte digest, so a HASH_RB of any other size is dropped
unparsed. A node keeps its recent parses, rejections included, in a small
memo of its own, and opens no record for an envelope it rejects. The outer
``step`` has made the checks a nested one would repeat, so a tunneled
message goes to the nested handler after one lookup of the nested record.
A node closes the instance once it has delivered, taken the source's MSG
and sent its ACC, and its nested instance has closed; the nested record
retires with it.

In both, node i only ever sends the element at position i+1 (the source
sends it the same one), so an ECHO whose element index is not its
sender's + 1, or a MSG whose index is not the receiver's + 1, is dropped:
it cannot void or take another node's position.
"""
from __future__ import annotations

from .. import hashing
from ..codec import (
    CodedElement,
    SubsetDecoder,
    decode_correcting,
    encode,
)
from ..core import (
    HEADER_SIZE,
    Action,
    Candidate,
    Closed,
    Deliver,
    Digest,
    Instance,
    MalformedEnvelope,
    MsgKind,
    Multicast,
    NodeId,
    Payload,
    Send,
    SeqIndex,
    WireMessage,
    decode_envelope,
    encode_envelope,
)
from . import ProtocolConfig, ProtocolKind
from .base import DoubleEcho, Fetching
from .bracha import Bracha

# Read per message or per parse: module constants cost less than enum
# member reads.
_ECHO = MsgKind.ECHO
_NESTED_KINDS = (MsgKind.MSG, MsgKind.ECHO, MsgKind.ACC)
_NESTED_SIZE = HEADER_SIZE + hashing.DIGEST_SIZE  # a header and the digest
_PARSES_KEPT = 32  # a node's parse memo keeps this many, dropping the oldest


class EcBrb3f1(Fetching, DoubleEcho):
    """The hash-based protocols' engine and fetch layer; MSG and ECHO carry
    elements."""

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        return self.send_elements(h, encode(payload, self.params), self.digest_of(payload))

    def msg_digest(self, msg: WireMessage) -> Digest | None:
        # The MSG counts as this node's own ECHO: the source sends node i
        # the element at position i+1.
        return self.echo_key(self.me, msg)

    def vote(self, kind: MsgKind, s: NodeId, h: SeqIndex, c: Candidate,
             element: CodedElement | None = None) -> WireMessage:
        if kind is _ECHO and element is None:
            element = encode(c.payload, self.params)[self.me]
        return WireMessage(kind, s, h, digest=c.digest, element=element)

    def echo_key(self, frm: NodeId, msg: WireMessage) -> Digest | None:
        # Node j only ever echoes the element at its own position j+1.
        element = msg.element
        return None if element is None or element.index != frm + 1 else msg.digest

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        # An ECHO carries its sender's element.
        return self.tally(frm, msg, rec, self.echo_key(frm, msg), Instance.count_echo, True)

    def learn(self, c: Candidate, msg: WireMessage) -> None:
        """Feed the message's element to the online decoder of its digest,
        which returns the payload once a decode hashes to that digest."""
        if c.decoder is None:
            c.decoder = SubsetDecoder(self.params, c.digest)
        payload = c.decoder.add(msg.element)
        if payload is not None and c.payload is None:
            c.payload = payload


class EcBrb4f1(Fetching):
    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        self.inner = Bracha(ProtocolConfig(
            ProtocolKind.BRACHA, self.n, self.f, self.me,
            strict_resilience=False))
        # This node's recent parses, rejections (None) included, by
        # (envelope, s, h), oldest first: an honest instance's 1 + 2n
        # tunneled multicasts carry only three distinct envelopes. Kept per
        # node, so a rerun of a world parses again what its first run did.
        self.parses: dict[tuple[bytes, NodeId, SeqIndex], WireMessage | None] = {}

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Action]:
        sends = self._tunnel(self.inner.source_sends(self.digest_of(payload), h))
        return sends + self.send_elements(h, encode(payload, self.params))

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

    def on_hash_rb(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        envelope = msg.payload
        if envelope is None or len(envelope) != _NESTED_SIZE:
            return []
        s, h = msg.source, msg.h
        key = (envelope, s, h)
        parses = self.parses
        try:
            inner_msg = parses[key]
        except KeyError:
            inner_msg = parses[key] = self._untunnel(envelope, s, h)
            if len(parses) > _PARSES_KEPT:
                del parses[next(iter(parses))]
        if inner_msg is None:
            return []
        # ``_untunnel`` let through only kinds the nested Bracha handles.
        inner = self.inner
        inner_rec = inner.instances.get((s, h))
        if type(inner_rec) is Closed:
            return []
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        inner_actions = inner._handler_of[inner_msg.kind](inner, frm, inner_msg, inner_rec)
        if not inner_actions:
            return []
        actions = self._tunnel(inner_actions)
        # The nested instance is (s, h) too and delivers at most once: its
        # payload is the digest this instance may accept.
        for action in inner_actions:
            if type(action) is Deliver:
                rec.endorsed = action.payload
                actions += self.check(rec, s, h)
        self._close_if_done(rec, s, h)
        return actions

    def _close_if_done(self, rec: Instance, s: NodeId, h: SeqIndex) -> None:
        """Close (s, h), and drop its nested record, once both are done."""
        if rec.delivered and rec.msg_seen and rec.acc_sent \
                and type(self.inner.instances.get((s, h))) is Closed:
            del self.inner.instances[(s, h)]
            self.close(s, h, rec)

    @staticmethod
    def _untunnel(envelope: bytes, s: NodeId, h: SeqIndex) -> WireMessage | None:
        """The nested-broadcast message of instance (s, h) that ``envelope``
        carries; None if it is malformed or carries anything else."""
        try:
            inner_msg = decode_envelope(envelope)
        except MalformedEnvelope:
            return None
        if inner_msg.instance != "hash-rb" \
                or inner_msg.kind not in _NESTED_KINDS \
                or inner_msg.source != s or inner_msg.h != h:
            return None
        return inner_msg

    def on_msg(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        if frm != msg.source or msg.element is None or msg.element.index != self.me + 1:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        if rec.msg_seen:
            return []
        rec.msg_seen = True
        rec.add_element(msg.element)
        self._close_if_done(rec, s, h)
        return self.send_all(WireMessage(MsgKind.ECHO, s, h, element=msg.element))

    def on_echo(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        if msg.element is None or msg.element.index != frm + 1:
            return []
        s, h = msg.source, msg.h
        if rec is None:
            rec = self.instances[(s, h)] = Instance()
        # ECHO votes here carry no digest (it arrives through the nested
        # broadcast), so only which senders echoed is counted.
        bit = 1 << frm
        if rec.echo_voted & bit:
            return []
        rec.echo_voted |= bit
        rec.add_element(msg.element)
        return self.check(rec, s, h) if self._attempt_decode(rec) else []

    def on_acc(self, frm: NodeId, msg: WireMessage, rec: Instance | None) -> list[Action]:
        return self.tally(frm, msg, rec, msg.digest, Instance.count_acc)

    def _attempt_decode(self, rec: Instance) -> bool:
        """Error-correct the elements held, once n-f positions are, under
        each plausible payload length; whether a new payload is held.

        Every claimed length not yet decoded is tried; a reconstruction is
        only acted on once the nested broadcast endorses its digest."""
        elements = rec.elements.values()
        if len(elements) < self.n_minus_f:
            return False
        done = rec.decoded_lens
        if done is None:
            done = rec.decoded_lens = set()
        progressed = False
        for length in {e.claimed_len for e in elements} - done:
            payload = decode_correcting(elements, self.params, self.f, length)
            if payload is not None:
                done.add(length)
                rec.hold(self.digest_of(payload), payload)
                progressed = True
        return progressed

    def check(self, rec: Instance, s: NodeId, h: SeqIndex,
              c: Candidate | None = None) -> list[Action]:
        """Run after the node learns a digest, a payload or an ACC (for
        ``c``) of (s, h). ACC ``c`` at exactly f+1 ACCs for it, or else the
        endorsed digest once its payload is held. At n-f ACCs for the
        endorsed digest deliver, or fetch the payload from those backers."""
        endorsed = rec.candidates.get(rec.endorsed)
        actions: list[Action] = []
        if not rec.acc_sent:
            if c is None or len(c.accs) != self.f_plus_1:
                c = endorsed if endorsed is not None and endorsed.payload is not None else None
            if c is not None:
                rec.acc_sent = True
                actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=c.digest))
        if endorsed is None or len(endorsed.accs) < self.n_minus_f:
            return actions
        if endorsed.payload is None:
            return actions + self.request_payload(s, h, endorsed, endorsed.accs)
        self.deliver_once(rec, s, endorsed.payload, h, actions)
        self._close_if_done(rec, s, h)
        return actions
