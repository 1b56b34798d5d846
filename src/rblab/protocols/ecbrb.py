"""Erasure-coded Byzantine broadcast in two bandwidth/resilience trade-offs.

EcBrb3f1 (n >= 3f+1) codes the payload at k = f+1 so any f+1 honest
elements rebuild it. Votes travel as (digest, element) pairs; a node that
sees f+1 ECHOs for a digest it cannot reconstruct runs an incremental
subset search over the elements it holds, accepting only a reconstruction
that hashes to the voted digest (up to f elements are adversarial
garbage). The ACC wave and the REQ/FWD fallback mirror the hash-based
double-echo protocol.

EcBrb4f1 (n >= 4f+1) codes at k = n-3f, which leaves enough distance to
decode through f corruptions outright: once n-f elements arrive a node
error-corrects without any digest hint. The digest still matters for
agreement, so the source runs a nested full-payload broadcast of the
32-byte digest, tunneled inside HASH_RB envelopes; a node only accepts a
reconstruction endorsed by that nested broadcast.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

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
    Deliver,
    Digest,
    MalformedEnvelope,
    MsgKind,
    NodeId,
    Payload,
    Receive,
    Send,
    SeqIndex,
    WireMessage,
    count_once,
    decode_envelope,
    encode_envelope,
)
from . import ProtocolConfig, ProtocolKind
from .base import Automaton
from .bracha import Bracha

# ECHO tallies in EcBrb4f1 are digest-free (the digest arrives separately
# through the nested broadcast), so they count under this placeholder.
NO_DIGEST: Digest = b""


class EcBrb3f1(Automaton):
    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        k = config.resolved_k()
        assert k is not None
        self.k = k
        self.params = CodeParams(self.n, k)
        # (s, digest, h) -> {claimed_len: incremental searcher}
        self._searchers: dict[tuple, dict[int, SubsetDecoder]] = {}
        self._arrivals: dict[tuple, list[CodedElement]] = {}

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Send]:
        digest = self.digest_of(payload)
        elements = encode(payload, self.params)
        return [
            Send(i, WireMessage(MsgKind.MSG, self.me, h,
             digest=digest, element=elements[i]))
            for i in range(self.n)
        ]

    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if frm != msg.source or msg.digest is None or msg.element is None:
            return []
        if not self.st.mark_once("msg", msg.source, msg.h):
            return []
        s, h, digest = msg.source, msg.h, msg.digest
        count_once(self.st, MsgKind.ECHO, s, digest, h, self.me)
        self._store_element(s, digest, h, msg.element)
        actions: list[Action] = []
        if self.st.mark_sent(MsgKind.ECHO, s, h):
            echo = WireMessage(MsgKind.ECHO, s, h, digest=digest, element=msg.element)
            actions += self.send_all(echo)
        return actions

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None or msg.element is None:
            return []
        s, h, digest = msg.source, msg.h, msg.digest
        if not count_once(self.st, MsgKind.ECHO, s, digest, h, frm):
            return []
        self._store_element(s, digest, h, msg.element)
        return self.check(s, digest, h)

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h, digest = msg.source, msg.h, msg.digest
        if not count_once(self.st, MsgKind.ACC, s, digest, h, frm):
            return []
        actions: list[Action] = []
        if self.st.counter(MsgKind.ACC, s, digest, h) >= self.f_plus_1 \
                and self.st.find_msg(s, h, digest, self.digest_of) is None:
            supporters = self.st.supporters[(MsgKind.ACC, s, digest, h)]
            actions += self._request(s, digest, h, supporters)
        actions += self.check(s, digest, h)
        return actions

    def on_req(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h = msg.source, msg.h
        if not self.st.mark_once("req", s, h, frm):
            return []
        m = self.st.find_msg(s, h, msg.digest, self.digest_of)
        if m is None:
            return []
        return [Send(frm, WireMessage(MsgKind.FWD, s, h, payload=m))]

    def on_fwd(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.payload is None:
            return []
        s, h, m = msg.source, msg.h, msg.payload
        digest = self.digest_of(m)
        if frm not in self.st.asked.get((s, digest, h), set()):
            return []
        if not self.st.mark_once("fwd", s, h, frm, digest):
            return []
        self.st.msg_set[(s, h)].add(m)
        return self.check(s, digest, h)

    def _request(self, s: NodeId, digest: Digest, h: SeqIndex,
                 supporters: list[NodeId]) -> list[Action]:
        asked = self.st.asked[(s, digest, h)]
        targets = [j for j in supporters if j not in asked]
        asked.update(targets)
        req = WireMessage(MsgKind.REQ, s, h, digest=digest)
        return [Send(j, req) for j in targets]

    def _store_element(self, s: NodeId, digest: Digest, h: SeqIndex,
                       element: CodedElement) -> None:
        """Record the element and advance the subset search for its digest.

        One searcher per claimed payload length: honest elements agree on
        the true length, and a lie about it only spawns a searcher that can
        never match the digest. Every element feeds every searcher (each
        one drops lengths whose shard width disagrees)."""
        code_set = self.st.code_set[(s, digest, h)]
        if element in code_set:
            return
        code_set.add(element)
        key = (s, digest, h)
        group = self._searchers.setdefault(key, {})
        arrivals = self._arrivals.setdefault(key, [])
        if element.claimed_len not in group:
            # A bound self.digest_of here would make every world a
            # reference cycle that only the cyclic collector frees.
            searcher = SubsetDecoder(self.params, digest, element.claimed_len,
                                     hashing.digest)
            group[element.claimed_len] = searcher
            for prior in arrivals:
                self._found(s, digest, h, searcher.add(prior))
        arrivals.append(element)
        for searcher in group.values():
            self._found(s, digest, h, searcher.add(element))

    def _found(self, s: NodeId, digest: Digest, h: SeqIndex, payload: Payload | None) -> None:
        if payload is not None:
            self._digest_memo[payload] = digest  # the searcher checked it hashes to digest
            self.st.msg_set[(s, h)].add(payload)

    def check(self, s: NodeId, digest: Digest, h: SeqIndex) -> list[Action]:
        m = self.st.find_msg(s, h, digest, self.digest_of)
        if m is None:
            return []
        actions: list[Action] = []
        echoes = self.st.counter(MsgKind.ECHO, s, digest, h)
        accs = self.st.counter(MsgKind.ACC, s, digest, h)
        if echoes >= self.f_plus_1 and self.st.mark_sent(MsgKind.ECHO, s, h):
            own = encode_element(m, self.params, self.me + 1)
            echo = WireMessage(MsgKind.ECHO, s, h, digest=digest, element=own)
            actions += self.send_all(echo)
        if (echoes >= self.n_minus_f or accs >= self.f_plus_1) \
                and self.st.mark_sent(MsgKind.ACC, s, h):
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=digest))
        if accs >= self.n_minus_f:
            self.deliver_once(s, m, h, actions)
        return actions


class EcBrb4f1(Automaton):
    def __init__(self, config: ProtocolConfig):
        super().__init__(config)
        k = config.resolved_k()
        assert k is not None
        self.k = k
        self.params = CodeParams(self.n, k)
        self.inner = Bracha(ProtocolConfig(
            ProtocolKind.BRACHA, self.n, self.f, self.me,
            strict_resilience=False))
        self._decoded_lens: dict[tuple, set[int]] = {}

    def source_sends(self, payload: Payload, h: SeqIndex) -> list[Send]:
        digest = self.digest_of(payload)
        sends = self._tunnel(self.inner.source_sends(digest, h))
        elements = encode(payload, self.params)
        sends += [
            Send(i, WireMessage(MsgKind.MSG, self.me, h, element=elements[i]))
            for i in range(self.n)
        ]
        return sends

    @staticmethod
    def _tunnel(sends: list[Send]) -> list[Send]:
        """Wrap nested-broadcast sends in HASH_RB envelopes. A multicast's
        copies share one inner message object, so it is encoded once and
        its copies share one outer object too."""
        out: list[Send] = []
        inner = outer = None
        for send in sends:
            if send.msg is not inner:
                inner = send.msg
                tagged = encode_envelope(replace(inner, instance="hash-rb"))
                outer = WireMessage(MsgKind.HASH_RB, inner.source, inner.h, payload=tagged)
            out.append(Send(send.to, outer))
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
        actions: list[Action] = self._tunnel([a for a in inner_actions if isinstance(a, Send)])
        resolved = [a for a in inner_actions if isinstance(a, Deliver)]
        for d in resolved:
            self.st.hash_set[(d.source, d.h)].add(d.payload)
        for d in resolved:
            actions += self._post_resolve(d.source, d.h)
        return actions

    def on_msg(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if frm != msg.source or msg.element is None:
            return []
        if not self.st.mark_once("msg", msg.source, msg.h):
            return []
        s, h = msg.source, msg.h
        self.st.code_set[(s, h)].add(msg.element)
        actions: list[Action] = []
        if self.st.mark_sent(MsgKind.ECHO, s, h):
            echo = WireMessage(MsgKind.ECHO, s, h, element=msg.element)
            actions += self.send_all(echo)
        return actions

    def on_echo(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.element is None:
            return []
        s, h = msg.source, msg.h
        if not count_once(self.st, MsgKind.ECHO, s, NO_DIGEST, h, frm):
            return []
        code_set = self.st.code_set[(s, h)]
        code_set.add(msg.element)
        if len(code_set) < self.n_minus_f or not self._attempt_decode(s, h):
            return []
        return self._post_resolve(s, h)

    def _attempt_decode(self, s: NodeId, h: SeqIndex) -> bool:
        """Error-correct the element set under each plausible payload length.

        Honest elements agree on the true length, so lengths are tried by
        how many elements claim them; a successful reconstruction is only
        acted on once the nested broadcast endorses its digest."""
        code_set = self.st.code_set[(s, h)]
        done = self._decoded_lens.setdefault((s, h), set())
        elements = sorted(code_set, key=lambda e: (e.index, e.data, e.claimed_len))
        tally = Counter(e.claimed_len for e in elements)
        progressed = False
        for length, _ in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])):
            if length in done:
                continue
            payload = decode_correcting(elements, self.params, self.f, length)
            if payload is not None:
                done.add(length)
                self.st.msg_set[(s, h)].add(payload)
                progressed = True
        return progressed

    def on_acc(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h, digest = msg.source, msg.h, msg.digest
        if not count_once(self.st, MsgKind.ACC, s, digest, h, frm):
            return []
        actions: list[Action] = []
        if self.st.counter(MsgKind.ACC, s, digest, h) == self.f_plus_1 \
                and self.st.mark_sent(MsgKind.ACC, s, h):
            actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=digest))
        actions += self.check(s, h)
        return actions

    def on_req(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.digest is None:
            return []
        s, h, digest = msg.source, msg.h, msg.digest
        if not self.st.mark_once("req", s, digest, h, frm):
            return []
        m = self.st.find_msg(s, h, digest, self.digest_of)
        if m is None:
            return []
        return [Send(frm, WireMessage(MsgKind.FWD, s, h, payload=m, digest=digest))]

    def on_fwd(self, frm: NodeId, msg: WireMessage) -> list[Action]:
        if msg.payload is None or msg.digest is None:
            return []
        s, h, m = msg.source, msg.h, msg.payload
        if self.digest_of(m) != msg.digest:
            return []
        if frm not in self.st.asked.get((s, msg.digest, h), set()):
            return []
        if not self.st.mark_once("fwd", s, h, frm, msg.digest):
            return []
        self.st.msg_set[(s, h)].add(m)
        return self._post_resolve(s, h)

    def _post_resolve(self, s: NodeId, h: SeqIndex) -> list[Action]:
        """Run after the node learns a digest or a payload for (s, h)."""
        actions: list[Action] = []
        for x in sorted(self.st.hash_set.get((s, h), ())):
            m = self.st.find_msg(s, h, x, self.digest_of)
            if m is not None and self.st.mark_sent(MsgKind.ACC, s, h):
                actions += self.send_all(WireMessage(MsgKind.ACC, s, h, digest=x))
        actions += self.check(s, h)
        return actions

    def check(self, s: NodeId, h: SeqIndex) -> list[Action]:
        actions: list[Action] = []
        for x in sorted(self.st.hash_set.get((s, h), ())):
            if self.st.counter(MsgKind.ACC, s, x, h) < self.n_minus_f:
                continue
            m = self.st.find_msg(s, h, x, self.digest_of)
            if m is not None:
                self.deliver_once(s, m, h, actions)
            else:
                asked = self.st.asked[(s, x, h)]
                supporters = self.st.supporters[(MsgKind.ACC, s, x, h)]
                targets = [j for j in supporters if j not in asked]
                asked.update(targets)
                req = WireMessage(MsgKind.REQ, s, h, digest=x)
                actions += [Send(j, req) for j in targets]
        return actions
