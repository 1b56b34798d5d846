"""Wire messages, the envelope byte format, and per-instance protocol state.

Envelope layout (all integers big-endian):

    offset  size  field
    0       1     kind        (MSG=1 ECHO=2 ACC=3 REQ=4 FWD=5 HASH_RB=6)
    1       1     variant     (PAYLOAD=1 DIGEST=2 ELEMENT=3
                               DIGEST_ELEMENT=4 PAYLOAD_DIGEST=5)
    2       1     instance    (0 = top level, 1 = nested hash broadcast)
    3       2     source      broadcasting node id
    5       4     h           per-source sequence index
    9       4     body length
    13      ...   body

Body encodings by variant: PAYLOAD is raw bytes; DIGEST is exactly 32
bytes; ELEMENT is index(1) + claimed_len(4) + shard bytes; DIGEST_ELEMENT
is a digest followed by an element; PAYLOAD_DIGEST is a digest followed by
raw payload bytes. Each kind admits a fixed set of variants; anything else
is malformed.

An automaton answers ``BroadcastRequest`` and ``Receive`` events with
``Send``, ``Multicast`` (one message to every node) and ``Deliver``
actions; ``expand`` lists a Multicast as its n Sends.

Protocol state: each automaton keeps one ``Instance`` record per broadcast
instance (source, h) and looks it up once per event. The record holds the
sent, seen and delivered flags, the masks of senders whose ECHO and ACC
already counted, the erasure-coded protocols' element sets, and one
``Candidate`` per digest heard of (per payload in bracha): its payload
once known, its ECHO and ACC backers in arrival order, whom its payload was
requested from, and ec-brb-3f1's online decoder of the elements voted for
it.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from . import hashing
from .codec import (
    CodedElement,
    ELEMENT_OVERHEAD,
    SubsetDecoder,
    parse_element,
    serialize_element,
)

NodeId = int
SeqIndex = int
Payload = bytes
Digest = bytes


class MalformedEnvelope(ValueError):
    """Raised when bytes do not parse as a valid envelope."""


class MsgKind(IntEnum):
    MSG = 1
    ECHO = 2
    ACC = 3
    REQ = 4
    FWD = 5
    HASH_RB = 6


class BodyVariant(IntEnum):
    PAYLOAD = 1
    DIGEST = 2
    ELEMENT = 3
    DIGEST_ELEMENT = 4
    PAYLOAD_DIGEST = 5


# Which body shapes each message kind may legally carry.
KIND_VARIANTS: dict[MsgKind, frozenset[BodyVariant]] = {
    MsgKind.MSG: frozenset({BodyVariant.PAYLOAD, BodyVariant.ELEMENT,
                            BodyVariant.DIGEST_ELEMENT}),
    MsgKind.ECHO: frozenset({BodyVariant.PAYLOAD, BodyVariant.DIGEST,
                             BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT}),
    MsgKind.ACC: frozenset({BodyVariant.PAYLOAD, BodyVariant.DIGEST}),
    MsgKind.REQ: frozenset({BodyVariant.DIGEST}),
    MsgKind.FWD: frozenset({BodyVariant.PAYLOAD, BodyVariant.PAYLOAD_DIGEST}),
    MsgKind.HASH_RB: frozenset({BodyVariant.PAYLOAD}),
}

_HEADER = struct.Struct(">BBBHII")
HEADER_SIZE = _HEADER.size

# Wire code -> member; a plain dict lookup is much cheaper than the enum
# constructor on the decode path.
_KIND_OF = {int(kind): kind for kind in MsgKind}
_VARIANT_OF = {int(variant): variant for variant in BodyVariant}

_INSTANCE_CODES = {None: 0, "hash-rb": 1}
_INSTANCE_NAMES = {v: k for k, v in _INSTANCE_CODES.items()}


@dataclass(frozen=True)
class WireMessage:
    """One protocol message. The populated optional fields determine the
    body variant: payload only, digest only, element only, digest+element,
    or payload+digest."""

    kind: MsgKind
    source: NodeId
    h: SeqIndex
    payload: Payload | None = None
    digest: Digest | None = None
    element: CodedElement | None = None
    instance: str | None = None

    def variant(self) -> BodyVariant:
        has = (self.payload is not None, self.digest is not None,
               self.element is not None)
        match has:
            case (True, False, False):
                return BodyVariant.PAYLOAD
            case (False, True, False):
                return BodyVariant.DIGEST
            case (False, False, True):
                return BodyVariant.ELEMENT
            case (False, True, True):
                return BodyVariant.DIGEST_ELEMENT
            case (True, True, False):
                return BodyVariant.PAYLOAD_DIGEST
        raise MalformedEnvelope(f"no body variant for fields {has}")


def _body_size(msg: WireMessage) -> int:
    variant = msg.variant()
    size = 0
    if variant in (BodyVariant.DIGEST, BodyVariant.DIGEST_ELEMENT,
                   BodyVariant.PAYLOAD_DIGEST):
        size += hashing.DIGEST_SIZE
    if variant in (BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT):
        size += ELEMENT_OVERHEAD + len(msg.element.data)
    if variant in (BodyVariant.PAYLOAD, BodyVariant.PAYLOAD_DIGEST):
        size += len(msg.payload)
    return size


def envelope_size(msg: WireMessage) -> int:
    """Exact serialized size without building the bytes."""
    return HEADER_SIZE + _body_size(msg)


def encode_envelope(msg: WireMessage) -> bytes:
    """Serialize; injective over valid messages and self-delimiting."""
    variant = msg.variant()
    if variant not in KIND_VARIANTS[msg.kind]:
        raise MalformedEnvelope(f"{msg.kind.name} cannot carry {variant.name}")
    if msg.digest is not None and len(msg.digest) != hashing.DIGEST_SIZE:
        raise MalformedEnvelope(f"digest must be {hashing.DIGEST_SIZE} bytes")
    if msg.instance not in _INSTANCE_CODES:
        raise MalformedEnvelope(f"unknown instance tag {msg.instance!r}")
    if not 0 <= msg.source <= 0xFFFF or not 0 <= msg.h <= 0xFFFFFFFF:
        raise MalformedEnvelope("source or sequence index out of range")
    parts = []
    if msg.digest is not None:
        parts.append(msg.digest)
    if msg.element is not None:
        parts.append(serialize_element(msg.element))
    if msg.payload is not None:
        parts.append(msg.payload)
    body = b"".join(parts)
    header = _HEADER.pack(msg.kind, variant, _INSTANCE_CODES[msg.instance],
                          msg.source, msg.h, len(body))
    return header + body


def decode_envelope(buf: bytes) -> WireMessage:
    """Parse one envelope; the buffer must contain exactly one."""
    if len(buf) < HEADER_SIZE:
        raise MalformedEnvelope(f"{len(buf)} bytes is shorter than the header")
    kind_b, variant_b, instance_b, source, h, body_len = _HEADER.unpack_from(buf)
    kind = _KIND_OF.get(kind_b)
    if kind is None:
        raise MalformedEnvelope(f"{kind_b} is not a valid MsgKind")
    variant = _VARIANT_OF.get(variant_b)
    if variant is None:
        raise MalformedEnvelope(f"{variant_b} is not a valid BodyVariant")
    if instance_b not in _INSTANCE_NAMES:
        raise MalformedEnvelope(f"unknown instance code {instance_b}")
    if variant not in KIND_VARIANTS[kind]:
        raise MalformedEnvelope(f"{kind.name} cannot carry {variant.name}")
    if len(buf) != HEADER_SIZE + body_len:
        raise MalformedEnvelope(
            f"envelope declares {body_len} body bytes, buffer has {len(buf) - HEADER_SIZE}")
    body = buf[HEADER_SIZE:]
    payload = digest = element = None
    try:
        if variant in (BodyVariant.DIGEST, BodyVariant.DIGEST_ELEMENT,
                       BodyVariant.PAYLOAD_DIGEST):
            if len(body) < hashing.DIGEST_SIZE:
                raise ValueError("body shorter than a digest")
            digest, body = body[:hashing.DIGEST_SIZE], body[hashing.DIGEST_SIZE:]
        if variant in (BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT):
            element = parse_element(body)
            body = b""
        if variant in (BodyVariant.PAYLOAD, BodyVariant.PAYLOAD_DIGEST):
            payload, body = body, b""
        if variant == BodyVariant.DIGEST and body:
            raise ValueError("digest body has trailing bytes")
    except ValueError as exc:
        raise MalformedEnvelope(str(exc)) from None
    return WireMessage(kind=kind, source=source, h=h, payload=payload,
                       digest=digest, element=element,
                       instance=_INSTANCE_NAMES[instance_b])


@dataclass(frozen=True)
class BroadcastRequest:
    """Ask the local node to broadcast ``payload`` under sequence ``h``."""

    payload: Payload
    h: SeqIndex


@dataclass(frozen=True)
class Receive:
    """A message arriving from transport-authenticated sender ``frm``
    (which may differ from msg.source)."""

    frm: NodeId
    msg: WireMessage


Event = BroadcastRequest | Receive


@dataclass(frozen=True)
class Send:
    """One message to one node."""

    to: NodeId
    msg: WireMessage


@dataclass(frozen=True)
class Multicast:
    """One message to every node 0..n-1, the sender included, as one action."""

    msg: WireMessage


@dataclass(frozen=True)
class Deliver:
    source: NodeId
    payload: Payload
    h: SeqIndex


Action = Send | Multicast | Deliver


def expand(actions: list[Action], n: int) -> list[Action]:
    """The per-recipient form of ``actions``: each Multicast becomes
    ``Send(0, msg) .. Send(n-1, msg)`` in its place; other actions stay."""
    out: list[Action] = []
    for action in actions:
        if type(action) is Multicast:
            out += [Send(to, action.msg) for to in range(n)]
        else:
            out.append(action)
    return out


class Candidate:
    """One value a broadcast instance has heard of, keyed by its digest (by
    the payload itself in bracha): its payload once held, and the senders
    whose ECHO and ACC counted for it, in arrival order, so a threshold's
    requests go to the exact senders that crossed it."""

    __slots__ = ("digest", "payload", "echoes", "accs", "asked", "decoder")

    def __init__(self, digest: Digest) -> None:
        self.digest = digest
        self.payload: Payload | None = None
        self.echoes: list[NodeId] = []
        self.accs: list[NodeId] = []
        self.asked: set[NodeId] | None = None  # nodes sent a REQ for the payload
        # ec-brb-3f1: the online decoder of the elements voted with this digest
        self.decoder: SubsetDecoder | None = None

    def ask(self, backers: list[NodeId]) -> list[NodeId]:
        """The backers not asked yet, in order; marks them asked."""
        if self.asked is None:
            self.asked = set()
        targets = [j for j in backers if j not in self.asked]
        self.asked.update(targets)
        return targets

    def awaits(self, node: NodeId) -> bool:
        """Whether ``node`` was asked for this payload and it is still missing."""
        return self.payload is None and self.asked is not None and node in self.asked


class Instance:
    """Everything one node knows about one broadcast instance (source, h).

    An automaton keeps one record per instance and looks it up once per
    event. Per-candidate state (payload, backers, requests) lives in the
    ``candidates`` it maps keys (digests, or bracha's payloads) to. A
    sender counts at most once per kind (ECHO, ACC) and instance, for the
    first candidate it backs, so the per-kind masks of counted senders
    ignore the key. The erasure-coded fields stay None in automata that do
    not use them. ec-brb-4f1 also keeps ``tunneled``, the parse of each
    distinct HASH_RB envelope of the instance, until the instance delivers.
    """

    __slots__ = (
        "candidates", "echo_voted", "acc_voted",
        "msg_seen", "echo_sent", "acc_sent", "decoded", "delivered", "seen",
        "elements", "decoded_lens", "endorsed", "tunneled",
    )

    def __init__(self) -> None:
        self.candidates: dict[Digest, Candidate] = {}
        self.echo_voted = 0     # bit i set once sender i's ECHO was counted
        self.acc_voted = 0      # likewise for ACC
        self.msg_seen = False   # the source's MSG (or first flood copy) was taken
        self.echo_sent = False
        self.acc_sent = False
        self.decoded = False    # ec-crb ran its one erasure decode
        self.delivered = False
        self.seen: set | None = None  # once-only REQ keys
        # ec-crb, ec-brb-4f1: the distinct elements held
        self.elements: set[CodedElement] | None = None
        # ec-brb-4f1: lengths that decoded; the digest the nested broadcast
        # delivered
        self.decoded_lens: set[int] | None = None
        self.endorsed: Digest | None = None
        # ec-brb-4f1: each distinct tunneled envelope -> the nested-broadcast
        # message it holds, or None if it holds none for this instance;
        # dropped on delivery
        self.tunneled: dict[bytes, WireMessage | None] | None = None

    def candidate(self, digest: Digest) -> Candidate:
        c = self.candidates.get(digest)
        if c is None:
            c = self.candidates[digest] = Candidate(digest)
        return c

    def payload(self, digest: Digest) -> Payload | None:
        c = self.candidates.get(digest)
        return None if c is None else c.payload

    def hold(self, digest: Digest, payload: Payload) -> Candidate:
        """Keep ``payload`` as the one behind ``digest`` (the caller checked it)."""
        c = self.candidate(digest)
        if c.payload is None:
            c.payload = payload
        return c

    def count_echo(self, digest: Digest, sender: NodeId) -> Candidate | None:
        """Count ``sender``'s ECHO for ``digest``; None if it already counted."""
        bit = 1 << sender
        if self.echo_voted & bit:
            return None
        self.echo_voted |= bit
        c = self.candidate(digest)
        c.echoes.append(sender)
        return c

    def count_acc(self, digest: Digest, sender: NodeId) -> Candidate | None:
        """Count ``sender``'s ACC for ``digest``; None if it already counted."""
        bit = 1 << sender
        if self.acc_voted & bit:
            return None
        self.acc_voted |= bit
        c = self.candidate(digest)
        c.accs.append(sender)
        return c

    def once(self, key) -> bool:
        """True the first time ``key`` is seen in this instance."""
        seen = self.seen
        if seen is None:
            self.seen = {key}
            return True
        if key in seen:
            return False
        seen.add(key)
        return True
