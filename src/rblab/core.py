"""Wire messages, the envelope byte format, and per-instance protocol state.

Envelope layout (all integers big-endian):

    offset  size  field
    0       1     kind        (MSG=1 ECHO=2 ACC=3 REQ=4 FWD=5 HASH_RB=6)
    1       1     variant     (PAYLOAD=1 DIGEST=2 ELEMENT=3
                               DIGEST_ELEMENT=4)
    2       1     instance    (0 = top level, 1 = nested hash broadcast)
    3       2     source      broadcasting node id
    5       4     h           per-source sequence index
    9       4     body length
    13      ...   body

Body encodings by variant: PAYLOAD is raw bytes; DIGEST is exactly 32
bytes; ELEMENT is index(1) + claimed_len(4) + shard bytes; DIGEST_ELEMENT
is a digest followed by an element. Each kind admits a fixed set of
variants; anything else is malformed.

An automaton answers ``BroadcastRequest`` and ``Receive`` events with
``Send``, ``Multicast`` (one message to every node) and ``Deliver``
actions; ``expand`` lists a Multicast as its n Sends. Messages, events and
actions are plain slotted records that every recipient shares, so nothing
may mutate them: a changed copy is a new object (``dataclasses.replace``).

Protocol state: each automaton keeps one record per broadcast instance
(source, h) and looks it up once per event. An instance is open, then
closed.

An open instance is an ``Instance``. It holds the sent, seen and delivered
flags, the masks of senders whose ECHO and ACC already counted and whose
REQ and FWD were taken, the erasure-coded protocols' elements (the first
at each position), and one ``Candidate`` per digest heard of (per payload
in bracha): its payload once known, its ECHO and ACC backers in arrival
order, whom its payload was requested from, and ec-brb-3f1's online
decoder of the elements voted for it.

A node closes an instance once the protocol's only work left there is
answering REQs: it has delivered and sent every vote it will send (each
protocol states its rule). The ``Instance`` is then swapped for a
``Closed`` record. Where the protocol answers REQs, that record keeps every
digest -> payload pair held at close and the mask of REQs taken; elsewhere
it is the shared ``CLOSED``. ``Automaton.step`` drops every message but a
REQ for a closed instance before any parse, hash or decode, so a late vote,
MSG, FWD or HASH_RB makes no new record and no second Deliver.

Closing changes no output. Had the node kept the open record, a late input
could have changed only what it holds: a payload for a digest other than
the one delivered (through a FWD, or an element decode), which only a later
REQ for that digest could read. A node REQs a digest only from the nodes
whose last-wave votes back it (ACCs; ECHOs in h-brb-5f1), and it starts
that fetch at f+1 of them (ec-brb-4f1: at n-f, and only for the digest its
nested broadcast endorsed, which is the one it delivers). An honest node
casts such a vote only for a payload it holds, except that ec-brb-4f1 may
ACC the endorsed digest first; it holds that payload once it delivers.
Within f faults no two honest nodes ACC different digests, and in h-brb-5f1
the n-f ECHOs a node delivered on leave at most f senders for any other
digest. So no digest but the delivered one gathers the f+1 backers that
start a fetch, no FWD is awaited at close, and a closed node is asked only
for payloads it held at close: its record answers those REQs as the open
one would. bracha and crb-flood fetch nothing. ec-crb REQs a digest only
from its ACC senders, each once as its ACC arrives and only until it
delivers, and a node ACCs only the digest of a payload it holds. Under
crash faults every ACC names the one digest a node delivers, so ec-crb too
awaits no FWD at close, and its closed record answers REQs for the payload
it delivered. ec-crb, which echoes every MSG from the source, closes only
after echoing one; a crash-faulty source sends each node one.
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


# Which body shapes each message kind may legally carry.
KIND_VARIANTS: dict[MsgKind, frozenset[BodyVariant]] = {
    MsgKind.MSG: frozenset({BodyVariant.PAYLOAD, BodyVariant.ELEMENT,
                            BodyVariant.DIGEST_ELEMENT}),
    MsgKind.ECHO: frozenset({BodyVariant.PAYLOAD, BodyVariant.DIGEST,
                             BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT}),
    MsgKind.ACC: frozenset({BodyVariant.PAYLOAD, BodyVariant.DIGEST}),
    MsgKind.REQ: frozenset({BodyVariant.DIGEST}),
    MsgKind.FWD: frozenset({BodyVariant.PAYLOAD}),
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


@dataclass(slots=True)
class WireMessage:
    """One protocol message. The populated optional fields determine the
    body variant: payload only, digest only, element only, or
    digest+element."""

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
        raise MalformedEnvelope(f"no body variant for fields {has}")


# Envelope size without the variable part (a payload or a shard), per variant.
_DIGEST_ENVELOPE = HEADER_SIZE + hashing.DIGEST_SIZE
_ELEMENT_HEADERS = HEADER_SIZE + ELEMENT_OVERHEAD
_DIGEST_ELEMENT_HEADERS = _DIGEST_ENVELOPE + ELEMENT_OVERHEAD


def envelope_size(msg: WireMessage) -> int:
    """Exact serialized size without building the bytes."""
    payload, digest, element = msg.payload, msg.digest, msg.element
    if payload is not None:
        if digest is None and element is None:
            return HEADER_SIZE + len(payload)
    elif element is not None:
        if digest is None:
            return _ELEMENT_HEADERS + len(element.data)
        return _DIGEST_ELEMENT_HEADERS + len(element.data)
    elif digest is not None:
        return _DIGEST_ENVELOPE
    has = (payload is not None, digest is not None, element is not None)
    raise MalformedEnvelope(f"no body variant for fields {has}")


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
        if variant in (BodyVariant.DIGEST, BodyVariant.DIGEST_ELEMENT):
            if len(body) < hashing.DIGEST_SIZE:
                raise ValueError("body shorter than a digest")
            digest, body = body[:hashing.DIGEST_SIZE], body[hashing.DIGEST_SIZE:]
        if variant in (BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT):
            element = parse_element(body)
            body = b""
        if variant is BodyVariant.PAYLOAD:
            payload, body = body, b""
        if variant == BodyVariant.DIGEST and body:
            raise ValueError("digest body has trailing bytes")
    except ValueError as exc:
        raise MalformedEnvelope(str(exc)) from None
    return WireMessage(kind=kind, source=source, h=h, payload=payload,
                       digest=digest, element=element,
                       instance=_INSTANCE_NAMES[instance_b])


@dataclass(slots=True)
class BroadcastRequest:
    """Ask the local node to broadcast ``payload`` under sequence ``h``."""

    payload: Payload
    h: SeqIndex


@dataclass(slots=True)
class Receive:
    """A message arriving from transport-authenticated sender ``frm``
    (which may differ from msg.source)."""

    frm: NodeId
    msg: WireMessage


Event = BroadcastRequest | Receive


@dataclass(slots=True)
class Send:
    """One message to one node."""

    to: NodeId
    msg: WireMessage


@dataclass(slots=True)
class Multicast:
    """One message to every node 0..n-1, the sender included, as one action."""

    msg: WireMessage


@dataclass(slots=True)
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
        self.asked = 0  # bit i set once node i was sent a REQ for the payload
        # ec-brb-3f1: the online decoder of the elements voted with this digest
        self.decoder: SubsetDecoder | None = None

    def ask(self, backers: list[NodeId]) -> list[NodeId]:
        """The backers not asked yet, in order; marks them asked."""
        asked = self.asked
        targets = [j for j in backers if not asked >> j & 1]
        for j in targets:
            asked |= 1 << j
        self.asked = asked
        return targets

    def awaits(self, node: NodeId) -> bool:
        """Whether ``node`` was asked for this payload and it is still missing."""
        return self.payload is None and self.asked >> node & 1 == 1


class Closed:
    """What a node keeps of an instance it has closed: every digest and
    payload it held at close, flat in ``held`` (digest, payload, digest,
    ...), to answer REQs from, and the mask of senders whose REQ was taken.
    A ``Fetching`` protocol builds one per instance (``Instance.closed``);
    the others share the empty ``CLOSED``. A closed instance has
    delivered."""

    __slots__ = ("held", "req_taken")

    def __init__(self, held: tuple[bytes, ...] = (), req_taken: int = 0) -> None:
        self.held = held
        self.req_taken = req_taken

    def payload(self, digest: Digest) -> Payload | None:
        held = self.held
        for d, m in zip(held[::2], held[1::2]):
            if d == digest:
                return m
        return None


# The closed record of every instance in a protocol that answers no REQs.
CLOSED = Closed()


class Instance:
    """Everything one node knows about one open broadcast instance (source, h).

    An automaton keeps one record per instance and looks it up once per
    event. Per-candidate state (payload, backers, requests) lives in the
    ``candidates`` it maps keys (digests, or bracha's payloads) to. A
    sender counts at most once per kind (ECHO, ACC) and instance, for the
    first candidate it backs, so the per-kind masks of counted senders
    ignore the key. Its REQ and its FWD are likewise taken once per
    instance, whatever digest or payload they carry. The erasure-coded
    fields stay None in automata that do not use them; ec-crb and ec-brb-4f1
    hold their elements through ``add_element``, one per position: the
    first element at a position is kept.
    """

    __slots__ = (
        "candidates", "echo_voted", "acc_voted", "req_taken", "fwd_taken",
        "msg_seen", "echo_sent", "acc_sent", "delivered",
        "elements", "decoded_lens", "endorsed",
    )

    def __init__(self) -> None:
        self.candidates: dict[Digest, Candidate] = {}
        self.echo_voted = 0     # bit i set once sender i's ECHO was counted
        self.acc_voted = 0      # likewise for ACC
        self.req_taken = 0      # likewise for REQ, whether answered or not
        self.fwd_taken = 0      # likewise for a FWD that was hashed
        self.msg_seen = False   # the source's MSG (or first flood copy) was taken
        self.echo_sent = False
        self.acc_sent = False
        self.delivered = False
        # ec-crb, ec-brb-4f1: position -> the first element held there
        self.elements: dict[int, CodedElement] | None = None
        # ec-brb-4f1: lengths that decoded; the digest the nested broadcast
        # delivered
        self.decoded_lens: set[int] | None = None
        self.endorsed: Digest | None = None

    def add_element(self, element: CodedElement) -> dict[int, CodedElement]:
        """Hold ``element`` (ec-crb, ec-brb-4f1) unless its position is
        already held; the elements held, by position."""
        held = self.elements
        if held is None:
            held = self.elements = {}
        held.setdefault(element.index, element)
        return held

    def closed(self) -> Closed:
        """This instance's closed record, for a protocol that answers REQs."""
        held: tuple[bytes, ...] = ()
        for c in self.candidates.values():
            if c.payload is not None:
                held += (c.digest, c.payload)
        return Closed(held, self.req_taken)

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
