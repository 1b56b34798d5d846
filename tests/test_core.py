"""Envelope format and per-node state bookkeeping."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rblab import hashing
from rblab.codec import CodedElement
from rblab.core import (
    HEADER_SIZE,
    Instance,
    KIND_VARIANTS,
    BodyVariant,
    MalformedEnvelope,
    MsgKind,
    WireMessage,
    decode_envelope,
    encode_envelope,
    envelope_size,
)

DIGEST = bytes(range(32))
ELEMENT = CodedElement(index=3, data=b"\x10\x20\x30", claimed_len=9)


def _message(kind: MsgKind, variant: BodyVariant) -> WireMessage:
    fields = {
        BodyVariant.PAYLOAD: dict(payload=b"some payload"),
        BodyVariant.DIGEST: dict(digest=DIGEST),
        BodyVariant.ELEMENT: dict(element=ELEMENT),
        BodyVariant.DIGEST_ELEMENT: dict(digest=DIGEST, element=ELEMENT),
        BodyVariant.PAYLOAD_DIGEST: dict(payload=b"some payload", digest=DIGEST),
    }[variant]
    return WireMessage(kind=kind, source=2, h=7, **fields)


def test_header_size_is_sum_of_field_widths():
    # kind(1) + variant(1) + instance(1) + source(2) + h(4) + body_len(4)
    assert HEADER_SIZE == 1 + 1 + 1 + 2 + 4 + 4 == 13


def test_every_legal_kind_variant_combination_round_trips():
    covered = 0
    for kind, variants in KIND_VARIANTS.items():
        for variant in variants:
            msg = _message(kind, variant)
            buf = encode_envelope(msg)
            assert len(buf) == envelope_size(msg)
            assert decode_envelope(buf) == msg
            covered += 1
    assert covered == sum(len(v) for v in KIND_VARIANTS.values())


def test_illegal_kind_variant_combinations_are_rejected():
    for kind in MsgKind:
        for variant in BodyVariant:
            if variant in KIND_VARIANTS[kind]:
                continue
            with pytest.raises(MalformedEnvelope):
                encode_envelope(_message(kind, variant))


def test_nested_instance_tag_round_trips():
    msg = WireMessage(MsgKind.ECHO, 1, 4, payload=b"inner", instance="hash-rb")
    assert decode_envelope(encode_envelope(msg)) == msg
    with pytest.raises(MalformedEnvelope):
        encode_envelope(WireMessage(MsgKind.MSG, 1, 4, payload=b"x",
                                    instance="bogus"))


def test_field_range_limits():
    with pytest.raises(MalformedEnvelope):
        encode_envelope(WireMessage(MsgKind.MSG, 0x10000, 1, payload=b"x"))
    with pytest.raises(MalformedEnvelope):
        encode_envelope(WireMessage(MsgKind.MSG, 1, 0x1_0000_0000, payload=b"x"))
    with pytest.raises(MalformedEnvelope):
        encode_envelope(WireMessage(MsgKind.MSG, 1, 1, payload=b"x",
                                    digest=b"\0" * 31, element=None))


def test_truncations_never_parse():
    buf = encode_envelope(WireMessage(MsgKind.FWD, 5, 9, payload=b"pay",
                                      digest=DIGEST))
    for cut in range(len(buf)):
        with pytest.raises(MalformedEnvelope):
            decode_envelope(buf[:cut])


def test_trailing_bytes_are_rejected():
    buf = encode_envelope(WireMessage(MsgKind.MSG, 1, 1, payload=b"abc"))
    with pytest.raises(MalformedEnvelope):
        decode_envelope(buf + b"\0")


def test_spliced_fields_are_rejected():
    buf = bytearray(encode_envelope(WireMessage(MsgKind.REQ, 1, 1, digest=DIGEST)))
    bad_kind = bytes([99]) + bytes(buf[1:])
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bad_kind)
    bad_variant = bytes(buf[:1]) + bytes([99]) + bytes(buf[2:])
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bad_variant)
    bad_instance = bytes(buf[:2]) + bytes([9]) + bytes(buf[3:])
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bad_instance)
    # REQ carrying a payload-variant body
    crossed = bytes(buf[:1]) + bytes([BodyVariant.PAYLOAD]) + bytes(buf[2:])
    with pytest.raises(MalformedEnvelope):
        decode_envelope(crossed)


def test_element_index_zero_is_rejected():
    buf = bytearray(encode_envelope(WireMessage(MsgKind.MSG, 1, 1, element=ELEMENT)))
    buf[HEADER_SIZE] = 0
    with pytest.raises(MalformedEnvelope):
        decode_envelope(bytes(buf))


_kinds_and_variants = st.sampled_from(
    [(kind, variant) for kind, variants in KIND_VARIANTS.items()
     for variant in variants])


@settings(max_examples=200, deadline=None)
@given(
    kv=_kinds_and_variants,
    source=st.integers(0, 0xFFFF),
    h=st.integers(0, 0xFFFFFFFF),
    payload=st.binary(max_size=64),
    digest=st.binary(min_size=32, max_size=32),
    index=st.integers(1, 255),
    data=st.binary(max_size=16),
    claimed=st.integers(0, 2**32 - 1),
    nested=st.booleans(),
)
def test_round_trip_property(kv, source, h, payload, digest, index, data,
                             claimed, nested):
    kind, variant = kv
    msg = WireMessage(
        kind=kind, source=source, h=h,
        payload=payload if variant in (BodyVariant.PAYLOAD,
                                       BodyVariant.PAYLOAD_DIGEST) else None,
        digest=digest if variant in (BodyVariant.DIGEST,
                                     BodyVariant.DIGEST_ELEMENT,
                                     BodyVariant.PAYLOAD_DIGEST) else None,
        element=CodedElement(index, data, claimed)
        if variant in (BodyVariant.ELEMENT, BodyVariant.DIGEST_ELEMENT) else None,
        instance="hash-rb" if nested else None,
    )
    buf = encode_envelope(msg)
    assert len(buf) == envelope_size(msg)
    assert decode_envelope(buf) == msg


def test_tally_dedupes_senders_across_digests():
    rec = Instance()
    d1, d2 = hashing.digest(b"one"), hashing.digest(b"two")
    assert rec.count_echo(d1, sender=4)
    # Same sender voting again, even for another digest, does not count.
    assert rec.count_echo(d1, sender=4) is None
    assert rec.count_echo(d2, sender=4) is None
    assert rec.count_echo(d1, sender=5)
    assert len(rec.candidate(d1).echoes) == 2
    assert d2 not in rec.candidates
    # Distinct kind, source, or index are independent tallies.
    assert rec.count_acc(d1, sender=4)
    assert Instance().count_echo(d1, sender=4)


def test_supporters_preserve_arrival_order():
    rec = Instance()
    d = hashing.digest(b"v")
    for sender in (9, 3, 7):
        rec.count_acc(d, sender)
    assert rec.candidate(d).accs == [9, 3, 7]


def test_sent_flags_and_once_fire_exactly_once():
    rec = Instance()
    assert not (rec.echo_sent or rec.acc_sent or rec.delivered)
    assert rec.once(("req", 5))
    assert not rec.once(("req", 5))
    assert rec.once(("req", 6))
    # Each backer is asked once per digest, in backing order.
    c = rec.candidate(b"d")
    assert c.ask([3, 1]) == [3, 1]
    assert c.ask([3, 1, 2]) == [2]
    # A payload is awaited from a node asked for it until it is held.
    assert c.awaits(2) and not c.awaits(4) and not rec.candidate(b"e").awaits(2)
    rec.hold(b"d", b"payload")
    assert not c.awaits(2)


def test_payloads_match_by_digest():
    rec = Instance()
    for m in (b"alpha", b"beta"):
        rec.hold(hashing.digest(m), m)
    assert rec.payload(hashing.digest(b"alpha")) == b"alpha"
    assert rec.payload(hashing.digest(b"gamma")) is None
