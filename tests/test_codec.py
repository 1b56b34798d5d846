"""Erasure codec, checked against an independently written reference
implementation (tests/oracle_rs.py) and frozen vectors derived from it."""
import itertools
import random

import numpy as np
import pytest

from rblab import codec, hashing
from rblab.codec import (
    ELEMENT_OVERHEAD,
    CodedElement,
    CodeParams,
    InconsistentIndices,
    InvalidParams,
    NotEnoughElements,
    SubsetDecoder,
    decode_correcting,
    decode_erasure,
    encode,
    parse_element,
    serialize_element,
    shard_width,
)

import oracle_rs
from oracle_codec import subset_search_decode

# Anchors computed by hand from the field definition (x^8+x^4+x^3+x^2+1):
# 0x80*2 overflows to 0x100, reduced by 0x11D -> 0x1D; 3*0xF4 expands to
# x^7+x^6+...=1 after reduction, so inv(3)=0xF4.
HAND_GF_VECTORS = [
    ((2, 2), 4),
    ((0x80, 2), 0x1D),
    ((0xFF, 0xFF), 0xE2),
]

# Frozen outputs of oracle_rs.encode, spot-checked by hand (position 3 of the
# first vector is the Lagrange line through (1,0x01),(2,0x04) evaluated at 3).
FROZEN_N5_K2 = ["010203", "040500", "07f301", "0e0b06", "0dfd07"]
FROZEN_N7_K3_POS4_PREFIX = "91a274568a15ed9a"


def _gf_div(a, b):
    """Division the way the Lagrange rows do it: exp of a log difference."""
    return codec._EXP[(codec._LOG[a] - codec._LOG[b]) % 255]


def test_field_multiplication_anchors():
    for (a, b), want in HAND_GF_VECTORS:
        assert codec._MUL[a, b] == want
        assert oracle_rs.mul(a, b) == want
    assert _gf_div(1, 3) == 0xF4
    assert codec._MUL[3, 0xF4] == 1
    assert _gf_div(codec._MUL[7, 9], 9) == 7


def test_field_tables_match_oracle_exhaustively():
    want = [[oracle_rs.mul(a, b) for b in range(256)] for a in range(256)]
    assert codec._MUL.tolist() == want
    assert codec._MUL_FLAT.tolist() == [v for row in want for v in row]
    nonzero = np.arange(1, 256)
    assert codec._EXP[codec._LOG[nonzero]].tolist() == nonzero.tolist()
    quotients = _gf_div(nonzero[:, None], nonzero[None, :])
    assert quotients.tolist() == [[oracle_rs.mul(a, oracle_rs.inv(b)) for b in nonzero]
                                  for a in nonzero]


def test_frozen_encode_vectors():
    got = [e.data.hex() for e in encode(bytes([1, 2, 3, 4, 5]), CodeParams(5, 2))]
    assert got == FROZEN_N5_K2
    oracle = [s.hex() for s in oracle_rs.encode(bytes([1, 2, 3, 4, 5]), 5, 2)]
    assert oracle == FROZEN_N5_K2

    payload = b"the quick brown fox jumps over the lazy dog"
    elems = encode(payload, CodeParams(7, 3))
    assert elems[3].index == 4
    assert elems[3].data[:8].hex() == FROZEN_N7_K3_POS4_PREFIX
    assert oracle_rs.encode(payload, 7, 3)[3][:8].hex() == FROZEN_N7_K3_POS4_PREFIX


def test_encode_matches_oracle_on_random_inputs():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randrange(1, 14)
        k = rng.randrange(1, n + 1)
        payload = rng.randbytes(rng.randrange(0, 40))
        ours = encode(payload, CodeParams(n, k))
        theirs = oracle_rs.encode(payload, n, k)
        assert [e.data for e in ours] == theirs
        assert [e.index for e in ours] == list(range(1, n + 1))
        assert all(e.claimed_len == len(payload) for e in ours)


def test_decode_erasure_matches_oracle_on_random_subsets():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(1, 14)
        k = rng.randrange(1, n + 1)
        payload = rng.randbytes(rng.randrange(0, 40))
        elems = encode(payload, CodeParams(n, k))
        subset = rng.sample(elems, k)
        assert decode_erasure(subset, CodeParams(n, k), len(payload)) == payload
        pairs = [(e.index, e.data) for e in subset]
        assert oracle_rs.decode(pairs, k, len(payload)) == payload


def test_every_k_subset_round_trips_small():
    payload = bytes(range(1, 12))
    for n in range(1, 8):
        for k in range(1, n + 1):
            params = CodeParams(n, k)
            elems = encode(payload, params)
            for subset in itertools.combinations(elems, k):
                assert decode_erasure(list(subset), params, len(payload)) == payload


def test_shard_width_edges():
    assert shard_width(0, 3) == 0
    assert shard_width(1, 3) == 1
    assert shard_width(3, 3) == 1
    assert shard_width(4, 3) == 2
    assert encode(b"", CodeParams(4, 2))[0].data == b""
    assert decode_erasure(encode(b"", CodeParams(4, 2))[:2], CodeParams(4, 2), 0) == b""
    # Payload shorter than k still splits (zero padded).
    short = encode(b"a", CodeParams(5, 3))
    assert decode_erasure(short[2:5], CodeParams(5, 3), 1) == b"a"


def test_decode_erasure_error_cases():
    params = CodeParams(6, 3)
    elems = encode(b"hello world", params)
    with pytest.raises(NotEnoughElements):
        decode_erasure(elems[:2], params, 11)
    with pytest.raises(InconsistentIndices):
        decode_erasure([elems[0], elems[0], elems[1]], params, 11)
    bad = CodedElement(9, elems[0].data, 11)
    with pytest.raises(InconsistentIndices):
        decode_erasure([bad, elems[1], elems[2]], params, 11)
    wrong_width = CodedElement(1, b"\0", 11)
    with pytest.raises(InconsistentIndices):
        decode_erasure([wrong_width, elems[1], elems[2]], params, 11)


def test_code_params_validation():
    with pytest.raises(InvalidParams):
        CodeParams(3, 4)
    with pytest.raises(InvalidParams):
        CodeParams(3, 0)
    with pytest.raises(InvalidParams):
        CodeParams(256, 2)
    assert CodeParams(7, 3).distance == 5


def test_element_serialization_round_trip():
    e = CodedElement(7, b"\x01\x02", 999)
    buf = serialize_element(e)
    assert len(buf) == ELEMENT_OVERHEAD + 2
    assert parse_element(buf) == e
    with pytest.raises(InvalidParams):
        serialize_element(CodedElement(0, b"", 0))
    with pytest.raises(InvalidParams):
        serialize_element(CodedElement(256, b"", 0))
    with pytest.raises(ValueError):
        parse_element(buf[:3])
    with pytest.raises(ValueError):
        parse_element(b"\x00" + buf[1:])


def _corrupt(element: CodedElement, rng: random.Random) -> CodedElement:
    data = bytearray(element.data)
    pos = rng.randrange(len(data))
    data[pos] ^= rng.randrange(1, 256)
    return CodedElement(element.index, bytes(data), element.claimed_len)


def test_decode_correcting_recovers_through_f_corruptions():
    params = CodeParams(13, 4)
    f = 3
    rng = random.Random(3)
    for _ in range(25):
        payload = rng.randbytes(rng.randrange(1, 60))
        elems = encode(payload, params)
        victims = rng.sample(range(13), f)
        tampered = [
            _corrupt(e, rng) if i in victims else e for i, e in enumerate(elems)
        ]
        rng.shuffle(tampered)
        assert decode_correcting(tampered, params, f, len(payload)) == payload


def test_decode_correcting_tolerates_missing_plus_corrupted():
    params = CodeParams(13, 4)
    f = 3
    rng = random.Random(4)
    payload = rng.randbytes(32)
    elems = encode(payload, params)
    # Drop f elements and corrupt f of the remaining n-f.
    kept = elems[f:]
    kept[0] = _corrupt(kept[0], rng)
    kept[4] = _corrupt(kept[4], rng)
    kept[7] = _corrupt(kept[7], rng)
    assert decode_correcting(kept, params, f, len(payload)) == payload


def test_decode_correcting_parameter_guards():
    with pytest.raises(InvalidParams):
        decode_correcting([], CodeParams(13, 5), 3, 10)
    params = CodeParams(13, 4)
    elems = encode(b"x" * 20, params)
    with pytest.raises(NotEnoughElements):
        decode_correcting(elems[:9], params, 3, 20)


def test_decode_correcting_conflicting_duplicates_void_position():
    params = CodeParams(7, 1)
    f = 2
    payload = b"ok"
    elems = encode(payload, params)
    forged = CodedElement(1, bytes(2), 2)
    # Position 1 voided by the conflict; the other six positions with at
    # most one lie still pin the unique codeword.
    pool = elems + [forged]
    assert decode_correcting(pool, params, f, 2) == payload


def test_decode_correcting_wrong_width_dropped_individually():
    params = CodeParams(7, 1)
    payload = b"ok"
    elems = encode(payload, params)
    junk = CodedElement(3, b"\x01\x02\x03", 2)
    got = decode_correcting(elems[:6] + [junk], params, 2, 2)
    assert got == payload


def test_decode_correcting_detects_unrecoverable_split():
    # k=1, n=4, f=1: two positions say "A", two say "B". Neither codeword is
    # within distance f of the read, so corruption is detected, not decoded.
    params = CodeParams(4, 1)
    f = 1
    a = encode(b"A", params)
    b = encode(b"B", params)
    mixed = [a[0], a[1], b[2], b[3]]
    assert decode_correcting(mixed, params, f, 1) is None


def test_decode_correcting_ambiguous_candidates_return_none():
    # k=1, n=7, f=2 with three positions erased (one present index arrives
    # twice): codewords "A" and "B" both lie within the corruption budget of
    # the surviving read, so the decoder must refuse to pick one.
    params = CodeParams(7, 1)
    f = 2
    a = encode(b"A", params)
    b = encode(b"B", params)
    mixed = [a[0], a[0], a[1], b[2], b[3]]
    assert len(mixed) >= params.n - f
    assert decode_correcting(mixed, params, f, 1) is None


def test_subset_decoder_finds_payload_among_garbage():
    # k = f+1 = 3 at n = 7 with f = 2 garbage elements: unique decoding
    # needs m >= k + 2c = 7 positions, so the payload appears at the last.
    f = 2
    params = CodeParams(7, f + 1)
    payload = b"subset search payload"
    target = hashing.digest(payload)
    elems = encode(payload, params)
    garbage = [CodedElement(e.index, bytes(len(e.data)), e.claimed_len)
               for e in elems[:f]]
    dec = SubsetDecoder(params, target)
    pool = garbage + elems[f:]
    assert [dec.add(e) for e in pool] == [None] * 6 + [payload]
    assert subset_search_decode(pool, target, params, len(payload), hashing.digest) == payload


def test_subset_decoder_incremental_and_dedupe():
    f = 1
    params = CodeParams(4, 2)
    payload = b"pq"
    target = hashing.digest(payload)
    elems = encode(payload, params)
    dec = SubsetDecoder(params, target)
    assert dec.add(elems[0]) is None
    assert dec.add(elems[0]) is None  # duplicate ignored
    assert dec.groups == {2: {1: elems[0].data}}
    assert dec.add(CodedElement(2, b"\xff" * len(elems[1].data), 2)) is None
    assert dec.add(elems[1]) is None  # position 2 is taken by the first element there
    assert dec.add(elems[2]) is None  # m = 3 < k + 2c = 4
    assert dec.add(elems[3]) == payload
    assert dec.add(CodedElement(1, b"\x00", 2)) == payload  # latched after success


def test_subset_decoder_wrong_width_ignored():
    params = CodeParams(4, 2)
    dec = SubsetDecoder(params, hashing.digest(b"pq"))
    assert dec.add(CodedElement(1, b"toolong", 2)) is None
    assert dec.add(CodedElement(5, b"p", 2)) is None  # position outside [1, n]
    assert dec.groups == {}


def test_subset_decoder_groups_by_claimed_length():
    params = CodeParams(4, 2)
    payload = b"abc"
    target = hashing.digest(payload)
    elems = encode(payload, params)
    liars = [CodedElement(e.index, e.data, 4) for e in elems]
    dec = SubsetDecoder(params, target)
    assert [dec.add(e) for e in liars] == [None] * 4
    assert dec.add(elems[3]) is None
    assert dec.add(elems[0]) == payload
    assert set(dec.groups) == {3, 4}


def test_subset_decoder_within_unique_radius_matches_the_subset_oracle():
    # Honest elements and c corrupt ones arrive in random order. Whenever
    # m >= k + 2c the decoder holds the payload; whatever it returns hashes
    # to the target, and the k-subset search finds the same payload then.
    rng = random.Random(0x3F1)
    corrected = 0
    for _ in range(300):
        f = rng.randrange(1, 5)
        params = CodeParams(3 * f + 1, f + 1)
        k = params.k
        payload = rng.randbytes(rng.randrange(0, 40))
        target = hashing.digest(payload)
        elems = encode(payload, params)
        other = encode(rng.randbytes(len(payload)), params)
        corrupt = set(rng.sample(range(params.n), rng.randrange(0, f + 1)))
        arrivals = []
        for pos in rng.sample(range(params.n), rng.randrange(k, params.n + 1)):
            element = elems[pos]
            if pos in corrupt and element.data:
                element = other[pos] if rng.random() < 0.5 else _corrupt(element, rng)
            arrivals.append(element)
        dec = SubsetDecoder(params, target)
        held, bad = [], 0
        for element in arrivals:
            got = dec.add(element)
            held.append(element)
            bad += element != elems[element.index - 1]
            if got is not None:
                assert got == payload
                assert subset_search_decode(held, target, params, len(payload),
                                            hashing.digest) == payload
            if len(held) >= k + 2 * bad:
                assert got == payload, (f, len(held), bad)
        corrected += dec.found is not None and bad > 0
        # A decoder aimed at another digest never returns this payload.
        stray = SubsetDecoder(params, hashing.digest(b"not " + payload))
        assert all(stray.add(e) is None for e in arrivals)
    assert corrected > 50, corrected
