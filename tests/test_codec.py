"""Erasure codec, checked against an independently written reference
implementation (tests/oracle_rs.py) and frozen vectors derived from it."""
import dataclasses
import itertools
import random

import numpy as np
import pytest

from rblab import codec, hashing
from rblab.adversary import corrupt_element
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
    """Division the way the Lagrange basis does it: exp of a log difference."""
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


# The codeword an element from ``encode`` carries only lets a decoder skip
# work: with it kept or stripped, every decoder returns the same result.
CODEWORD_MODES = ["subset", "corrupt", "claimed-length", "foreign", "band"]


def _codeword_case(mode: str, seed: int):
    """(params, f, decoded, elements, payload_len) for one drawn input,
    where ``decoded`` is what a clean decode at ``payload_len`` returns: a
    random subset of one encode's elements in random order, then per
    ``mode`` up to f shards corrupted with their codeword kept, a claimed
    length of the same width as the payload's, or some elements carrying
    a foreign codeword (another payload's element, or their own shard
    under another payload's or another (n, k)'s codeword). In ``band`` all
    n elements are kept and f+1 to 2f of them corrupted: past a correcting
    decode's budget of f, and within P-k-f = 2f, so no codeword is within
    the budget."""
    rnd = random.Random(f"{mode}:{seed}")
    f = rnd.randint(1, 3)
    params = CodeParams(3 * f + 2 + rnd.randint(0, 3), 2 + rnd.randint(0, 3))
    params = CodeParams(params.k + 3 * f, params.k)  # k = n - 3f
    n, k = params.n, params.k
    length = rnd.choice([1, rnd.randint(2, 64), rnd.randint(97, 600)])
    payload = rnd.randbytes(length)
    elements = encode(payload, params)
    rnd.shuffle(elements)
    if mode != "band":
        elements = elements[:rnd.randint(k - 1, n)]
    payload_len, decoded = length, payload
    if mode in ("corrupt", "band") and elements:
        low, high = (1, min(f, len(elements))) if mode == "corrupt" else (f + 1, 2 * f)
        for i in rnd.sample(range(len(elements)), rnd.randint(low, high)):
            data = bytearray(elements[i].data)
            data[rnd.randrange(len(data))] ^= rnd.randint(1, 255)
            elements[i] = dataclasses.replace(elements[i], data=bytes(data))
    elif mode == "claimed-length":
        width = shard_width(length, k)
        payload_len = rnd.choice([L for L in range(k * (width - 1) + 1, k * width + 1)
                                  if L != length])
        elements = [dataclasses.replace(e, claimed_len=payload_len) for e in elements]
        decoded = payload.ljust(k * width, b"\0")[:payload_len]
    elif mode == "foreign":
        other = encode(rnd.randbytes(length), params)
        # The same payload under other codes: (n +- 1, k) agree with its
        # shards at every position both have.
        codes = [other] + [encode(payload, CodeParams(*nk))
                           for nk in [(n + 1, k), (n - 1, k), (n, k - 1)]]
        for i in rnd.sample(range(len(elements)), rnd.randint(1, max(1, len(elements)))):
            e = elements[i]
            choice = rnd.randrange(len(codes) + 1)
            if choice == len(codes):
                elements[i] = other[e.index - 1]
            else:
                elements[i] = dataclasses.replace(e, codeword=codes[choice][0].codeword)
    return params, f, decoded, elements, payload_len


def _stripped(elements):
    return [dataclasses.replace(e, codeword=None) for e in elements]


def _distance(carriers, used, params, payload_len) -> int:
    """The fewest of the ``used`` elements' positions at which a codeword one
    of ``carriers`` carries differs from them, over the (n, k) codewords of
    ``payload_len``-byte payloads' shard width; more than len(used) if there
    is none."""
    width = shard_width(payload_len, params.k)
    distances = [sum(e.data != data[e.index - 1] for e in used)
                 for n, k, payload, data in {id(e.codeword): e.codeword for e in carriers
                                             if e.codeword is not None}.values()
                 if (n, k, len(data[0])) == (params.n, params.k, width)]
    return min(distances, default=len(used) + 1)


def _outcome(decode, *args):
    try:
        return decode(*args)
    except codec.CodecError as exc:
        return type(exc)


@pytest.fixture
def products(monkeypatch):
    """The number of gf_matmul calls made so far, in a one-item list."""
    count = [0]
    matmul = codec.gf_matmul

    def counted(a, b):
        count[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(codec, "gf_matmul", counted)
    return count


def _counted(products, decode, *args):
    """The outcome of ``decode(*args)`` and the products it made."""
    before = products[0]
    return _outcome(decode, *args), products[0] - before


# With the codeword kept, a clean subset decodes without a product; with it
# stripped, a clean input costs at most the one product of the first check.
# With it kept, any input a carried codeword lies within the decoder's
# budget of costs no product either, whatever length it claims, nor does one
# that a carried codeword lies past the budget of by P-k-budget or less; and
# the order of the input does not change what the decode costs.
CLEAN_MODES = ["subset", "claimed-length"]


@pytest.mark.parametrize("mode", CODEWORD_MODES)
def test_decode_erasure_is_the_same_with_the_codeword_stripped(mode, products):
    for seed in range(150):
        params, _, _, elements, payload_len = _codeword_case(mode, seed)
        kept, kept_products = _counted(products, decode_erasure, elements, params, payload_len)
        bare, bare_products = _counted(products, decode_erasure, _stripped(elements), params,
                                       payload_len)
        assert kept == bare, seed
        if mode == "subset":
            assert kept_products == 0, seed
        if mode in CLEAN_MODES and len(elements) >= params.k:
            # Shards at data positions are copied; only missing ones cost.
            chosen = sorted(e.index for e in elements)[:params.k]
            assert bare_products == (chosen != list(range(1, params.k + 1))), seed
        used = sorted(elements, key=lambda e: e.index)[:params.k]
        if len(used) == params.k and _distance(elements, used, params, payload_len) == 0:
            assert kept_products == 0, seed
        assert _counted(products, decode_erasure, elements[::-1], params, payload_len) == (
            kept, kept_products), seed


@pytest.mark.parametrize("mode", CODEWORD_MODES)
def test_decode_correcting_is_the_same_with_the_codeword_stripped(mode, products):
    # Wrong-width filler keeps n - f elements while fewer positions count,
    # so the radius min(f, P - k - f) runs from 0 to f.
    decoded = 0
    for seed in range(150):
        params, f, payload, elements, payload_len = _codeword_case(mode, seed)
        used = list(elements)
        filler = CodedElement(1, bytes(shard_width(payload_len, params.k) + 1), payload_len)
        elements += [filler] * (params.n - f - len(elements))
        kept, kept_products = _counted(products, decode_correcting, elements, params, f,
                                       payload_len)
        bare, bare_products = _counted(products, decode_correcting, _stripped(elements), params,
                                       f, payload_len)
        assert kept == bare, seed
        if mode == "subset":
            assert kept_products == 0, seed
        if mode in CLEAN_MODES:
            assert bare_products <= 1, seed
        spare = len(used) - params.k
        budget = max(0, min(f, spare - f, spare // 2))
        if spare >= 0 and _distance(elements, used, params, payload_len) <= spare - budget:
            assert kept_products == 0, seed
        if mode == "band":
            assert (kept, kept_products) == (None, 0), seed
        assert _counted(products, decode_correcting, elements[::-1], params, f,
                        payload_len) == (kept, kept_products), seed
        decoded += kept == payload
    assert decoded == 0 if mode == "band" else decoded > 20, decoded


@pytest.mark.parametrize("mode", CODEWORD_MODES)
def test_subset_decoder_is_the_same_with_the_codeword_stripped(mode, products):
    found = 0
    for seed in range(150):
        params, _, payload, elements, _ = _codeword_case(mode, seed)
        kept = SubsetDecoder(params, hashing.digest(payload))
        bare = SubsetDecoder(params, hashing.digest(payload))
        for i, (e, stripped) in enumerate(zip(elements, _stripped(elements))):
            result, kept_products = _counted(products, kept.add, e)
            bare_result, bare_products = _counted(products, bare.add, stripped)
            assert result == bare_result, seed
            if mode == "subset":
                assert kept_products == 0, seed
            if mode in CLEAN_MODES:
                assert bare_products <= 1, seed
            # The elements sit at distinct positions under one claimed length.
            group = elements[:i + 1]
            budget = (len(group) - params.k) // 2
            if budget >= 0 and _distance(group, group, params, e.claimed_len) <= budget:
                assert kept_products == 0, seed
        found += kept.found is not None
    assert found > 20, found


def test_the_codeword_is_not_part_of_an_elements_value():
    params = CodeParams(5, 2)
    element = encode(b"codeword payload", params)[3]
    bare = dataclasses.replace(element, codeword=None)
    assert element.codeword is not None
    assert element == bare and hash(element) == hash(bare)
    assert repr(element) == repr(bare) and "codeword" not in repr(element)
    assert serialize_element(element) == serialize_element(bare)
    assert parse_element(serialize_element(element)).codeword is None
    assert corrupt_element(element, 0).codeword is None
