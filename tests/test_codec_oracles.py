"""The table-driven codec kernels against the kernels they replaced
(tests/oracle_codec.py) and the scalar field oracle (tests/oracle_rs.py)."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rblab import codec
from rblab.codec import (
    _GATHER_MAX_WIDTH,
    CodedElement,
    CodeParams,
    InvalidParams,
    _decode_matrix,
    _generator_matrix,
    decode_correcting,
    encode,
    gf_matmul,
    shard_width,
)

import oracle_rs
from oracle_codec import (
    decode_correcting_sequential,
    decode_matrix_gauss_jordan,
    generator_matrix,
    gf_matmul_tensor,
)

# Both sides of the switch between the one-gather and the row-gather kernels. Row
# counts pad to 2, 4, 8, 16 and 32 bytes, and past 32 to 64; each padding
# boundary is covered from both sides.
WIDTHS = [1, 2, 7, 64, _GATHER_MAX_WIDTH, _GATHER_MAX_WIDTH + 1, 500, 9000]
SHAPES = [(r, k) for r in (0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 32, 33, 40)
          for k in (1, 2, 7, 13)]


def _scalar_matmul(a, b, columns):
    return np.array([[_scalar_dot(a[i], b[:, c]) for c in columns]
                     for i in range(a.shape[0])], dtype=np.uint8).reshape(a.shape[0], len(columns))


def _scalar_dot(row, column):
    acc = 0
    for x, y in zip(row, column):
        acc ^= oracle_rs.mul(int(x), int(y))
    return acc


def _check_against_oracles(rng, r, k, width):
    a = rng.integers(0, 256, (r, k), dtype=np.uint8)
    b = rng.integers(0, 256, (k, width), dtype=np.uint8)
    if r > 1:
        a[r // 2] = 0
    b[:, width // 2] = 0
    got = gf_matmul(a, b)
    assert got.dtype == np.uint8 and got.shape == (r, width)
    assert np.array_equal(got, gf_matmul_tensor(a, b)), (r, k, width)
    columns = sorted({0, width // 2, width - 1} | set(range(min(width, 24))))
    assert np.array_equal(got[:, columns], _scalar_matmul(a, b, columns)), (r, k, width)
    if r > 1:
        assert not got[r // 2].any()
    assert not got[:, width // 2].any()


@pytest.mark.parametrize("width", WIDTHS)
def test_gf_matmul_matches_tensor_and_scalar_oracles(width):
    rng = np.random.default_rng(width)
    for r, k in SHAPES:
        _check_against_oracles(rng, r, k, width)
    zeros = np.zeros((3, 4), dtype=np.uint8)
    assert not gf_matmul(zeros, rng.integers(0, 256, (4, width), dtype=np.uint8)).any()


@pytest.mark.parametrize("r, k, width", [
    (3, 4, 50), (1, 7, 9363), (2, 2, 512), (2, 7, 9363), (8, 7, 9363), (12, 13, 5042),
    (33, 7, 500)])
def test_gf_matmul_leaves_inputs_and_tables_unchanged(r, k, width):
    # Every kernel, and row gathers padded to 2, 8, 16 and 64 bytes; the row
    # gather XORs in place into buffers of its own.
    rng = np.random.default_rng(r * k)
    a = rng.integers(0, 256, (r, k), dtype=np.uint8)
    b = rng.integers(0, 256, (k, width), dtype=np.uint8)
    before = [x.copy() for x in (codec._MUL, a, b)]
    got = gf_matmul(a, b)
    for x, old in zip((codec._MUL, a, b), before):
        assert np.array_equal(x, old)
        assert not np.shares_memory(got, x)
    got ^= 0xFF
    assert np.array_equal(gf_matmul(a, b) ^ 0xFF, got)


def test_generator_matrix_matches_scalar_oracle():
    shapes = [(n, k) for n in range(1, 21) for k in range(1, n + 1)]
    for n, k in shapes + [(40, 14), (40, 1), (40, 40), (255, 3)]:
        assert np.array_equal(_generator_matrix(n, k), generator_matrix(n, k)), (n, k)
    # Row j of the generator encodes position j.
    payload = bytes(range(1, 40))
    shards = oracle_rs.encode(payload, 19, 13)
    data = np.frombuffer(payload.ljust(39, b"\0"), dtype=np.uint8).reshape(13, 3)
    assert [bytes(row) for row in gf_matmul_tensor(generator_matrix(19, 13), data)] == shards


def test_decode_matrix_matches_gauss_jordan_on_every_small_subset():
    for n in range(1, 11):
        for k in range(1, n + 1):
            for positions in itertools.combinations(range(1, n + 1), k):
                got = _decode_matrix(n, k, positions)
                assert got.dtype == np.uint8
                inverse = decode_matrix_gauss_jordan(n, k, positions)
                assert np.array_equal(got[:k], inverse), (n, k, positions)
                # Rows past k re-encode: the generator after the inverse.
                assert np.array_equal(got, gf_matmul_tensor(generator_matrix(n, k), inverse)), \
                    (n, k, positions)


@pytest.mark.parametrize("n, k", [(19, 13), (19, 7), (40, 14)])
def test_decode_matrix_matches_gauss_jordan_on_random_subsets(n, k):
    rng = random.Random(n * 100 + k)
    for _ in range(500):
        positions = tuple(rng.sample(range(1, n + 1), k))
        if rng.random() < 0.5:
            positions = tuple(sorted(positions))
        assert np.array_equal(_decode_matrix(n, k, positions)[:k],
                              decode_matrix_gauss_jordan(n, k, positions)), positions


@pytest.mark.parametrize("positions", [
    (1, 1, 2), (3, 5, 3), (0, 1, 2), (1, 2, 8), (2, 3, 256), (-1, 2, 3), (1, 2), (1, 2, 3, 4)])
def test_decode_matrix_rejects_repeated_or_out_of_range_positions(positions):
    with pytest.raises(InvalidParams):
        _decode_matrix(7, 3, positions)


def _tamper(element, rng):
    data = bytearray(element.data)
    data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
    return CodedElement(element.index, bytes(data), element.claimed_len)


def _random_pool(rng: random.Random):
    """A pool mixing two codewords with corruption, gaps, duplicates,
    wrong-width junk and misplaced indices; returns (pool, params, f, length)."""
    f = rng.randrange(1, 4)
    n = 3 * f + 1 + rng.randrange(0, 3)
    params = CodeParams(n, n - 3 * f)
    length = rng.choice([0, rng.randrange(1, 40), rng.randrange(300, 700)])
    first = encode(rng.randbytes(length), params)
    second = encode(rng.randbytes(length), params)
    split = rng.random() < 0.3
    pool = []
    for pos in range(n):
        if rng.random() < 0.15:
            continue  # short: this position never arrives
        source = second if split and rng.random() < 0.5 else first
        element = source[pos]
        roll = rng.random()
        if roll < 0.12 and element.data:
            element = _tamper(element, rng)
        elif roll < 0.16:
            element = CodedElement(element.index, element.data + b"\x00", length)
        elif roll < 0.20:
            element = CodedElement(rng.randrange(1, n + 1), element.data, length)
        pool.append(element)
        if rng.random() < 0.1:
            pool.append(source[pos] if rng.random() < 0.5 else second[pos])
    while len(pool) < n - f:
        pool.append(first[rng.randrange(n)])
    rng.shuffle(pool)
    return pool, params, f, length


def _usable_positions(pool, params, length) -> dict[int, bytes]:
    """Position -> shard after decode_correcting's filter: in range, of the
    right width, and not voided by a conflicting duplicate."""
    width = shard_width(length, params.k)
    by_pos: dict[int, bytes] = {}
    voided: set[int] = set()
    for e in pool:
        if not 1 <= e.index <= params.n or len(e.data) != width or e.index in voided:
            continue
        if by_pos.setdefault(e.index, e.data) != e.data:
            del by_pos[e.index]
            voided.add(e.index)
    return by_pos


def _distance(held: dict[int, bytes], params, payload: bytes) -> int:
    """Positions of ``held`` that disagree with the nearest codeword whose
    data shards start with ``payload`` (its padding bytes may be nonzero),
    searched over the k-subsets of ``held`` with the oracle matrices."""
    n, k = params.n, params.k
    best = len(held)
    for subset in itertools.combinations(sorted(held), k):
        shards = np.stack([np.frombuffer(held[p], dtype=np.uint8) for p in subset])
        data = gf_matmul_tensor(decode_matrix_gauss_jordan(n, k, subset), shards)
        if data.tobytes()[:len(payload)] == payload:
            codeword = gf_matmul_tensor(generator_matrix(n, k), data)
            best = min(best, sum(codeword[p - 1].tobytes() != held[p] for p in held))
    return best


def test_decode_correcting_matches_sequential_oracle_on_random_pools():
    # Exact equality, except on one declared class: dirty input with
    # P < k + 2f usable positions whose nearest codeword lies at distance d
    # with d + f > P - k. There the window search may return the one
    # candidate it saw, while the locator refuses, since a second codeword
    # within f cannot be ruled out.
    rng = random.Random(0xD0C)
    outcomes = {"payload": 0, "none": 0}
    declared = 0
    for _ in range(600):
        pool, params, f, length = _random_pool(rng)
        want = decode_correcting_sequential(pool, params, f, length)
        outcomes["none" if want is None else "payload"] += 1
        if want is not None:
            held = _usable_positions(pool, params, length)
            d = _distance(held, params, want) if length else 0
            size, k = len(held), params.k
            if d and size < k + 2 * f and d + f > size - k:
                want = None
                declared += 1
        assert decode_correcting(pool, params, f, length) == want
    assert min(outcomes.values()) > 50, outcomes
    assert declared == 22


@pytest.mark.parametrize("n, f", [(4, 1), (7, 2), (13, 3), (19, 4)])
def test_correcting_decode_returns_the_oracle_payload(monkeypatch, n, f):
    # k = n - 3f and every P in [n - f, n], with and without up to f
    # corruptions; shard widths on the one-gather, column-loop and
    # row-gather kernels. A clean pool costs exactly one product.
    k = n - 3 * f
    params = CodeParams(n, k)
    rng = random.Random(n)
    products = []
    real_matmul = codec.gf_matmul

    def matmul(a, b):
        products.append(a.shape)
        return real_matmul(a, b)

    monkeypatch.setattr(codec, "gf_matmul", matmul)
    for length in (1, 40 * k - 1, 150 * k, 200 * k - 3):
        payload = rng.randbytes(length)
        shards = oracle_rs.encode(payload, n, k)
        clean = sorted(rng.sample(range(1, n + 1), k))
        assert oracle_rs.decode([(x, shards[x - 1]) for x in clean], k, length) == payload
        for size in range(n - f, n + 1):
            for corrupt in range(f + 1):
                positions = rng.sample(range(1, n + 1), size)
                pool = [CodedElement(x, shards[x - 1], length) for x in positions]
                for i in rng.sample(range(size), corrupt):
                    pool[i] = _tamper(pool[i], rng) if rng.random() < 0.5 else \
                        CodedElement(pool[i].index, rng.randbytes(len(pool[i].data)), length)
                products.clear()
                got = decode_correcting(pool, params, f, length)
                assert got == payload, (length, size, corrupt)
                if corrupt == 0:
                    assert len(products) == 1, products

def test_decode_correcting_matches_sequential_oracle_on_split_brain_pools():
    # The acceptance split-brain recipe: n=13, f=3, two codewords plus junk.
    rng = random.Random(5)
    params = CodeParams(13, 4)
    words = [encode(rng.randbytes(16), params) for _ in range(2)]
    results = set()
    for _ in range(1500):
        pool = []
        for pos in rng.sample(range(13), rng.randrange(10, 14)):
            roll = rng.random()
            if roll < 0.9:
                pool.append(words[roll >= 0.45][pos])
            else:
                pool.append(CodedElement(pos + 1, rng.randbytes(4), 16))
        want = decode_correcting_sequential(pool, params, 3, 16)
        assert decode_correcting(pool, params, 3, 16) == want
        results.add(want)
    assert None in results and len(results) == 3


def test_ambiguous_pools_return_none_like_the_oracle():
    # k=1, n=7, f=2 with three positions erased: "A" and "B" both lie within
    # the corruption budget of what survives.
    params = CodeParams(7, 1)
    a = encode(b"A", params)
    b = encode(b"B", params)
    pool = [a[0], a[0], a[1], b[2], b[3]]
    assert decode_correcting_sequential(pool, params, 2, 1) is None
    assert decode_correcting(pool, params, 2, 1) is None
    # The same with wide shards.
    params = CodeParams(7, 1)
    a = encode(bytes(300), params)
    b = encode(bytes([1]) * 300, params)
    pool = [a[0], a[0], a[1], b[2], b[3]]
    assert decode_correcting_sequential(pool, params, 2, 300) is None
    assert decode_correcting(pool, params, 2, 300) is None


def test_wide_correcting_decode_stays_in_bounded_memory():
    # n=19, f=4: k=7 shards of 9363 bytes for a 64 KiB payload, with the f
    # corrupted shards at data positions so the first check fails and the
    # locator erases them before the data shards are decoded again.
    params = CodeParams(19, 7)
    rng = random.Random(19)
    payload = rng.randbytes(64 * 1024)
    pool = [CodedElement(e.index, rng.randbytes(len(e.data)), e.claimed_len)
            if e.index <= 4 else e for e in encode(payload, params)]
    assert len(pool[0].data) == 9363
    tracemalloc.start()
    try:
        got = decode_correcting(pool, params, 4, len(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == payload
    # A search that decoded the C(11, 7) = 330 window subsets in one
    # (330, 7, 7, 9363) product would need about 150 MB.
    assert peak < 4 * 2**20, peak
