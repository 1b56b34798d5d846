"""Maximum-distance-separable erasure coding over GF(2^8).

The code is systematic: a payload of L bytes is split into k equal shards
(zero-padded), shards 1..k are the raw data, and shards k+1..n extend the
unique degree-<k polynomial through the data evaluations. Any k distinct
shards reconstruct the payload, and P distinct shards with at most
(P-k)/2 of them corrupted pin down a unique codeword, which an error
locator finds in polynomial time.

Shard arithmetic runs on numpy uint8 arrays over the field generated by
x^8 + x^4 + x^3 + x^2 + 1, through a 256 x 256 product table (64 KiB, built
once from exp/log tables). ``gf_matmul`` has two table-gather kernels,
chosen by shard width. Narrow shards take one gather that forms every
product at once and XOR-reduces it. Wide shards gather whole product rows:
a (k, 256, p) table holds, for each column and data byte, the products with
all r coefficients, zero-padded to a power of two p, so each data byte
costs one p-byte copy and an XOR; one transpose at the end puts the r
output rows in order.
Encoding and each decode round are one polynomial evaluation: the rows of
the decode matrix of k held positions for the wanted positions, times the
k held shards, in one product. Decode matrices evaluate the Lagrange basis
of Gao's error locator at the points 1..n, cached per set of held
positions. The three decoders, ``decode_erasure`` (ec-crb),
``decode_correcting`` (ec-brb-4f1) and ``SubsetDecoder`` (ec-brb-3f1),
differ only in how they filter their input and in the radius they decode
within: 0, min(f, P-k-f) and the whole unique-decoding radius. One decode
serves them all. A clean round costs one product, which yields every data
shard and predicts the held shards past the first k; none when the k held
shards are the data shards. Only dirty input runs Gao's error locator.

An element ``encode`` built carries its whole codeword: (n, k, the payload,
the shard at each position), shared by all n elements. It is never on the
wire, and takes no part in ``==``, ``hash`` or ``repr``; a parsed or hand-built
element has none. A decoder tries every distinct codeword its elements
carry. One with the same (n, k) and shard width whose shards differ from
the held ones at d positions settles the decode without a product. The
budget is the radius capped at the unique-decoding radius (P-k)/2. If d is
within the budget, the decoder returns the first ``payload_len`` bytes of
the codeword's data shards: its payload when the claimed length is its
own. If budget < d <= P-k-budget, it returns None. Both are exact: two
codewords agree at fewer than k positions, so they differ at P-k+1 or more
of any P. A codeword within (P-k)/2 of the held shards is then the only
one there, and the one the full path would find; and any codeword other
than one at distance d lies at P-k+1-d or more, past the budget. Any other
input takes the full path.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hashing

GF_ORDER = 256
_PRIM = 0x11D


class CodecError(Exception):
    """Base class for coding failures."""


class InvalidParams(CodecError):
    """Code parameters are out of range or inconsistent."""


class NotEnoughElements(CodecError):
    """Fewer elements than the operation's minimum input size."""


class InconsistentIndices(CodecError):
    """Duplicate indices or mismatched shard shapes in the input."""


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM
    for i in range(255, 510):
        exp[i] = exp[i - 255]
    return exp, log


_EXP_LIST, _LOG_LIST = _build_tables()
_EXP = np.array(_EXP_LIST + [0] * 2, dtype=np.uint8)
_LOG = np.array(_LOG_LIST, dtype=np.intp)


def _build_product_table() -> np.ndarray:
    table = _EXP[_LOG[:, None] + _LOG[None, :]]
    table[0, :] = 0
    table[:, 0] = 0
    return table


# _MUL[a, b] = a * b in GF(256); _MUL_FLAT[a << 8 | b] is the same product.
_MUL = _build_product_table()
_MUL_FLAT = _MUL.reshape(-1)

# Shards up to this width take one (r, k, w) gather; wider ones gather
# product rows. Timed against the row gather at r = 2..26, k = 2..14 on a
# 2-core x86-64 host, the one gather is the faster up to 96 bytes.
_GATHER_MAX_WIDTH = 96


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply matrices over GF(256); a is (r, k), b is (k, w)."""
    (r, k), w = a.shape, b.shape[1]
    if w <= _GATHER_MAX_WIDTH:
        rows = a.astype(np.intp) << 8
        return np.bitwise_xor.reduce(_MUL_FLAT[rows[:, :, None] + b[None, :, :]], axis=1)
    # table[j, x, i] = a[i, j] * x. numpy's take copies a row of 2-32 bytes
    # as one fixed-size chunk (wider rows, r > 32, go through memmove).
    # Under the default mode="raise" it would buffer ``out``; b's uint8
    # entries always index one of the 256 rows, so "clip" changes no result.
    p = 1 << (r - 1).bit_length()
    table = np.zeros((k, 256, p), dtype=np.uint8)
    table[:, :, :r] = _MUL[a.T].transpose(0, 2, 1)
    acc = table[0].take(b[0], axis=0)
    scratch = np.empty_like(acc)
    for j in range(1, k):
        table[j].take(b[j], axis=0, out=scratch, mode="clip")
        acc ^= scratch
    return np.ascontiguousarray(acc[:, :r].T)


@dataclass(frozen=True)
class CodeParams:
    """An [n, k] code: n total shards, any k of them reconstruct."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise InvalidParams(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if self.n > GF_ORDER - 1:
            raise InvalidParams(f"n={self.n} exceeds the field bound {GF_ORDER - 1}")


@dataclass(frozen=True)
class CodedElement:
    """One shard: position index in [1, n], shard bytes, and the original
    payload length the sender claims (receivers need it to unpad)."""

    index: int
    data: bytes
    claimed_len: int
    # (n, k, payload, shard bytes per position) when ``encode`` built it.
    codeword: tuple | None = field(default=None, compare=False, repr=False)


_ELEMENT_HEADER = struct.Struct(">BI")
ELEMENT_OVERHEAD = _ELEMENT_HEADER.size


def serialize_element(element: CodedElement) -> bytes:
    if not 1 <= element.index <= 255:
        raise InvalidParams(f"element index {element.index} out of range")
    return _ELEMENT_HEADER.pack(element.index, element.claimed_len) + element.data


def parse_element(buf: bytes) -> CodedElement:
    if len(buf) < ELEMENT_OVERHEAD:
        raise ValueError("truncated coded element")
    index, claimed_len = _ELEMENT_HEADER.unpack_from(buf)
    if index == 0:
        raise ValueError("coded element index 0 is invalid")
    return CodedElement(index, buf[ELEMENT_OVERHEAD:], claimed_len)


def shard_width(payload_len: int, k: int) -> int:
    return (payload_len + k - 1) // k if payload_len else 0


@lru_cache(maxsize=4096)
def _decode_matrix(n: int, k: int, positions: tuple[int, ...]) -> np.ndarray:
    """The (n, k) map from the k shards held at ``positions`` to the whole
    codeword: row j gives the shard at position j, so rows 1..k invert the
    generator rows at ``positions``.

    The code evaluates at the points 1..n, so entry [j, i] is the Lagrange
    basis polynomial of the i-th held position (``_interpolator``) at point
    j. One cached array serves every caller, whichever rows it needs, so it
    is read-only."""
    if len(set(positions)) != k or min(positions) < 1 or max(positions) > n:
        raise InvalidParams(f"positions need k={k} distinct points in [1, {n}]")
    basis = _interpolator(positions)[1]
    xs = np.arange(1, n + 1)[:, None]
    rows = np.zeros((n, k), dtype=np.uint8)
    for coeffs in basis.T[::-1]:
        rows = _MUL[rows, xs] ^ coeffs
    rows.flags.writeable = False
    return rows


def _evaluate(n: int, k: int, positions: tuple[int, ...], shards: np.ndarray,
              at: tuple[int, ...]) -> np.ndarray:
    """The shards at positions ``at`` of the codeword that holds the k
    ``shards`` at ``positions``: one product of the decode-matrix rows for
    ``at``, or none when ``at`` is empty or asks for the held shards."""
    if not at or at == positions:
        return shards[:len(at)]
    return gf_matmul(_decode_matrix(n, k, positions)[np.array(at) - 1], shards)


def encode(payload: bytes, params: CodeParams) -> list[CodedElement]:
    """Split ``payload`` into n coded elements, any k of which rebuild it."""
    n, k = params.n, params.k
    width = shard_width(len(payload), k)
    shards = np.frombuffer(payload.ljust(k * width, b"\0"), dtype=np.uint8).reshape(k, width)
    parity = _evaluate(n, k, tuple(range(1, k + 1)), shards, tuple(range(k + 1, n + 1)))
    data = tuple([row.tobytes() for row in shards] + [row.tobytes() for row in parity])
    codeword = (n, k, bytes(payload), data)
    return [CodedElement(i + 1, shard, len(payload), codeword) for i, shard in enumerate(data)]


def _codewords(elements):
    """The distinct codewords ``elements`` carry, by identity."""
    return {id(e.codeword): e.codeword for e in elements if e.codeword is not None}.values()


def decode_erasure(elements, params: CodeParams, payload_len: int) -> bytes:
    """Rebuild the payload from any k distinct, uncorrupted elements."""
    elements = sorted(elements, key=lambda e: e.index)
    if len(elements) < params.k:
        raise NotEnoughElements(f"{len(elements)} elements, need {params.k}")
    indices = [e.index for e in elements]
    if len(set(indices)) != len(indices):
        raise InconsistentIndices(f"duplicate indices in {indices}")
    width = shard_width(payload_len, params.k)
    for e in elements:
        if not 1 <= e.index <= params.n:
            raise InconsistentIndices(f"element index {e.index} outside [1, {params.n}]")
        if len(e.data) != width:
            raise InconsistentIndices(f"element {e.index} has {len(e.data)} bytes, want {width}")
    chosen = elements[: params.k]
    return _decode(params, {e.index: e.data for e in chosen}, payload_len, 0,
                   _codewords(elements))


# Scalar polynomial arithmetic for the error locator. Polynomials are lists
# of coefficients, lowest degree first, with no trailing zeros.

def _mul(a: int, b: int) -> int:
    return _EXP_LIST[_LOG_LIST[a] + _LOG_LIST[b]] if a and b else 0


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= _mul(x, y)
    return out


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    rem = list(num)
    top = len(den) - 1
    inverse = _EXP_LIST[255 - _LOG_LIST[den[top]]]
    quot = [0] * (len(num) - top)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = _mul(rem[i + top], inverse)
        for j, d in enumerate(den):
            rem[i + j] ^= _mul(q, d)
    return quot, _trim(rem[:top])


@lru_cache(maxsize=256)
def _interpolator(points: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
    """g0 = prod (x - a) over the P points, and the (P, P) matrix whose row
    i holds the coefficients, lowest degree first, of the Lagrange basis
    polynomial of points[i], (g0 / (x - a_i)) / prod_{j != i} (a_i - a_j)."""
    xs = np.array(points, dtype=np.intp)
    size = len(points)
    g0 = np.zeros(size + 1, dtype=np.uint8)
    g0[0] = 1
    for a in points:
        shifted = _MUL[a, g0]  # g0 * (x + a)
        shifted[1:] ^= g0[:-1]
        g0 = shifted
    # Synthetic division of g0 by every (x + a_i) at once, top coefficient first.
    quotients = np.empty((size, size), dtype=np.uint8)
    q = np.ones(size, dtype=np.uint8)
    quotients[:, -1] = q
    for m in range(size - 1, 0, -1):
        q = g0[m] ^ _MUL[xs, q]
        quotients[:, m - 1] = q
    # log(0) = 0 drops the diagonal out of the product.
    inverse = _EXP[-_LOG[xs[:, None] ^ xs[None, :]].sum(axis=1) % 255]
    return g0.tolist(), _MUL[inverse[:, None], quotients]


def _error_locator(points: tuple[int, ...], values: np.ndarray, k: int) -> list[int]:
    """Gao's extended-Euclid decoder ("A New Algorithm for Decoding
    Reed-Solomon Codes", 2003) on the pairs (points[i], values[i]): when a
    polynomial of degree < k misses at most (P-k)/2 of them, the result is
    a nonzero constant times prod (x - a) over the points it misses."""
    g0, basis = _interpolator(points)
    r0, r1 = g0, _trim(gf_matmul(values[None, :], basis)[0].tolist())
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= len(points) + k:
        q, r = _poly_divmod(r0, r1)
        v = _poly_mul(q, v1)  # of higher degree than v0
        for i, c in enumerate(v0):
            v[i] ^= c
        r0, r1, v0, v1 = r1, r, v1, v
    return v1


def _decode(params: CodeParams, shards: dict[int, bytes], payload_len: int, radius: int,
            codewords) -> bytes | None:
    """The first ``payload_len`` bytes of the data of the codeword within
    ``radius`` of the P >= k shards held at their positions; None if there
    is none.

    The radius is capped at the unique-decoding radius (P-k)/2, so the
    answer is unique. One of ``codewords`` with the held shards' (n, k) and
    width that lies at a distance d from them settles the decode without a
    product: its data is the answer if d is within the capped radius r, and
    there is none if r < d <= P-k-r. Otherwise a clean input passes the
    first check: one product evaluates the polynomial through the first k
    held positions at the data positions 1..k and at the rest of the held
    ones, and the rest is compared with the held shards byte for byte.
    Otherwise Gao's decoder runs on one column that fails the check; a
    corrupt shard sits at the same position in every column, so the roots
    of its error locator become erasures and every column is checked again
    on the other positions. Each round erases at least one position, so at
    most ``radius`` rounds run."""
    n, k = params.n, params.k
    spare = len(shards) - k
    budget = min(radius, spare // 2)
    width = len(next(iter(shards.values())))
    for code_n, code_k, payload, data in codewords:
        if (code_n, code_k, len(data[0])) != (n, k, width):
            continue
        # Each shard compare is identity, then memcmp.
        distance = sum(shard != data[p - 1] for p, shard in shards.items())
        if distance <= budget:
            if len(payload) == payload_len:
                return payload
            return b"".join(data[:k])[:payload_len]
        if distance <= spare - budget:
            return None
    positions = sorted(shards)
    joined = b"".join([shards[p] for p in positions])
    held, rows = positions, np.frombuffer(joined, dtype=np.uint8).reshape(len(positions), -1)
    while True:
        erased = len(positions) - len(held)
        values = _evaluate(n, k, tuple(held[:k]), rows[:k], (*range(1, k + 1), *held[k:]))
        data, rest = values[:k], values[k:]
        # Two byte copies and one memcmp: np.array_equal timed slower here.
        if rest.tobytes() == rows[k:].tobytes():
            return data.reshape(-1)[:payload_len].tobytes()
        if erased == budget:
            return None
        failing = np.flatnonzero((rest != rows[k:]).any(axis=0))
        locator = _error_locator(tuple(held), rows[:, failing[0]], k)
        xs = np.array(held)
        value = np.zeros(len(held), dtype=np.uint8)
        for c in reversed(locator):
            value = _MUL[value, xs] ^ c
        right = value != 0
        found = len(held) - int(right.sum())
        # Within the radius the locator has one root per corrupt position;
        # any other shape means no codeword is that near.
        if not found or found != len(locator) - 1 or erased + found > budget:
            return None
        held, rows = [p for p, ok in zip(held, right) if ok], rows[right]


def decode_correcting(elements, params: CodeParams, f: int, payload_len: int) -> bytes | None:
    """Decode through at most f corrupted elements, or report detection.

    Requires k = n - 3f. Of P distinct usable positions, the nearest
    codeword at distance d is returned iff d = 0 or d <= min(f, P-k-f).
    When P >= k+2f that is the unique codeword within f. When P < k+2f a
    d with d + f > P - k is refused: some other codeword could also lie
    within f, so None reports the input as ambiguous. Duplicate indices
    with conflicting bytes void that position; elements of the wrong shard
    width are discarded individually.
    """
    n, k = params.n, params.k
    if k != n - 3 * f:
        raise InvalidParams(f"error correction needs k = n - 3f, got k={k} n={n} f={f}")
    if len(elements) < n - f:
        raise NotEnoughElements(f"{len(elements)} elements, need {n - f}")
    width = shard_width(payload_len, k)
    by_pos: dict[int, bytes] = {}
    voided: set[int] = set()
    for e in elements:
        if not 1 <= e.index <= n or len(e.data) != width or e.index in voided:
            continue
        if by_pos.setdefault(e.index, e.data) != e.data:
            del by_pos[e.index]
            voided.add(e.index)
    if len(by_pos) < k:
        return None
    radius = max(0, min(f, len(by_pos) - k - f))
    return _decode(params, by_pos, payload_len, radius, _codewords(elements))


class SubsetDecoder:
    """Online error correction of the elements voted for one digest.

    Elements arrive one at a time and are grouped by the payload length
    they claim; the first element at a position counts. Each arrival
    decodes its group of m positions within the unique-decoding radius
    (m-k)/2, and a payload is latched only if it hashes to the target
    digest. With c corrupt elements in a group, the true payload is found
    once m >= k + 2c (Das, Xiang & Ren, "Asynchronous Data Dissemination",
    CCS 2021). The class keeps its name because the benchmark's
    ``codec.subset_add`` span wraps ``SubsetDecoder.add``; the next change to
    the benchmark can rename both.
    """

    def __init__(self, params: CodeParams, target):
        self.params = params
        self.target = target
        self.groups: dict[int, dict[int, bytes]] = {}  # claimed length -> position -> shard
        self.codewords: dict[int, tuple] = {}  # id -> each one an accepted element carried
        self.found: bytes | None = None

    def add(self, element: CodedElement) -> bytes | None:
        """Fold one element in; returns the payload once one matches."""
        if self.found is not None:
            return self.found
        n, k = self.params.n, self.params.k
        length = element.claimed_len
        if not 1 <= element.index <= n or len(element.data) != shard_width(length, k):
            return None
        group = self.groups.setdefault(length, {})
        if element.index in group:
            return None
        group[element.index] = element.data
        if element.codeword is not None:
            self.codewords[id(element.codeword)] = element.codeword
        # An arrival that leaves (m-k)/2 where it was cannot change the
        # answer: a codeword within that radius of the group was also
        # within it before this element came, and was decoded then.
        if len(group) < k or (len(group) - k) % 2:
            return None
        payload = _decode(self.params, group, length, len(group), self.codewords.values())
        if payload is None or hashing.digest(payload) != self.target:
            return None
        self.found = payload
        return payload
