"""Maximum-distance-separable erasure coding over GF(2^8).

The code is systematic: a payload of L bytes is split into k equal shards
(zero-padded), shards 1..k are the raw data, and shards k+1..n extend the
unique degree-<k polynomial through the data evaluations. Any k distinct
shards reconstruct the payload, and P distinct shards with at most
(P-k)/2 of them corrupted pin down a unique codeword, which an error
locator finds in polynomial time.

Shard arithmetic runs on numpy uint8 arrays over the field generated by
x^8 + x^4 + x^3 + x^2 + 1, through a 256 x 256 product table (64 KiB, built
once from exp/log tables). ``gf_matmul`` has two table-gather kernels: for
narrow shards one gather forms every product at once and XOR-reduces it;
for wide shards a loop over the k columns gathers one table row per
coefficient and XOR-accumulates. Decoding is systematic: shards that sit at
data positions are copied, and only the decode-matrix rows of the missing
data shards are multiplied. Decode matrices are Lagrange rows in closed
form, gathered from the log/exp tables. ``decode_correcting`` (ec-brb-4f1)
and ``SubsetDecoder`` (ec-brb-3f1) share one error locator,
``_nearest_codeword``, which runs Gao's decoder only on dirty input.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
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

# Shards up to this width take one (r, k, w) gather; wider ones loop over
# the k columns. Measured crossover: 64-128 bytes at k = 2..13.
_GATHER_MAX_WIDTH = 96

def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply matrices over GF(256); a is (r, k), b is (k, w)."""
    if b.shape[1] <= _GATHER_MAX_WIDTH:
        rows = a.astype(np.intp) << 8
        return np.bitwise_xor.reduce(_MUL_FLAT[rows[:, :, None] + b[None, :, :]], axis=1)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        out ^= _MUL[a[:, j]].take(b[j], axis=1)
    return out


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

    @property
    def distance(self) -> int:
        return self.n - self.k + 1


@dataclass(frozen=True)
class CodedElement:
    """One shard: position index in [1, n], shard bytes, and the original
    payload length the sender claims (receivers need it to unpad)."""

    index: int
    data: bytes
    claimed_len: int


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


def _lagrange(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lagrange coefficients over k distinct field points.

    Entry [t, i] is L_i(targets[t]), so the degree-<k polynomial P through
    the points has P(x_t) = xor_i L_i(x_t) P(x_i). A target that is itself
    one of the points gets a unit row."""
    pairs = points[:, None] ^ points[None, :]
    if np.count_nonzero(pairs) != pairs.size - points.size:
        raise InvalidParams("interpolation points must be distinct")
    # Logs of prod_{j != i} (x_i ^ x_j) and prod_{j != i} (x_t ^ x_j); the
    # log(0) = 0 terms drop out on the diagonal and are masked for held targets.
    den = _LOG[pairs].sum(axis=1)
    gaps = points[None, :] ^ targets[:, None]
    logs = _LOG[gaps]
    num = logs.sum(axis=1, keepdims=True) - logs
    held = gaps == 0
    coeffs = _EXP[(num - den[None, :]) % 255]
    return np.where(held.any(axis=1, keepdims=True), held, coeffs)


@lru_cache(maxsize=64)
def _generator_matrix(n: int, k: int) -> np.ndarray:
    """Rows 1..n of the systematic generator: row j maps data shards to the
    shard at position j. Rows 1..k are unit vectors."""
    return _lagrange(np.arange(1, k + 1), np.arange(1, n + 1))


@lru_cache(maxsize=4096)
def _decode_matrix(n: int, k: int, positions: tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows at ``positions``; maps those shards
    back to the data shards.

    The code evaluates at the points 1..n, so row d of the inverse is the
    Lagrange row of data point d over the held positions."""
    if len(positions) != k or min(positions) < 1 or max(positions) > n:
        raise InvalidParams(f"positions need k={k} points in [1, {n}]")
    return _lagrange(np.array(positions, dtype=np.intp), np.arange(1, k + 1))


def _data_shards(payload: bytes, k: int) -> np.ndarray:
    width = shard_width(len(payload), k)
    padded = payload.ljust(k * width, b"\0")
    return np.frombuffer(padded, dtype=np.uint8).reshape(k, width)


def encode(payload: bytes, params: CodeParams) -> list[CodedElement]:
    """Split ``payload`` into n coded elements, any k of which rebuild it."""
    n, k = params.n, params.k
    shards = _data_shards(payload, k)
    width = shards.shape[1]
    if n > k and width:
        parity = gf_matmul(_generator_matrix(n, k)[k:], shards)
    else:
        parity = np.zeros((n - k, width), dtype=np.uint8)
    out = [CodedElement(i + 1, shards[i].tobytes(), len(payload)) for i in range(k)]
    out += [CodedElement(k + 1 + j, parity[j].tobytes(), len(payload)) for j in range(n - k)]
    return out


def encode_element(payload: bytes, params: CodeParams, index: int) -> CodedElement:
    """The element at position ``index`` alone; equals ``encode(...)[index - 1]``."""
    if not 1 <= index <= params.n:
        raise InvalidParams(f"element index {index} outside [1, {params.n}]")
    k = params.k
    shards = _data_shards(payload, k)
    if index <= k:
        row = shards[index - 1]
    else:
        row = gf_matmul(_generator_matrix(params.n, k)[index - 1:index], shards)[0]
    return CodedElement(index, row.tobytes(), len(payload))


def _check_shapes(elements, params: CodeParams, payload_len: int) -> int:
    width = shard_width(payload_len, params.k)
    for e in elements:
        if not 1 <= e.index <= params.n:
            raise InconsistentIndices(f"element index {e.index} outside [1, {params.n}]")
        if len(e.data) != width:
            raise InconsistentIndices(
                f"element {e.index} has {len(e.data)} bytes, want {width}")
    return width


def _systematic_decode(n: int, k: int, positions: tuple[int, ...],
                       values: np.ndarray) -> np.ndarray:
    """Data shards from the k shards ``values`` held at ascending ``positions``.

    Shards at data positions are copied; only the decode-matrix rows of the
    data shards that are missing get multiplied."""
    missing = [d for d in range(1, k + 1) if d not in positions]
    if not missing:
        return values
    data = np.empty_like(values)
    for i, p in enumerate(positions):
        if p <= k:
            data[p - 1] = values[i]
    rows = np.array(missing) - 1
    data[rows] = gf_matmul(_decode_matrix(n, k, positions)[rows], values)
    return data


def decode_erasure(elements, params: CodeParams, payload_len: int) -> bytes:
    """Rebuild the payload from any k distinct, uncorrupted elements."""
    elements = sorted(elements, key=lambda e: e.index)
    if len(elements) < params.k:
        raise NotEnoughElements(f"{len(elements)} elements, need {params.k}")
    indices = [e.index for e in elements]
    if len(set(indices)) != len(indices):
        raise InconsistentIndices(f"duplicate indices in {indices}")
    width = _check_shapes(elements, params, payload_len)
    chosen = elements[: params.k]
    if not width:
        return b""
    values = np.stack([np.frombuffer(e.data, dtype=np.uint8) for e in chosen])
    data = _systematic_decode(params.n, params.k, tuple(e.index for e in chosen), values)
    return data.tobytes()[:payload_len]


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
    i holds the coefficients of the Lagrange basis polynomial of points[i],
    (g0 / (x - a_i)) / prod_{j != i} (a_i - a_j)."""
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
    # As in _lagrange, log(0) = 0 drops the diagonal out of the product.
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


def _nearest_codeword(n: int, k: int, shards: dict[int, bytes],
                      radius: int) -> tuple[np.ndarray, int] | None:
    """Data shards of the codeword within ``radius`` of the P >= k shards
    held at their positions, and the number d of positions where they
    disagree; None if there is none.

    The radius is capped at the unique-decoding radius (P-k)/2, so the
    answer is unique. A clean input passes the first check: decode the
    first k positions, re-encode the rest and compare it with the held rest
    byte for byte. Otherwise Gao's decoder runs
    on one column that fails the check; a corrupt shard sits at the same
    position in every column, so the roots of its error locator become
    erasures and every column is checked again on the other positions.
    Each round erases at least one position, so at most ``radius`` rounds
    run."""
    positions = sorted(shards)
    budget = min(radius, (len(positions) - k) // 2)
    gen = _generator_matrix(n, k)
    joined = b"".join([shards[p] for p in positions])
    held, rows = positions, np.frombuffer(joined, dtype=np.uint8).reshape(len(positions), -1)
    while True:
        erased = len(positions) - len(held)
        data = _systematic_decode(n, k, tuple(held[:k]), rows[:k])
        if len(held) == k:
            return data, erased
        rest = gf_matmul(gen[np.array(held[k:]) - 1], data)
        if rest.tobytes() == rows[k:].tobytes():
            return data, erased
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
    found = _nearest_codeword(n, k, by_pos, radius)
    return None if found is None else found[0].tobytes()[:payload_len]


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
        # An arrival that leaves (m-k)/2 where it was cannot change the
        # answer: a codeword within that radius of the group was also
        # within it before this element came, and was decoded then.
        if len(group) < k or (len(group) - k) % 2:
            return None
        found = _nearest_codeword(n, k, group, len(group))
        if found is None:
            return None
        payload = found[0].tobytes()[:length]
        if hashing.digest(payload) != self.target:
            return None
        self.found = payload
        return payload
