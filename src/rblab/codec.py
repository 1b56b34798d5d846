"""Maximum-distance-separable erasure coding over GF(2^8).

The code is systematic: a payload of L bytes is split into k equal shards
(zero-padded), shards 1..k are the raw data, and shards k+1..n extend the
unique degree-<k polynomial through the data evaluations. Any k distinct
shards reconstruct the payload; with k = n-3f the minimum distance n-k+1
also supports decoding through f corrupted shards, and a decoder that
cross-checks every candidate against the whole input can flag inputs where
no single codeword explains what it received.

Shard arithmetic runs on numpy uint8 arrays over the field generated by
x^8 + x^4 + x^3 + x^2 + 1, through a 256 x 256 product table (64 KiB, built
once from exp/log tables). ``gf_matmul`` has two table-gather kernels: for
narrow shards one gather forms every product at once and XOR-reduces it;
for wide shards a loop over the k columns gathers one table row per
coefficient and XOR-accumulates. Decoding is systematic: shards that sit at
data positions are copied, and only the decode-matrix rows of the missing
data shards are multiplied. Decode matrices are Lagrange rows in closed
form, gathered from the log/exp tables for whole stacks of subsets at once.
The correcting search checks the first window subset alone, and otherwise
scores every window subset in chunked batched gathers.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


class FaultBudgetTooLarge(CodecError):
    """The subset search space exceeds the configured cap."""


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

# Byte budget of the largest temporary of one chunk of the correcting search.
_CHUNK_BYTES = 1 << 20


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply matrices over GF(256); a is (r, k), b is (k, w)."""
    if b.shape[1] <= _GATHER_MAX_WIDTH:
        rows = a.astype(np.intp) << 8
        return np.bitwise_xor.reduce(_MUL_FLAT[rows[:, :, None] + b[None, :, :]], axis=1)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        out ^= _MUL[a[:, j]].take(b[j], axis=1)
    return out


def _gf_matmul_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply stacks of matrices over GF(256); a is (c, r, k), b is (c, k, w)."""
    if b.shape[2] > _GATHER_MAX_WIDTH:
        return np.stack([gf_matmul(x, y) for x, y in zip(a, b)])
    rows = a.astype(np.intp) << 8
    out = np.zeros((a.shape[0], a.shape[1], b.shape[2]), dtype=np.uint8)
    for j in range(a.shape[2]):
        out ^= _MUL_FLAT[rows[:, :, j, None] + b[:, None, j, :]]
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
    """Lagrange coefficients over a (c, k) stack of distinct field points.

    Entry [s, t, i] is L_i(targets[t]) for the points of stack s, so the
    degree-<k polynomial P through them has P(x_t) = xor_i L_i(x_t) P(x_i).
    A target that is itself one of the points gets a unit row."""
    pairs = points[:, :, None] ^ points[:, None, :]
    if np.count_nonzero(pairs) != pairs.size - points.size:
        raise InvalidParams("interpolation points must be distinct")
    # Logs of prod_{j != i} (x_i ^ x_j) and prod_{j != i} (x_t ^ x_j); the
    # log(0) = 0 terms drop out on the diagonal and are masked for held targets.
    den = _LOG[pairs].sum(axis=2)
    gaps = points[:, None, :] ^ targets[None, :, None]
    logs = _LOG[gaps]
    num = logs.sum(axis=2, keepdims=True) - logs
    held = gaps == 0
    coeffs = _EXP[(num - den[:, None, :]) % 255]
    return np.where(held.any(axis=2, keepdims=True), held, coeffs)


@lru_cache(maxsize=64)
def _generator_matrix(n: int, k: int) -> np.ndarray:
    """Rows 1..n of the systematic generator: row j maps data shards to the
    shard at position j. Rows 1..k are unit vectors."""
    return _lagrange(np.arange(1, k + 1)[None, :], np.arange(1, n + 1))[0].copy()


def _decode_matrices(n: int, k: int, positions: np.ndarray) -> np.ndarray:
    """Inverses of the generator rows at each row of a (c, k) stack of
    positions, (c, k, k); each maps those shards back to the data shards.

    The code evaluates at the points 1..n, so row d of an inverse is the
    Lagrange row of data point d over the held positions."""
    if positions.shape[1] != k or positions.min() < 1 or positions.max() > n:
        raise InvalidParams(f"positions need k={k} points in [1, {n}]")
    return _lagrange(positions, np.arange(1, k + 1))


@lru_cache(maxsize=4096)
def _decode_matrix(n: int, k: int, positions: tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows at ``positions``; maps those shards
    back to the data shards."""
    # A copy, not a view: a view would keep its (1, k, k) base alive in the cache.
    return _decode_matrices(n, k, np.array([positions], dtype=np.intp))[0].copy()


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


@lru_cache(maxsize=64)
def _subset_offsets(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) in ``itertools.combinations`` order, (C, k)."""
    return np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)


@lru_cache(maxsize=128)
def _window_decoders(n: int, k: int, window: tuple[int, ...]) -> np.ndarray:
    """The (C, k, k) decode matrices of the k-subsets of ``window``, in
    ``_subset_offsets`` order."""
    subsets = np.array(window, dtype=np.intp)[_subset_offsets(len(window), k)]
    # Chunked so that the (chunk, k, k) intp temporaries stay near the budget.
    chunk = max(1, _CHUNK_BYTES // (np.dtype(np.intp).itemsize * k * k))
    return np.concatenate([_decode_matrices(n, k, subsets[lo:lo + chunk])
                           for lo in range(0, len(subsets), chunk)])


def decode_correcting(elements, params: CodeParams, f: int, payload_len: int) -> bytes | None:
    """Decode through at most f corrupted elements, or report detection.

    Requires k = n - 3f. Returns the payload when exactly one codeword lies
    within the corruption budget of the input, and None when none does or
    when the input is ambiguous (which can only happen past the budget).
    Duplicate indices with conflicting bytes void that position; elements
    of the wrong shard width are discarded individually.
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
        if not 1 <= e.index <= n or len(e.data) != width:
            continue
        if e.index in voided:
            continue
        prior = by_pos.get(e.index)
        if prior is None:
            by_pos[e.index] = e.data
        elif prior != e.data:
            del by_pos[e.index]
            voided.add(e.index)
    positions = sorted(by_pos)
    if len(positions) < k:
        return None
    if not width:
        return b""
    received = np.stack([np.frombuffer(by_pos[p], dtype=np.uint8) for p in positions])
    gen = _generator_matrix(n, k)
    unique = n - len(positions) <= f
    if unique:
        # With at most f positions missing, a codeword within budget is the
        # only one, so the first subset that passes is the answer. Honest
        # input passes at the first subset of the window. Re-encoding a
        # decoded subset reproduces its own shards, so only the other
        # positions can disagree.
        data = _systematic_decode(n, k, tuple(positions[:k]), received[:k])
        others = np.array(positions[k:], dtype=np.intp) - 1
        rest = gf_matmul(gen[others], data)
        if int((rest != received[k:]).any(axis=1).sum()) <= f:
            return data.tobytes()[:payload_len]
    # Any codeword within budget agrees with all but at most f positions,
    # so it is reachable from some k-subset of the first k+f positions.
    window = tuple(positions[: k + f])
    offsets = _subset_offsets(len(window), k)
    matrices = _window_decoders(n, k, window)
    to_all = gen[np.array(positions, dtype=np.intp) - 1]
    # The stacked products gather through (chunk, P, k) and (chunk, P, width)
    # intp offsets.
    per_subset = np.dtype(np.intp).itemsize * len(positions) * max(k, width)
    chunk = max(1, _CHUNK_BYTES // per_subset)
    candidates: dict[bytes, bytes] = {}
    for lo in range(0, len(offsets), chunk):
        subsets = offsets[lo:lo + chunk]
        # (c, P, k): the shards at every position from each subset's shards.
        recode = _gf_matmul_stacked(np.broadcast_to(to_all, (len(subsets),) + to_all.shape),
                                    matrices[lo:lo + chunk])
        codewords = _gf_matmul_stacked(recode, received[subsets])
        mismatches = (codewords != received).any(axis=2).sum(axis=1)
        for i in np.flatnonzero(mismatches <= f):
            subset = subsets[i]
            data = _systematic_decode(n, k, tuple(window[j] for j in subset), received[subset])
            payload = data.tobytes()[:payload_len]
            if unique:
                return payload
            candidates[data.tobytes()] = payload
            if len(candidates) > 1:
                return None
    if len(candidates) == 1:
        return next(iter(candidates.values()))
    return None


class SubsetDecoder:
    """Incremental search for a k-subset of elements whose decode matches a
    target digest.

    Elements arrive one at a time; each arrival tries only the subsets that
    contain it. Used when k = f+1 and the set may hold up to f garbage
    elements alongside the genuine ones.
    """

    def __init__(self, params: CodeParams, target, payload_len: int,
                 digest_fn, cap: int = 10**6):
        self.params = params
        self.target = target
        self.payload_len = payload_len
        self.digest_fn = digest_fn
        self.cap = cap
        self.elements: list[CodedElement] = []
        self._seen: set[tuple[int, bytes]] = set()
        self.found: bytes | None = None

    def add(self, element: CodedElement) -> bytes | None:
        """Fold one element in; returns the payload once a subset matches."""
        if self.found is not None:
            return self.found
        key = (element.index, element.data)
        if key in self._seen:
            return None
        if len(element.data) != shard_width(self.payload_len, self.params.k):
            return None
        self._seen.add(key)
        self.elements.append(element)
        if math.comb(len(self.elements), self.params.k) > self.cap:
            raise FaultBudgetTooLarge(
                f"{len(self.elements)} elements make more than {self.cap} subsets")
        k = self.params.k
        if len(self.elements) < k:
            return None
        prior = self.elements[:-1]
        for combo in itertools.combinations(prior, k - 1):
            subset = list(combo) + [element]
            if len({e.index for e in subset}) != k:
                continue
            try:
                payload = decode_erasure(subset, self.params, self.payload_len)
            except CodecError:
                continue
            if self.digest_fn(payload) == self.target:
                self.found = payload
                return payload
        return None


def subset_search_decode(codeset, target, f: int, params: CodeParams,
                         payload_len: int, digest_fn, cap: int = 10**6) -> bytes | None:
    """Search all (f+1)-subsets of ``codeset`` for one that decodes to a
    payload matching ``target``. Requires params.k == f + 1."""
    if params.k != f + 1:
        raise InvalidParams(f"subset search needs k = f+1, got k={params.k} f={f}")
    decoder = SubsetDecoder(params, target, payload_len, digest_fn, cap)
    for element in sorted(codeset, key=lambda e: (e.index, e.data)):
        found = decoder.add(element)
        if found is not None:
            return found
    return None
