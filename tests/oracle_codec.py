"""The codec's earlier kernels, kept as oracles for the table-driven ones.

``gf_matmul_tensor`` is the log/exp tensor product: it forms every product
of an (r, k) by (k, w) multiplication in one (r, k, w) array through exp
and log tables, masks the zero factors and XOR-reduces. Its tables are
rebuilt here from the scalar oracle in oracle_rs.py, not taken from the
codec.

``decode_matrix_gauss_jordan`` is the decode-matrix inverse as the codec
first computed it: Gauss-Jordan elimination on the generator rows of the
held positions, here in oracle_rs's scalar arithmetic. ``generator_matrix``
builds those rows from scalar Lagrange weights.

``decode_correcting_sequential`` is the correcting decoder as it was before
the error locator: one loop over the k-subsets of the window that decodes
each subset, re-encodes it and counts the positions that disagree.
``subset_search_decode`` is ec-brb-3f1's decoder as it was: it tries every
k-subset of the elements and accepts a decode that hashes to the target
digest. Their matrices come from the two oracles above; they share only
the codec's error types and shard-width rule.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

import oracle_rs
from rblab.codec import InvalidParams, NotEnoughElements, shard_width

_EXP = np.array(oracle_rs._EXP[:255] * 2 + [0, 0], dtype=np.uint8)
_LOG = np.array(oracle_rs._LOG, dtype=np.int16)


def gf_matmul_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply matrices over GF(256); a is (r, k), b is (k, w)."""
    la = _LOG[a][:, :, None]
    lb = _LOG[b][None, :, :]
    prod = _EXP[la + lb]
    mask = (a[:, :, None] == 0) | (b[None, :, :] == 0)
    return np.bitwise_xor.reduce(np.where(mask, 0, prod), axis=1)


@lru_cache(maxsize=None)
def generator_matrix(n: int, k: int) -> np.ndarray:
    """Row j - 1 holds the weights of the data shards in the shard at position j."""
    rows = []
    for x in range(1, n + 1):
        row = []
        for i in range(1, k + 1):
            weight = 1
            for j in range(1, k + 1):
                if j != i:
                    weight = oracle_rs.mul(weight, oracle_rs.mul(x ^ j, oracle_rs.inv(i ^ j)))
            row.append(weight)
        rows.append(row)
    return np.array(rows, dtype=np.uint8)


@lru_cache(maxsize=None)
def decode_matrix_gauss_jordan(n: int, k: int, positions: tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows at ``positions`` by Gauss-Jordan elimination."""
    g = generator_matrix(n, k)
    m = [[int(g[p - 1][c]) for c in range(k)] for p in positions]
    inv = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col]), None)
        if pivot is None:
            raise InvalidParams(f"positions {positions} do not span the code")
        m[col], m[pivot] = m[pivot], m[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = oracle_rs.inv(m[col][col])
        m[col] = [oracle_rs.mul(v, scale) for v in m[col]]
        inv[col] = [oracle_rs.mul(v, scale) for v in inv[col]]
        for r in range(k):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [v ^ oracle_rs.mul(factor, w) for v, w in zip(m[r], m[col])]
                inv[r] = [v ^ oracle_rs.mul(factor, w) for v, w in zip(inv[r], inv[col])]
    return np.array(inv, dtype=np.uint8)


def decode_correcting_sequential(elements, params, f: int, payload_len: int) -> bytes | None:
    """``codec.decode_correcting``, one k-subset at a time."""
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
    pos_rows = np.array([p - 1 for p in positions])
    gen = generator_matrix(n, k)
    window = positions[: k + f]
    unique = n - len(positions) <= f
    candidates: dict[bytes, bytes] = {}
    for subset in itertools.combinations(window, k):
        sub_rows = np.stack([received[positions.index(p)] for p in subset])
        data = gf_matmul_tensor(decode_matrix_gauss_jordan(n, k, subset), sub_rows)
        codeword = gf_matmul_tensor(gen, data)
        mismatches = int((codeword[pos_rows] != received).any(axis=1).sum())
        if mismatches <= f:
            payload = data.tobytes()[:payload_len]
            if unique:
                return payload
            candidates[data.tobytes()] = payload
            if len(candidates) > 1:
                return None
    if len(candidates) == 1:
        return next(iter(candidates.values()))
    return None


def subset_search_decode(elements, target, params, payload_len: int, digest_fn) -> bytes | None:
    """The payload of the first k-subset of ``elements`` (distinct indices,
    matching shard width) whose decode hashes to ``target``, or None."""
    n, k = params.n, params.k
    width = shard_width(payload_len, k)
    usable = sorted({(e.index, e.data) for e in elements
                     if 1 <= e.index <= n and len(e.data) == width})
    for subset in itertools.combinations(usable, k):
        positions = tuple(index for index, _ in subset)
        if len(set(positions)) != k:
            continue
        if width:
            shards = np.stack([np.frombuffer(data, dtype=np.uint8) for _, data in subset])
            data = gf_matmul_tensor(decode_matrix_gauss_jordan(n, k, positions), shards)
            payload = data.tobytes()[:payload_len]
        else:
            payload = b""
        if digest_fn(payload) == target:
            return payload
    return None
