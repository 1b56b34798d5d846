"""The codec's earlier kernels, kept as oracles for the table-driven ones.

``gf_matmul_tensor`` is the log/exp tensor product: it forms every product
of an (r, k) by (k, w) multiplication in one (r, k, w) array through exp
and log tables, masks the zero factors and XOR-reduces. Its tables are
rebuilt here from the scalar oracle in oracle_rs.py, not taken from the
codec.

``decode_correcting_sequential`` is the correcting decoder as one loop over
the k-subsets of the window: decode each subset, re-encode it, count the
positions that disagree. It shares the codec's field-independent helpers
(shard widths, generator and decode matrices), which the erasure tests
check against oracle_rs.
"""
from __future__ import annotations

import itertools

import numpy as np

import oracle_rs
from rblab.codec import (
    InvalidParams,
    NotEnoughElements,
    _decode_matrix,
    _generator_matrix,
    shard_width,
)

_EXP = np.array(oracle_rs._EXP[:255] * 2 + [0, 0], dtype=np.uint8)
_LOG = np.array(oracle_rs._LOG, dtype=np.int16)


def gf_matmul_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply matrices over GF(256); a is (r, k), b is (k, w)."""
    la = _LOG[a][:, :, None]
    lb = _LOG[b][None, :, :]
    prod = _EXP[la + lb]
    mask = (a[:, :, None] == 0) | (b[None, :, :] == 0)
    return np.bitwise_xor.reduce(np.where(mask, 0, prod), axis=1)


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
    gen = _generator_matrix(n, k)
    window = positions[: k + f]
    unique = n - len(positions) <= f
    candidates: dict[bytes, bytes] = {}
    for subset in itertools.combinations(window, k):
        sub_rows = np.stack([received[positions.index(p)] for p in subset])
        data = gf_matmul_tensor(_decode_matrix(n, k, subset), sub_rows)
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
