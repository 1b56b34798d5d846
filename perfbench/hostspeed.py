"""Host-speed probe: rescale wall-clock times to a reference host speed.

The benchmark runs on cores shared with other work, where the same
instructions take 30-50% longer in one phase than in another a few
minutes later (CPU time slows as much as wall time, so this is not
descheduling). A run cannot avoid that, but it can measure it: between
trials it times a fixed reference kernel that does the same kind of work
as the workload, and divides each measured time by how much slower the
kernel ran than its reference time. The kernels are the benchmark's own
code and call nothing in rblab, so a change to rblab moves the measured
times and never the probe.

Two kernels:

- ``gf``: a GF(2^8) matrix product by log/exp table gathers in numpy, the
  pattern of a wide-shard Reed-Solomon encode (bulk-64k's hot path);
- ``interp``: interpreter work of the simulator's kind: tuple-keyed dict
  updates, small objects with slots and methods, and a heap.

Each workload names the kernel closest to its hot path. A probe runs the
kernel ``REPS`` times and keeps the median, so one preemption does not
move it. ``factor(t)`` interpolates between the probes taken before and
after time ``t``.
"""
from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

REPS = 3
INTERVAL_S = 0.25  # probe at the first trial boundary this long after the last probe

# Kernel time in seconds, typical of a probe during a run on the baseline
# machine (2-core shared Intel Xeon, Python 3.11, numpy 2.4). A rescaled
# time reads as the time the same work takes there at that speed.
REFERENCE_S = {"gf": 0.0034, "interp": 0.0080}


def _gf_tables():
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    return exp, log


_EXP, _LOG = _gf_tables()
_rng = np.random.default_rng(0)
_A = _rng.integers(1, 256, (7, 12), dtype=np.uint8)
_B = _rng.integers(0, 256, (12, 6000), dtype=np.uint8)


def gf_kernel() -> int:
    prod = _EXP[_LOG[_A][:, :, None] + _LOG[_B][None, :, :]]
    mask = (_A[:, :, None] == 0) | (_B[None, :, :] == 0)
    out = np.bitwise_xor.reduce(np.where(mask, 0, prod), axis=1)
    return int(out[0, 0])


class _Event:
    __slots__ = ("at", "node", "body")

    def __init__(self, at: int, node: int, body: bytes):
        self.at = at
        self.node = node
        self.body = body

    def key(self) -> tuple[int, int]:
        return (self.at, self.node)


def interp_kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    queue: list = []
    acc = 0
    for i in range(4000):
        key = (i & 255, i >> 4)
        counts[key] = counts.get(key, 0) + i
        event = _Event((i * 7919) % 1000, i & 15, b"x" * (i & 31))
        heapq.heappush(queue, (event.at, i, event))
        if len(queue) > 64:
            _, _, done = heapq.heappop(queue)
            acc += len(done.body) + done.key()[1]
    return acc + len(counts)


KERNELS = {"gf": gf_kernel, "interp": interp_kernel}


class HostSpeed:
    """Probes taken during a run, as (time, slowdown against the reference)."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.times: list[float] = []
        self.factors: list[float] = []

    def probe(self) -> float:
        """Time the kernel now; returns and records its slowdown factor."""
        runs = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            KERNELS[self.kernel]()
            runs.append(time.perf_counter() - t0)
        factor = statistics.median(runs) / REFERENCE_S[self.kernel]
        self.times.append(time.perf_counter())
        self.factors.append(factor)
        return factor

    def tick(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.probe()

    def factor(self, t: float) -> float:
        return float(np.interp(t, self.times, self.factors))

    def rescale(self, t_mid: float, seconds: float) -> float:
        """``seconds`` measured around ``t_mid``, at the reference speed."""
        return seconds / self.factor(t_mid)
