"""The simulator as a plain loop, kept as an oracle for ``rblab.simnet``.

``OracleWorld`` runs the same automata as ``SimWorld``, a faulty node's
strategy wrapped around its honest one, one copy of one message at a
time. It keeps one heap of ``(time, seq, item)``, where an item is a
broadcast, an injected send or one queued copy, and one counter numbers
every push in order. A copy's delay is

    hops * base_delay + uniform[0, jitter) + bits / bandwidth

A directed link clocks out one copy before the next starts. Arrivals on a
link keep their send order, and a copy to the sender itself arrives at once.
A ``delay_policy`` may replace a copy's whole delay, and an injected send
brings its own delay. Links leaving a node that broadcasts take the source
bandwidth when one is set.

Each copy is sized by serializing it, and each ACC copy is hashed from
scratch. Tallies are per-node ``Counter``s, and causal depth is a plain dict.
It shares with the simulator only the automata, ``core``'s message types and
``expand``: hop counts follow ``Topology``'s docstring, not its code.
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from collections import Counter

from rblab.core import (
    BroadcastRequest,
    MsgKind,
    Receive,
    Send,
    encode_envelope,
    expand,
)
from rblab.simnet import TopologyKind


class CapReached(RuntimeError):
    """``max_steps`` events were processed in one ``run``; the rest stay queued."""


def hop(topology, i: int, j: int) -> int:
    """Switch hops between hosts i and j."""
    if i == j:
        return 0
    kind, fanout = topology.kind, topology.fanout
    if kind is TopologyKind.SINGLE_SWITCH:
        return 2
    if kind is TopologyKind.LINEAR:
        return abs(i - j) + 2
    if kind is TopologyKind.FAT_TREE:
        return 2 if i // fanout == j // fanout else 4
    # TREE: two hops to the shared leaf switch, two more per level above it.
    levels = 0
    while i // fanout != j // fanout:
        i, j, levels = i // fanout, j // fanout, levels + 1
    return 2 + 2 * levels


class OracleWorld:
    def __init__(self, automata, *, topology, net, seed: int = 0,
                 max_steps: int = 1_000_000):
        self.automata = list(automata)
        self.n = n = len(self.automata)
        self.hops = [[hop(topology, i, j) for j in range(n)] for i in range(n)]
        self.net = net
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self.time = 0.0
        self.delay_policy = None
        self.heap: list = []
        self.seq = itertools.count()
        self.sources: set[int] = set()
        self.busy_until: dict = {}    # (frm, to) -> when the link is free
        self.last_arrival: dict = {}  # (frm, to) -> latest arrival queued
        self.depth: dict = {}         # (node, s, h) -> deepest chain received
        self.sent_count = [Counter() for _ in range(n)]
        self.sent_bytes = [Counter() for _ in range(n)]
        self.recv_count = [Counter() for _ in range(n)]
        self.recv_bytes = [Counter() for _ in range(n)]
        self.acc_digests: dict = {}   # (s, h) -> node -> digests
        self.delivers: dict = {}      # (node, s, h) -> (time, payload, depth)
        self.double_deliveries: list = []
        self.trace: list[tuple] = []
        self.events_processed = 0

    def attach_adversary(self, node: int, strategy) -> None:
        self.automata[node] = strategy.wrap(self.automata[node])

    def broadcast(self, node, payload, h, at: float = 0.0) -> None:
        self.sources.add(node)
        heapq.heappush(self.heap, (at, next(self.seq), ("bcast", node, payload, h)))

    def inject(self, at, frm, to, msg, delay=None) -> None:
        heapq.heappush(self.heap, (at, next(self.seq), ("inject", frm, to, msg, delay)))

    def run(self, until: float | None = None) -> None:
        steps = 0
        while self.heap and (until is None or self.heap[0][0] <= until):
            if steps == self.max_steps:
                raise CapReached
            self.time, _, item = heapq.heappop(self.heap)
            steps += 1
            self.events_processed += 1
            if item[0] == "copy":
                self._receive(*item[1:])
            elif item[0] == "bcast":
                self._broadcast(*item[1:])
            else:
                _, frm, to, msg, delay = item
                self._send(frm, to, msg, 1, delay)
        if until is not None and until > self.time:
            self.time = until

    def _record(self, *row) -> None:
        self.trace.append((len(self.trace), self.time) + row)

    def _broadcast(self, node, payload, h) -> None:
        actions = self.automata[node].step(BroadcastRequest(payload, h))
        self._record("bcast", node, node, "-", node, h, 0, 0)
        self._act(node, actions, 0)

    def _receive(self, to, frm, msg, size, depth) -> None:
        self.recv_count[to][msg.kind] += 1
        self.recv_bytes[to][msg.kind] += size
        key = (to, msg.source, msg.h)
        self.depth[key] = max(self.depth.get(key, 0), depth)
        self._record("recv", to, frm, msg.kind.name, msg.source, msg.h, size, depth)
        actions = self.automata[to].step(Receive(frm, msg))
        self._act(to, actions, self.depth[key])

    def _act(self, node, actions, ctx) -> None:
        for action in expand(actions, self.n):
            if type(action) is Send:
                self._send(node, action.to, action.msg, ctx + 1)
                continue
            key = (node, action.source, action.h)
            if key in self.delivers:
                self.double_deliveries.append(key)
            else:
                self.delivers[key] = (self.time, action.payload, ctx)
                self._record("deliver", node, node, "-", action.source, action.h,
                             len(action.payload), ctx)

    def _send(self, frm, to, msg, depth, forced=None) -> None:
        size = len(encode_envelope(msg))
        self.sent_count[frm][msg.kind] += 1
        self.sent_bytes[frm][msg.kind] += size
        if msg.kind is MsgKind.ACC:
            digest = msg.digest
            if digest is None:
                digest = hashlib.sha256(msg.payload or b"").digest()
            self.acc_digests.setdefault((msg.source, msg.h), {}) \
                .setdefault(frm, set()).add(digest)
        now, net, link = self.time, self.net, (frm, to)
        delay = forced
        if delay is None and frm == to:
            delay = 0.0
        if delay is None and self.delay_policy is not None:
            delay = self.delay_policy(frm, to, msg)
        if delay is None:
            delay = self.hops[frm][to] * net.base_delay
            if net.jitter:
                delay += self.rng.uniform(0, net.jitter)
            bandwidth = net.bandwidth
            if net.source_bandwidth is not None and frm in self.sources:
                bandwidth = net.source_bandwidth
            if bandwidth:
                transmit = size / bandwidth
                start = max(now, self.busy_until.get(link, 0.0))
                self.busy_until[link] = start + transmit
                delay += (start - now) + transmit
        arrival = max(now + delay, self.last_arrival.get(link, 0.0))
        self.last_arrival[link] = arrival
        heapq.heappush(self.heap, (arrival, next(self.seq),
                                   ("copy", to, frm, msg, size, depth)))
