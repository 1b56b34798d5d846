"""Deterministic discrete-event network simulator for the broadcast automata.

A SimWorld owns one automaton per node, a hop-count topology, and a single
event queue ordered by (time, insertion sequence), which makes every run a
pure function of its inputs and seed. Message latency is

    hops * base_delay + uniform[0, jitter) + bits / bandwidth

with per-directed-link transmit serialization (a link finishes clocking one
message out before the next starts) and FIFO arrival ordering per link.
Self-addressed copies loop back instantly but still count toward byte
totals. Latency is shaped only through ``delay_policy``, which may replace
a copy's whole delay (transmit time included) on any link, and ``inject``,
which schedules hand-crafted traffic with a delay of its own. Either delay
must be >= 0 and finite, or ``ValueError`` is raised.

The world also records everything the analysis layer needs: per-node,
per-kind message and byte counters, delivery times, causal depth (how many
network legs the information chain behind a delivery spans), and which
digests each node vouched for in its ACC wave.

The event loop is the hot path of every run. Its per-kind tallies are
flat: per node, one list of ints indexed by the kind's wire code, which a
receive or a send updates in place. ``RunStats`` shows them through
read-only views that build a fresh ``Counter`` per node. The loop counts
its events once per drain, not once per event. ``_emit`` takes a
``Multicast`` whole: it sizes the message from the fields it has set,
counts its n copies, records an ACC's digest and builds the one packet its
copies share, then does only link work per copy, for recipients 0..n-1 in
order. An ACC that carries a payload is hashed through ``hashing.digest``,
which runs SHA-256 only when the payload differs from the last input
hashed, so an ACC wave of equal payloads costs one run. Consecutive Sends
of one message object, such as a faulty node's expanded multicast or an
honest node's REQs to the backers of a digest, take the same path with
their recipients in order, so the RNG draws and queue sequence numbers are
those a Send at a time would make; a lone Send and an injected message
take it with their one recipient. A queued copy is one
``(time, seq, to, packet)`` entry, where the packet holds what every
copy of the emit shares: the ``Receive`` event, the envelope size, the
depth, the instance's depth row and the kind's wire code as an int, so a
receive neither builds a key nor looks the row up. A queued call, a
broadcast or an injected message, is ``(time, seq, None, (method, args))``
and runs ``method(world, *args)`` with ``_process_bcast`` or ``_emit``
unbound, so a call holds no reference to its world. Per-link state lives in
n x n tables: the hop counts and ``hops * base_delay`` are built once per
(topology, n, base_delay) and shared read-only as tuples, while each world
keeps its own lists of when each link's transmitter frees up and of its
latest scheduled arrival. A faulty node is stepped as any node, through
the wrapper that ``attach_adversary`` put in its place.

Causal depth is kept once per instance: one row of n depths per (source,
h), found or made once per emit (so at the instance's first send), where
a receive reads and raises its recipient's entry. A row costs 8n bytes and
a list header whether one node or all n touch the instance.

A finished world is freed by reference counting the moment it is dropped,
so a process that runs world after world frees a few MiB at a time. glibc
gives heap back to the OS whenever twice its mmap threshold (about 2 MiB
once a MiB-sized numpy buffer has come and gone) lies free at the heap's
top, and each later MiB-sized buffer then faults its pages in anew. Whether
that happens after a run depends on where the survivors of earlier runs
sit, so its cost changes from one process to the next. Importing this
module fixes the thresholds so that up to 32 MiB of freed heap is kept for
reuse.

``SimWorld.run`` pauses the cyclic garbage collector while it processes
events and restores the caller's setting when it returns or raises. A long
world allocates many container objects, and each young collection passes
those that stay alive on to the older generations until a full collection
rescans every one of them. Only a few stay alive per broadcast: each node
closes an instance once it is done with it (see ``core``), so it keeps a
few open records and one compact closed record per instance, and the
world keeps its delivery records, the depth row per instance, and one
voter mask per (instance, digest) for the ACC bookkeeping. None
of that can be freed by the collector: the automata, the
simulator's records and its events form no reference cycles, which
``tests/test_memory.py`` checks by running whole worlds with the collector
off and finding nothing for ``gc.collect()``. The pause assumes that stays
true. Cyclic garbage made during a run by callbacks such as a
``delay_policy`` or an adversary strategy is collected after ``run``
returns.
"""
from __future__ import annotations

import ctypes
import gc
import heapq
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from . import hashing
from .core import (
    Action,
    BroadcastRequest,
    Deliver,
    MsgKind,
    Multicast,
    NodeId,
    Payload,
    Receive,
    Send,
    SeqIndex,
    WireMessage,
    envelope_size,
)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters

# Read per message: a module constant costs less than an enum member read.
_ACC = MsgKind.ACC
_INF = math.inf  # read per policy delay: cheaper than the module attribute
_CODES = max(MsgKind) + 1  # tally slots per node, indexed by wire code


def _keep_freed_heap() -> None:
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    # Fixing either threshold turns off glibc's sliding one, so set both.
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


_keep_freed_heap()


class StepCapExceeded(RuntimeError):
    """The event cap tripped; the run is likely not quiescing. The next
    event stays queued, so a later ``run`` resumes the same world."""


class FaultBudgetExceeded(ValueError):
    """More adversarial nodes than f in a strict run."""


class InvalidTopology(ValueError):
    """The topology cannot host the requested number of nodes."""


class NotDelivered(LookupError):
    """Queried a delivery that never happened."""


class TopologyKind(str, Enum):
    SINGLE_SWITCH = "single-switch"
    LINEAR = "linear"
    TREE = "tree"
    FAT_TREE = "fat-tree"


@dataclass(frozen=True)
class Topology:
    """Switched-network shape reduced to a host-to-host hop count.

    SINGLE_SWITCH: every host on one switch, all pairs 2 hops. LINEAR: a
    chain of n switches with one host each, hop = |i-j| + 2. TREE: a
    complete switch tree of the given fanout, as deep as n needs, with
    ``fanout`` hosts per leaf switch, hop = 2 + 2 * (levels to the common
    ancestor). FAT_TREE: two tiers, ``fanout`` hosts per edge switch, 2
    hops under one edge switch and 4 across the spine.
    """

    kind: TopologyKind = TopologyKind.SINGLE_SWITCH
    fanout: int = 2

    def validate(self, n: int) -> None:
        # With fanout 1, ``hop``'s climb from two hosts never meets.
        if self.kind is TopologyKind.TREE and self.fanout < min(n, 2):
            raise InvalidTopology(
                f"tree of n={n} hosts needs fanout >= {min(n, 2)}, got {self.fanout}")
        if self.kind is TopologyKind.FAT_TREE and self.fanout < 1:
            raise InvalidTopology("fat tree needs fanout >= 1")

    def hop(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if self.kind is TopologyKind.SINGLE_SWITCH:
            return 2
        if self.kind is TopologyKind.LINEAR:
            return abs(i - j) + 2
        if self.kind is TopologyKind.TREE:
            a, b = i // self.fanout, j // self.fanout
            up = 0
            while a != b:
                a //= self.fanout
                b //= self.fanout
                up += 1
            return 2 + 2 * up
        if self.kind is TopologyKind.FAT_TREE:
            return 2 if i // self.fanout == j // self.fanout else 4
        raise ValueError(f"unknown topology {self.kind}")

    def hop_matrix(self, n: int) -> list[list[int]]:
        self.validate(n)
        return [[self.hop(i, j) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=64)
def _world_tables(topology: Topology, n: int, base_delay: float) -> tuple[tuple, tuple]:
    """The hop counts and per-link ``hops * base_delay`` of an n-node world,
    as tuples: built once per shape and shared read-only by its worlds. An
    invalid topology raises and is not cached."""
    hops = topology.hop_matrix(n)
    return (tuple(map(tuple, hops)),
            tuple(tuple(count * base_delay for count in row) for row in hops))


@dataclass(frozen=True)
class NetParams:
    """Per-hop latency, one-sided jitter, and link bandwidth.

    Bandwidths are bytes per second per directed link, None = unlimited;
    links leaving a broadcasting source can be capped separately."""

    base_delay: float = 0.1
    jitter: float = 0.0
    bandwidth: float | None = None
    source_bandwidth: float | None = None


@dataclass(slots=True)
class DeliverRecord:
    time: float
    payload: Payload
    depth: int


class RunStats:
    """Everything measured during one simulation run."""

    def __init__(self, n: int):
        self.n = n
        # Per node, one slot per wire code; read through the Counter views.
        self._sent_count = [[0] * _CODES for _ in range(n)]
        self._sent_bytes = [[0] * _CODES for _ in range(n)]
        self._recv_count = [[0] * _CODES for _ in range(n)]
        self._recv_bytes = [[0] * _CODES for _ in range(n)]
        self.delivers: dict[tuple[NodeId, NodeId, SeqIndex], DeliverRecord] = {}
        self.double_deliveries: list[tuple[NodeId, NodeId, SeqIndex]] = []
        # (s, h, digest) -> mask of the nodes that sent an ACC for it.
        self._accs: dict[tuple[NodeId, SeqIndex, bytes], int] = {}
        self.events_processed = 0

    def vouch(self, s: NodeId, h: SeqIndex, node: NodeId, digest: bytes) -> None:
        """Record that ``node`` sent an ACC for ``digest`` in instance (s, h)."""
        key = (s, h, digest)
        self._accs[key] = self._accs.get(key, 0) | 1 << node

    @property
    def acc_digests(self) -> dict[tuple[NodeId, SeqIndex], dict[NodeId, set[bytes]]]:
        """(s, h) -> node -> the digests it vouched for in its ACCs."""
        view: dict[tuple[NodeId, SeqIndex], dict[NodeId, set[bytes]]] = {}
        for (s, h, digest), mask in self._accs.items():
            per_node = view.setdefault((s, h), {})
            for node in range(mask.bit_length()):
                if mask >> node & 1:
                    per_node.setdefault(node, set()).add(digest)
        return view

    @property
    def sent_count(self) -> list[Counter]:
        """Per node, kind -> messages sent (each copy of a multicast counts)."""
        return _views(self._sent_count)

    @property
    def sent_bytes(self) -> list[Counter]:
        """Per node, kind -> envelope bytes sent."""
        return _views(self._sent_bytes)

    @property
    def recv_count(self) -> list[Counter]:
        """Per node, kind -> messages received."""
        return _views(self._recv_count)

    @property
    def recv_bytes(self) -> list[Counter]:
        """Per node, kind -> envelope bytes received."""
        return _views(self._recv_bytes)

    def total_sent_bytes(self, kind: MsgKind | None = None) -> int:
        return _total(self._sent_bytes, kind)

    def total_sent_count(self, kind: MsgKind | None = None) -> int:
        return _total(self._sent_count, kind)


def _views(tallies: list[list[int]]) -> list[Counter]:
    """Fresh per-node Counters of flat tallies, without zero entries."""
    return [Counter({kind: row[kind] for kind in MsgKind if row[kind]}) for row in tallies]


def _total(tallies: list[list[int]], kind: MsgKind | None) -> int:
    if kind is None:
        return sum(map(sum, tallies))
    return sum(row[kind] for row in tallies)


class TraceRow(NamedTuple):  # one traced event; the fields are the trace's columns
    index: int
    time: float
    event: str
    node: int
    frm: int
    kind: str
    source: int
    h: int
    size: int
    depth: int


class SimWorld:
    """One network of automata plus its event queue and measurements."""

    def __init__(self, automata, *, topology: Topology = Topology(),
                 net: NetParams = NetParams(), seed: int = 0,
                 record_trace: bool = False, max_steps: int = 1_000_000):
        self.automata = list(automata)
        self.n = len(self.automata)
        self.hops, self._link_delay = _world_tables(topology, self.n, net.base_delay)
        self.net = net
        self.rng = random.Random(seed)
        self.record_trace = record_trace
        self.max_steps = max_steps
        self.time = 0.0
        self.stats = RunStats(self.n)
        self.byzantine: set[NodeId] = set()  # the faulty node ids
        self.delay_policy = None
        self.broadcasts: list[tuple[NodeId, Payload, SeqIndex]] = []
        self.trace: list[TraceRow] = []
        # A copy (time, seq, to, packet), or a call (time, seq, None, (method, args)).
        self._queue: list[tuple[float, int, NodeId | None, tuple]] = []
        self._seq = itertools.count()
        self._busy_until = [[0.0] * self.n for _ in range(self.n)]
        self._last_arrival = [[0.0] * self.n for _ in range(self.n)]
        # (s, h) -> each node's causal depth in that instance, one row of n.
        self._ctx: dict[tuple[NodeId, SeqIndex], list[int]] = {}
        self._source_nodes: set[NodeId] = set()

    # -- setup ---------------------------------------------------------------
    @property
    def honest(self) -> set[NodeId]:
        return set(range(self.n)) - self.byzantine

    def attach_adversary(self, node: NodeId, strategy, *,
                         allow_overfault: bool = False) -> None:
        """Make ``node`` faulty: step ``strategy.wrap(its automaton)`` instead."""
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} outside [0, {self.n})")
        if node in self.byzantine:
            raise ValueError(f"node {node} is already faulty")
        f = self.automata[node].f
        count = len(self.byzantine) + 1
        if not allow_overfault and count > f:
            raise FaultBudgetExceeded(f"attaching faulty node #{count} exceeds f={f}")
        self.byzantine.add(node)
        self.automata[node] = strategy.wrap(self.automata[node])

    # -- scheduling ----------------------------------------------------------
    def _push(self, at: float, method, *args) -> None:
        """Queue the call ``method(self, *args)`` at ``at``: a finite time,
        not before now."""
        if not self.time <= at < math.inf:
            raise ValueError(f"cannot schedule at {at}: a time must be finite and not "
                             f"before the world's time {self.time}")
        heapq.heappush(self._queue, (at, next(self._seq), None, (method, args)))

    def broadcast(self, node: NodeId, payload: Payload, h: SeqIndex,
                  at: float = 0.0) -> None:
        self._push(at, SimWorld._process_bcast, node, payload, h)
        self.broadcasts.append((node, payload, h))
        self._source_nodes.add(node)

    def inject(self, at: float, frm: NodeId, to: NodeId, msg: WireMessage,
               delay: float | None = None) -> None:
        """Schedule a hand-crafted send at an absolute time (adversary use),
        at causal depth 1. A copy injected with a ``delay`` of its own takes
        that delay and is never shown to ``delay_policy``."""
        if delay is not None and not 0 <= delay < math.inf:
            raise ValueError(f"delay {delay} must be >= 0 and finite")
        self._push(at, SimWorld._emit, frm, (to,), msg, 1, delay)

    def quiescent(self) -> bool:
        return not self._queue

    # -- core loop -----------------------------------------------------------
    def run(self, until: float | None = None) -> RunStats:
        """Process events in order until the queue is empty or the next one
        is later than ``until``. The cyclic garbage collector is paused
        meanwhile and left as the caller had it (see the module docstring)."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._drain(until)
        finally:
            if collecting:
                gc.enable()

    def _drain(self, until: float | None) -> RunStats:
        queue, heappop, max_steps = self._queue, heapq.heappop, self.max_steps
        stats, automata = self.stats, self.automata
        recv_count, recv_bytes = stats._recv_count, stats._recv_bytes
        trace = self.record_trace
        steps = 0
        try:
            while queue and (until is None or queue[0][0] <= until):
                if steps == max_steps:
                    raise StepCapExceeded(f"exceeded {self.max_steps} events")
                time, _, to, packet = heappop(queue)
                self.time = time
                steps += 1
                if to is not None:
                    event, size, depth, row, code = packet
                    recv_count[to][code] += 1
                    recv_bytes[to][code] += size
                    ctx = row[to]
                    if depth > ctx:
                        ctx = row[to] = depth
                    if trace:
                        msg = event.msg
                        self._trace("recv", to, event.frm, msg.kind.name, msg.source, msg.h,
                                    size, depth)
                    actions = automata[to].step(event)
                    if actions:
                        self._apply(to, actions, ctx)
                else:
                    method, args = packet
                    method(self, *args)
        finally:
            stats.events_processed += steps
        if until is not None and until > self.time:
            self.time = until
        return stats

    def _process_bcast(self, node: NodeId, payload: Payload, h: SeqIndex) -> None:
        actions = self.automata[node].step(BroadcastRequest(payload, h))
        self._trace("bcast", node, node, "-", node, h, 0, 0)
        self._apply(node, actions, ctx=0)

    def _apply(self, node: NodeId, actions: list[Action], ctx: int) -> None:
        """Carry out ``node``'s actions in order. Consecutive Sends of one
        message object go out as one emit, as a Multicast does."""
        emit, depth = self._emit, ctx + 1
        i, count = 0, len(actions)
        while i < count:
            action = actions[i]
            i += 1
            cls = type(action)
            if cls is Multicast:
                emit(node, range(self.n), action.msg, depth)
            elif cls is Send:
                msg, recipients = action.msg, [action.to]
                while i < count and type(actions[i]) is Send and actions[i].msg is msg:
                    recipients.append(actions[i].to)
                    i += 1
                emit(node, recipients, msg, depth)
            elif cls is Deliver:
                key = (node, action.source, action.h)
                if key in self.stats.delivers:
                    self.stats.double_deliveries.append(key)
                    continue
                self.stats.delivers[key] = DeliverRecord(self.time, action.payload, ctx)
                self._trace("deliver", node, node, "-", action.source, action.h,
                            len(action.payload), ctx)

    def _emit(self, frm: NodeId, recipients, msg: WireMessage, depth: int,
              forced_delay: float | None = None) -> None:
        """Send ``msg`` from ``frm`` to each of ``recipients`` in order:
        message bookkeeping and the packet ``(event, size, depth, row,
        code)`` once, link work and a queued ``(arrival, seq, to, packet)``
        entry per recipient. The message is sized through this module's
        ``envelope_size``, which perfbench patches by name."""
        size = envelope_size(msg)
        kind = msg.kind
        code = int(kind)  # an exact int indexes the tallies faster than an IntEnum
        stats = self.stats
        copies = len(recipients)
        stats._sent_count[frm][code] += copies
        stats._sent_bytes[frm][code] += copies * size
        if kind is _ACC:
            digest = msg.digest
            if digest is None:
                digest = hashing.digest(msg.payload or b"")
            stats.vouch(msg.source, msg.h, frm, digest)
        key = (msg.source, msg.h)
        row = self._ctx.get(key)
        if row is None:
            row = self._ctx[key] = [0] * self.n
        packet = (Receive(frm, msg), size, depth, row, code)
        now, net, policy = self.time, self.net, self.delay_policy
        link_delay, jitter, draw = self._link_delay[frm], net.jitter, self.rng.random
        bandwidth = net.bandwidth
        if net.source_bandwidth is not None and frm in self._source_nodes:
            bandwidth = net.source_bandwidth
        transmit = size / bandwidth if bandwidth else 0.0
        busy, last_arrival = self._busy_until[frm], self._last_arrival[frm]
        queue, seq, push = self._queue, self._seq, heapq.heappush
        for to in recipients:
            delay = forced_delay
            if delay is None:
                if frm == to:
                    delay = 0.0
                elif policy is not None:
                    delay = policy(frm, to, msg)
                    if delay is not None and not 0 <= delay < _INF:
                        raise ValueError(f"delay {delay} from delay_policy must be >= 0 and finite")
            if delay is None:
                delay = link_delay[to]
                if jitter:
                    # uniform(0, jitter) with the same draw and the same float.
                    delay += jitter * draw()
                if bandwidth:
                    start = busy[to] if busy[to] > now else now
                    busy[to] = start + transmit
                    delay += (start - now) + transmit
            arrival = now + delay
            if last_arrival[to] > arrival:
                arrival = last_arrival[to]
            last_arrival[to] = arrival
            push(queue, (arrival, next(seq), to, packet))

    def _trace(self, event: str, node: int, frm: int, kind: str, source: int,
               h: int, size: int, depth: int) -> None:
        if not self.record_trace:
            return
        self.trace.append(TraceRow(len(self.trace), self.time, event, node,
                                   frm, kind, source, h, size, depth))


def causal_depth(stats: RunStats, s: NodeId, h: SeqIndex, node: NodeId) -> int:
    """Depth of the information chain behind ``node``'s delivery of (s, h)."""
    rec = stats.delivers.get((node, s, h))
    if rec is None:
        raise NotDelivered(f"node {node} did not deliver ({s}, {h})")
    return rec.depth


# -- correctness checking ----------------------------------------------------

def check_broadcast_properties(world: SimWorld) -> list[str]:
    """Validate the five broadcast properties over a quiescent run.

    1. Every broadcast by a non-faulty source is delivered by every
       non-faulty node.
    2. What a non-faulty node delivers for a non-faulty source is exactly
       what that source broadcast.
    3. No two non-faulty nodes deliver different payloads for the same
       (source, index).
    4. No non-faulty node delivers the same (source, index) twice.
    5. If any non-faulty node delivers (source, index), every non-faulty
       node does.
    Returns human-readable violation descriptions (empty = clean).
    """
    violations: list[str] = []
    honest_set = world.honest
    honest = sorted(honest_set)
    stats = world.stats
    for key in stats.double_deliveries:
        if key[0] in honest_set:
            violations.append(f"integrity: node {key[0]} delivered {key[1:]} twice")
    honest_broadcasts = [(s, payload, h) for s, payload, h in world.broadcasts
                         if s in honest_set]
    for s, payload, h in honest_broadcasts:
        for i in honest:
            rec = stats.delivers.get((i, s, h))
            if rec is None:
                violations.append(
                    f"termination: node {i} never delivered ({s}, {h})")
            elif rec.payload != payload:
                violations.append(
                    f"validity: node {i} delivered a different payload for ({s}, {h})")
    pairs = {(s, h) for (i, s, h) in stats.delivers if i in honest_set}
    for s, h in sorted(pairs):
        payloads = [stats.delivers[(i, s, h)].payload
                    for i in honest if (i, s, h) in stats.delivers]
        # Equal bytes compare by memcmp (or identity); only a disagreement
        # pays for hashing every payload, to count the distinct ones.
        first = payloads[0]
        if any(payload != first for payload in payloads):
            violations.append(
                f"agreement: honest nodes delivered {len(set(payloads))} payloads for ({s}, {h})")
        missing = [i for i in honest if (i, s, h) not in stats.delivers]
        if missing:
            violations.append(
                f"totality: nodes {missing} missed ({s}, {h}) delivered elsewhere")
    return violations


def check_acc_consistency(world: SimWorld) -> list[str]:
    """No honest node vouches for two digests of one (source, index), and no
    two honest nodes vouch for different ones."""
    violations: list[str] = []
    honest = world.honest
    for (s, h), per_node in sorted(world.stats.acc_digests.items()):
        seen: dict[bytes, NodeId] = {}
        for node in sorted(per_node):
            if node not in honest:
                continue
            digests = per_node[node]
            if len(digests) > 1:
                violations.append(
                    f"acc-consistency: node {node} vouched for {len(digests)} digests of ({s}, {h})")
            # Against earlier nodes only: a node's own two are reported above.
            if seen and not digests <= seen.keys():
                other = next(iter(seen.values()))
                violations.append(
                    f"acc-consistency: nodes {other} and {node} vouched for different digests of ({s}, {h})")
            for d in digests:
                seen.setdefault(d, node)
    return violations
