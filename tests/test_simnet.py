"""Discrete-event network: topologies, delay model, stats, determinism."""
import gc
import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracle_simnet
from conftest import count_sha256_runs, stretch_link
from rblab import bench, codec, hashing, simnet
from rblab.adversary import CorruptRelay, Silent, Strategy, build_world
from rblab.core import BroadcastRequest, Closed, Deliver, MsgKind, Multicast, Receive, WireMessage
from rblab.protocols import RESILIENCE, ProtocolKind, ecbrb
from rblab.simnet import (
    InvalidTopology,
    NetParams,
    NotDelivered,
    SimWorld,
    StepCapExceeded,
    Topology,
    TopologyKind,
    TraceRow,
    causal_depth,
    check_acc_consistency,
    check_broadcast_properties,
)


# -- topologies ---------------------------------------------------------------

def test_single_switch_hops():
    matrix = Topology(TopologyKind.SINGLE_SWITCH).hop_matrix(4)
    for i in range(4):
        for j in range(4):
            assert matrix[i][j] == (0 if i == j else 2)


def test_linear_hops_grow_with_distance():
    topo = Topology(TopologyKind.LINEAR)
    assert topo.hop(0, 1) == 3
    assert topo.hop(0, 4) == 6
    assert topo.hop(4, 0) == 6
    assert topo.hop(2, 2) == 0


def test_tree_hops_follow_common_ancestor():
    topo = Topology(TopologyKind.TREE, fanout=2)
    assert topo.hop(0, 1) == 2   # same leaf switch
    assert topo.hop(0, 2) == 4   # one level up
    assert topo.hop(0, 7) == 6   # through the root
    # The tree is as deep as n needs.
    topo.validate(10)
    assert topo.hop_matrix(10) == [[oracle_simnet.hop(topo, i, j) for j in range(10)]
                                   for i in range(10)]
    assert topo.hop(0, 9) == 8
    # With fanout 1 two hosts never share a switch; refused, never climbed.
    with pytest.raises(InvalidTopology, match="needs fanout >= 2"):
        Topology(TopologyKind.TREE, fanout=1).validate(2)


def test_fat_tree_hops():
    topo = Topology(TopologyKind.FAT_TREE, fanout=2)
    assert topo.hop(0, 1) == 2   # same edge switch
    assert topo.hop(0, 2) == 4   # across the spine
    solo = Topology(TopologyKind.FAT_TREE, fanout=1)
    assert all(solo.hop(i, j) == 4 for i in range(4) for j in range(4)
               if i != j)
    with pytest.raises(InvalidTopology):
        Topology(TopologyKind.FAT_TREE, fanout=0).validate(2)


def test_worlds_of_one_shape_share_no_mutable_table():
    topo = Topology(TopologyKind.TREE, fanout=3)
    a, b = (build_world(ProtocolKind.BRACHA, 7, 2, topology=topo,
                        net=NetParams(base_delay=0.25)) for _ in range(2))
    assert [list(row) for row in a.hops] == topo.hop_matrix(7)
    assert a.hops is b.hops
    assert a._link_delay == b._link_delay
    assert [[d / 0.25 for d in row] for row in a._link_delay] == topo.hop_matrix(7)
    for name, value in vars(a).items():
        if isinstance(value, (list, dict, set)):
            assert value is not vars(b)[name], name
            for row in (value if isinstance(value, list) else ()):
                assert not isinstance(row, (list, dict, set)) or \
                    all(row is not other for other in vars(b)[name]), name
    # The hop table is shared read-only: an edit fails instead of silently
    # doing nothing to the link model.
    with pytest.raises(TypeError):
        a.hops[0][1] = 99
    with pytest.raises(TypeError):
        a.hops[0] = (0,) * 7
    assert b.hops[0][1] == topo.hop(0, 1) == 2
    # An invalid shape raises on every construction, not only the first.
    for _ in range(2):
        with pytest.raises(InvalidTopology):
            build_world(ProtocolKind.BRACHA, 10, 3,
                        topology=Topology(TopologyKind.TREE, fanout=1))


# -- delay model ---------------------------------------------------------------

def _recv_times(world, kind=None):
    return [(row.time, row.frm, row.node) for row in world.trace
            if row.event == "recv" and (kind is None or row.kind == kind)]


def test_per_hop_latency():
    world = build_world(ProtocolKind.CRB_FLOOD, 3, 0,
                        topology=Topology(TopologyKind.LINEAR),
                        net=NetParams(base_delay=0.1), record_trace=True)
    world.broadcast(0, b"m", 1)
    stats = world.run()
    # hop(0,1)=3, hop(0,2)=4 at 0.1 per hop.
    assert stats.delivers[(1, 0, 1)].time == pytest.approx(0.3)
    assert stats.delivers[(2, 0, 1)].time == pytest.approx(0.4)
    assert stats.delivers[(0, 0, 1)].time == 0.0  # loopback is instant


def test_bandwidth_serializes_a_link():
    world = build_world(ProtocolKind.CRB_FLOOD, 2, 0,
                        net=NetParams(base_delay=0.0, bandwidth=100.0),
                        record_trace=True)
    first = WireMessage(MsgKind.ECHO, 0, 1, payload=bytes(87))   # 100 bytes
    second = WireMessage(MsgKind.ECHO, 0, 2, payload=b"")        # 13 bytes
    world.inject(0.0, 0, 1, first)
    world.inject(0.0, 0, 1, second)
    world.run()
    times = [t for t, _, _ in _recv_times(world)]
    assert times == [pytest.approx(1.0), pytest.approx(1.13)]


def test_source_bandwidth_caps_only_broadcasting_sources():
    capped = build_world(ProtocolKind.CRB_FLOOD, 2, 0,
                         net=NetParams(base_delay=0.0, source_bandwidth=100.0))
    capped.broadcast(0, bytes(87), 1)
    stats = capped.run()
    # Source link transmits 100 bytes at 100 B/s; the reflood back from
    # node 1 (not a source) is unthrottled.
    assert stats.delivers[(1, 0, 1)].time == pytest.approx(1.0)
    assert stats.delivers[(0, 0, 1)].time == 0.0

    free = build_world(ProtocolKind.CRB_FLOOD, 2, 0,
                       net=NetParams(base_delay=0.0))
    free.broadcast(0, bytes(87), 1)
    assert free.run().delivers[(1, 0, 1)].time == 0.0


def test_link_fifo_never_reorders():
    world = build_world(ProtocolKind.CRB_FLOOD, 2, 0,
                        net=NetParams(base_delay=0.0), record_trace=True)
    slow = WireMessage(MsgKind.ECHO, 0, 1, payload=b"slow")
    fast = WireMessage(MsgKind.ECHO, 0, 2, payload=b"fast")
    world.inject(0.0, 0, 1, slow, delay=10.0)
    world.inject(1.0, 0, 1, fast, delay=0.0)
    world.run()
    rows = [row for row in world.trace if row.event == "recv"]
    assert [row.h for row in rows] == [1, 2]
    assert [row.time for row in rows] == [10.0, 10.0]


def test_perturbed_link_stretches_delay():
    world = build_world(ProtocolKind.CRB_FLOOD, 2, 0, net=NetParams(base_delay=0.1))
    stretch_link(world, 0, 1)
    world.broadcast(0, b"m", 1)
    stats = world.run()
    assert stats.delivers[(1, 0, 1)].time == pytest.approx(20.0)


def test_jitter_is_seeded_and_deterministic():
    def trace_for(seed):
        world = build_world(ProtocolKind.BRACHA, 4, 1,
                            net=NetParams(base_delay=0.1, jitter=0.3),
                            seed=seed, record_trace=True)
        world.broadcast(0, b"jittered", 1)
        world.run()
        return world.trace

    assert trace_for(7) == trace_for(7)
    assert trace_for(7) != trace_for(8)


# -- bookkeeping -----------------------------------------------------------------

def test_conservation_and_loopback_accounting():
    world = build_world(ProtocolKind.CRB_FLOOD, 1, 0)
    world.broadcast(0, b"self", 1)
    stats = world.run()
    assert stats.total_sent_bytes() == sum(c.total() for c in stats.recv_bytes)
    assert stats.total_sent_count() == sum(c.total() for c in stats.recv_count)
    assert stats.total_sent_bytes() > 0  # loopback copies are still counted
    assert stats.delivers[(0, 0, 1)].payload == b"self"


def test_step_cap_guards_runaway_runs():
    world = build_world(ProtocolKind.BRACHA, 4, 1, max_steps=5)
    world.broadcast(0, b"too many", 1)
    with pytest.raises(StepCapExceeded):
        world.run()


def _tallied_world(faulty: bool, max_steps: int = 1_000_000):
    world = build_world(ProtocolKind.EC_BRB_3F1, 7, 2, seed=11, record_trace=True,
                        net=NetParams(base_delay=1.0, jitter=0.5), max_steps=max_steps)
    if faulty:
        world.attach_adversary(6, CorruptRelay(seed=11))
    rng = random.Random(11)
    for h in range(1, 5):
        world.broadcast(h % 3, rng.randbytes(300), h, at=0.4 * h)
    return world


def _drain_in_slices(world, width: float = 0.7) -> None:
    until = 0.0
    while not world.quiescent():
        until += width
        world.run(until=until)


def _trace_tallies(world, by: str):
    """Per node, kind -> (rows, bytes) of the trace's recv rows, grouped by
    the receiving node (``by="node"``) or the sender (``by="frm"``)."""
    count = [Counter() for _ in range(world.n)]
    size = [Counter() for _ in range(world.n)]
    for row in world.trace:
        if row.event == "recv":
            node = getattr(row, by)
            count[node][MsgKind[row.kind]] += 1
            size[node][MsgKind[row.kind]] += row.size
    return count, size


@pytest.mark.parametrize("sliced", [False, True], ids=["straight", "sliced"])
@pytest.mark.parametrize("faulty", [False, True], ids=["honest", "corrupt-relay"])
def test_tallies_and_event_count_match_the_trace(faulty, sliced):
    world = _tallied_world(faulty)
    if sliced:
        _drain_in_slices(world)
    else:
        world.run()
    assert world.quiescent()
    stats = world.stats
    recv_count, recv_bytes = _trace_tallies(world, "node")
    assert stats.recv_count == recv_count and stats.recv_bytes == recv_bytes
    # Quiescent: every copy sent was received, so the senders' side matches too.
    sent_count, sent_bytes = _trace_tallies(world, "frm")
    assert stats.sent_count == sent_count and stats.sent_bytes == sent_bytes
    assert sum(map(len, recv_count)) > 7  # several kinds at several nodes
    # An event is a receive or a broadcast; each leaves one trace row.
    assert stats.events_processed == sum(row.event in ("recv", "bcast")
                                         for row in world.trace)
    views = (stats.sent_count, stats.sent_bytes, stats.recv_count, stats.recv_bytes)
    for view in views:
        assert all(type(kind) is MsgKind and value > 0
                   for counter in view for kind, value in counter.items())
    for view in views:
        view[0][MsgKind.MSG] += 100
        view[1][MsgKind.HASH_RB] = 0
    assert (stats.sent_count, stats.sent_bytes, stats.recv_count, stats.recv_bytes) \
        == (sent_count, sent_bytes, recv_count, recv_bytes)


@pytest.mark.parametrize("faulty", [False, True], ids=["honest", "corrupt-relay"])
def test_a_tripped_step_cap_counts_the_events_processed(faulty):
    world = _tallied_world(faulty, max_steps=60)
    world.run(until=1.0)
    before = world.stats.events_processed
    assert 0 < before < 60
    with pytest.raises(StepCapExceeded):
        world.run()
    # The cap holds per run call; the event that tripped it is not processed.
    assert world.stats.events_processed == before + 60
    assert sum(row.event in ("recv", "bcast") for row in world.trace) == before + 60
    recv_count, _ = _trace_tallies(world, "node")
    assert world.stats.recv_count == recv_count


def test_a_capped_world_resumes_as_if_never_capped():
    def world_and_run(max_steps):
        world = build_world(ProtocolKind.BRACHA, 4, 1, seed=4, record_trace=True,
                            net=NetParams(base_delay=1.0, jitter=0.5), max_steps=max_steps)
        world.broadcast(0, b"capped", 1)
        world.broadcast(2, b"resumed", 1, at=0.3)
        trips = 0
        while True:
            try:
                world.run()
                return world, trips
            except StepCapExceeded:
                trips += 1

    uncapped, _ = world_and_run(1_000_000)
    capped, trips = world_and_run(5)
    # Every run call stops before the event that would exceed the cap.
    assert trips == (uncapped.stats.events_processed - 1) // 5
    assert capped.stats.events_processed == uncapped.stats.events_processed == 74
    assert capped.trace == uncapped.trace
    assert capped.stats.delivers == uncapped.stats.delivers
    assert check_broadcast_properties(capped) == []


class _CollectionWatch:
    """Counts collections the cyclic collector starts, and makes each step
    of every automaton in ``world`` allocate cyclic garbage, so that an
    unpaused collector would run several times during a run."""

    def __init__(self, world):
        self.starts = 0
        self.seen_at_step: list[int] = []
        for automaton in world.automata:
            def step(event, real=automaton.step):
                self.seen_at_step.append(self.starts)
                for _ in range(50):
                    loop = []
                    loop.append(loop)
                return real(event)
            automaton.step = step

    def __call__(self, phase, info):
        if phase == "start":
            self.starts += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


@pytest.mark.parametrize("collecting", [True, False])
def test_run_starts_no_collection_and_restores_the_collector(collecting):
    world = build_world(ProtocolKind.BRACHA, 7, 2)
    for h in range(1, 11):
        world.broadcast(h % 7, b"gc", h)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with _CollectionWatch(world) as watch:
            world.run()
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert check_broadcast_properties(world) == []
    assert len(watch.seen_at_step) > 1000    # about 50 000 cycles made in the run
    assert len(set(watch.seen_at_step)) == 1, "a collection started mid-run"


def test_step_cap_restores_the_collector():
    world = build_world(ProtocolKind.BRACHA, 4, 1, max_steps=5)
    world.broadcast(0, b"too many", 1)
    assert gc.isenabled()
    with _CollectionWatch(world) as watch, pytest.raises(StepCapExceeded):
        world.run()
    assert gc.isenabled()
    assert len(set(watch.seen_at_step)) == 1


def test_causal_depth_and_deliveries():
    world = build_world(ProtocolKind.CRB_FLOOD, 3, 0)
    world.broadcast(0, b"one hop", 1)
    stats = world.run()
    for node in range(3):
        assert causal_depth(stats, 0, 1, node) == 1
    assert {(s, h) for (i, s, h) in stats.delivers if i == 2} == {(0, 1)}
    with pytest.raises(NotDelivered):
        causal_depth(stats, 0, 99, 0)


class _DeliversTwice:
    """A stub node: multicasts a broadcast request's payload, and answers
    each receive by delivering it twice."""

    f = 1

    def step(self, event):
        if type(event) is BroadcastRequest:
            return [Multicast(WireMessage(MsgKind.MSG, 0, event.h, payload=event.payload))]
        msg = event.msg
        return [Deliver(msg.source, msg.payload, msg.h)] * 2


def test_only_an_honest_node_delivering_twice_breaks_integrity():
    world = SimWorld([_DeliversTwice(), _DeliversTwice()])
    world.attach_adversary(1, Strategy())
    world.broadcast(0, b"twice", 1)
    world.run()
    assert sorted(world.stats.double_deliveries) == [(0, 0, 1), (1, 0, 1)]
    assert world.stats.delivers[(0, 0, 1)].payload == b"twice"
    assert check_broadcast_properties(world) == ["integrity: node 0 delivered (0, 1) twice"]


def test_trace_field_order_is_stable():
    assert TraceRow._fields == ("index", "time", "event", "node", "frm",
                                "kind", "source", "h", "size", "depth")
    world = build_world(ProtocolKind.CRB_FLOOD, 2, 0, record_trace=True)
    world.broadcast(0, b"t", 1)
    world.run()
    first = world.trace[0]
    assert first.event == "bcast" and first.index == 0
    assert len(first) == len(TraceRow._fields)


def test_scheduling_before_the_clock_is_refused():
    # A broadcast at t = 0 after a run to t = 0.6 was once accepted, and
    # the trace's time ran back.
    world = build_world(ProtocolKind.BRACHA, 4, 1, record_trace=True)
    world.broadcast(0, b"a", 1)
    world.run()
    assert world.time == pytest.approx(0.6)
    late = WireMessage(MsgKind.ECHO, 1, 1, payload=b"b")
    with pytest.raises(ValueError, match="before the world's time"):
        world.broadcast(1, b"b", 1, at=0.0)
    with pytest.raises(ValueError, match="before the world's time"):
        world.inject(0.5, 1, 2, late)
    assert world.quiescent() and world.broadcasts == [(0, b"a", 1)]
    world.run(until=2.0)
    with pytest.raises(ValueError, match="before the world's time"):
        world.broadcast(1, b"b", 1, at=1.0)
    world.broadcast(1, b"b", 1, at=2.0)
    world.run()
    times = [row.time for row in world.trace]
    assert times == sorted(times) and times[-1] > 2.0
    assert check_broadcast_properties(world) == []


@pytest.mark.parametrize("at", [float("nan"), float("inf")])
def test_scheduling_at_a_time_that_is_not_finite_is_refused(at):
    # A broadcast at nan was once accepted, since nan < now is false, and
    # broke the queue's ordering.
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    msg = WireMessage(MsgKind.ECHO, 1, 1, payload=b"b")
    with pytest.raises(ValueError, match="must be finite"):
        world.broadcast(0, b"a", 1, at=at)
    with pytest.raises(ValueError, match="must be finite"):
        world.inject(at, 1, 2, msg)
    assert world.quiescent() and world.broadcasts == []


@pytest.mark.parametrize("delay", [-0.5, float("nan"), float("inf")])
def test_an_injected_delay_that_is_negative_or_not_finite_is_refused(delay):
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    msg = WireMessage(MsgKind.ECHO, 1, 1, payload=b"b")
    with pytest.raises(ValueError, match="must be >= 0 and finite"):
        world.inject(0.0, 1, 2, msg, delay=delay)
    assert world.quiescent()
    world.inject(0.0, 1, 2, msg, delay=0.0)
    world.run()
    assert world.time == 0.0


@pytest.mark.parametrize("delay", [-0.5, float("nan"), float("inf")])
def test_a_policy_delay_that_is_negative_or_not_finite_is_refused(delay):
    # A nan from the policy once ran the world on to time nan.
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.delay_policy = lambda src, dst, msg: delay if dst == 2 else None
    world.broadcast(0, b"a", 1)
    with pytest.raises(ValueError, match="must be >= 0 and finite"):
        world.run()
    assert world.time == 0.0


def test_truncated_run_reports_termination_violations():
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.broadcast(0, b"cut short", 1)
    world.run(until=0.05)
    violations = check_broadcast_properties(world)
    assert any(v.startswith("termination") for v in violations)


def _honest_bracha_world():
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.broadcast(0, b"all good", 1)
    world.run()
    assert len(world.stats.delivers) == 4 and check_broadcast_properties(world) == []
    return world


def test_each_broadcast_property_violation_is_reported_word_for_word():
    # Each edit of a finished honest world's records breaks the properties
    # a lost, changed, repeated or one-sided delivery breaks.
    world = _honest_bracha_world()
    del world.stats.delivers[(2, 0, 1)]
    assert check_broadcast_properties(world) == [
        "termination: node 2 never delivered (0, 1)",
        "totality: nodes [2] missed (0, 1) delivered elsewhere",
    ]
    world = _honest_bracha_world()
    world.stats.delivers[(3, 0, 1)].payload = b"all bad!"
    assert check_broadcast_properties(world) == [
        "validity: node 3 delivered a different payload for (0, 1)",
        "agreement: honest nodes delivered 2 payloads for (0, 1)",
    ]
    world = _honest_bracha_world()
    world.stats.double_deliveries.append((1, 0, 1))
    assert check_broadcast_properties(world) == [
        "integrity: node 1 delivered (0, 1) twice",
    ]
    # A faulty source owes no termination, but a delivery still owes totality.
    world = _honest_bracha_world()
    world.attach_adversary(0, Silent())
    del world.stats.delivers[(1, 0, 1)]
    assert check_broadcast_properties(world) == [
        "totality: nodes [1] missed (0, 1) delivered elsewhere",
    ]

CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "tables"


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class _Bookkeeping:
    """Counts the simulator's own sizing and the SHA-256 runs its calls to
    ``hashing.digest`` cause during a run, and records every emitted
    message with its recipients to recompute the ACC digests from scratch."""

    def __init__(self, monkeypatch):
        self.sizers: list[str] = []
        self.emits: list[tuple[int, tuple[int, ...], WireMessage]] = []
        real_size, real_digest, real_emit = simnet.envelope_size, hashing.digest, SimWorld._emit
        in_simulator = False

        def size(msg):
            self.sizers.append(sys._getframe(1).f_code.co_name)
            return real_size(msg)

        def digest(data):
            nonlocal in_simulator
            in_simulator = sys._getframe(1).f_code.co_filename == simnet.__file__
            try:
                return real_digest(data)
            finally:
                in_simulator = False

        def emit(world, frm, recipients, msg, *args, **kwargs):
            self.emits.append((frm, tuple(recipients), msg))
            return real_emit(world, frm, recipients, msg, *args, **kwargs)

        self._sha256 = count_sha256_runs(monkeypatch, lambda: in_simulator)
        monkeypatch.setattr(simnet, "envelope_size", size)
        monkeypatch.setattr(hashing, "digest", digest)
        monkeypatch.setattr(SimWorld, "_emit", emit)

    @property
    def sim_digests(self) -> int:
        return self._sha256.runs

    @property
    def sent(self) -> list[tuple[int, WireMessage]]:
        """Every copy sent, as (sender, message)."""
        return [(frm, msg) for frm, recipients, msg in self.emits for _ in recipients]

    def distinct_sent(self) -> int:
        return len({id(msg) for _, _, msg in self.emits})

    def acc_digests_by_rehashing(self) -> dict:
        expected: dict = {}
        for frm, msg in self.sent:
            if msg.kind is MsgKind.ACC:
                d = msg.digest if msg.digest is not None \
                    else _sha256(msg.payload or b"")
                expected.setdefault((msg.source, msg.h), {}).setdefault(frm, set()).add(d)
        return expected


def test_each_sent_message_is_sized_and_hashed_once(monkeypatch):
    n = 19
    book = _Bookkeeping(monkeypatch)
    world = build_world(ProtocolKind.BRACHA, n, 6)
    payload = random.Random(19).randbytes(64 * 1024)
    world.broadcast(0, payload, 1)
    stats = world.run()
    assert check_broadcast_properties(world) == []
    receives = sum(c.total() for c in stats.recv_count)
    assert receives == len(book.sent) == n + 2 * n * n
    assert set(book.sizers) == {"_emit"}          # never at receive
    assert len(book.sizers) == len(book.emits)    # once per emitted message
    assert len(book.emits) == book.distinct_sent() == 1 + 2 * n  # one per multicast
    assert all(recipients == tuple(range(n)) for _, recipients, _ in book.emits)
    assert book.sim_digests == 1                  # one ACC payload for the whole wave
    assert stats.acc_digests == book.acc_digests_by_rehashing()
    assert stats.acc_digests == {(0, 1): {i: {_sha256(payload)} for i in range(n)}}


class _CountingDict(dict):
    """A dict that counts the lookups made through ``get`` and indexing."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_each_emit_looks_its_depth_row_up_once_and_queues_one_packet(monkeypatch):
    # The world of the sizing test above. A receive reads its recipient's
    # depth from the packet its copy shares with the rest of the emit, so
    # the depth rows are looked up once per emit, not once per copy.
    n = 19
    book = _Bookkeeping(monkeypatch)
    world = build_world(ProtocolKind.BRACHA, n, 6)
    world._ctx = rows = _CountingDict()
    queued = []  # per emit, the packets of the copies it queued
    real_emit = world._emit

    def emit(frm, recipients, msg, depth, forced_delay=None):
        before = set(map(id, world._queue))
        real_emit(frm, recipients, msg, depth, forced_delay)
        queued.append([entry[3] for entry in world._queue if id(entry) not in before])

    world._emit = emit
    world.broadcast(0, random.Random(19).randbytes(64 * 1024), 1)
    world.run()
    assert check_broadcast_properties(world) == []
    assert len(book.emits) == len(queued) == 1 + 2 * n
    assert rows.lookups == len(book.emits)
    assert list(rows) == [(0, 1)]
    assert all(len(packets) == n and all(p is packets[0] for p in packets)
               for packets in queued)


@pytest.mark.parametrize("kind", [ProtocolKind.BRACHA, ProtocolKind.EC_CRB])
def test_each_instance_hashes_an_equal_acc_payload_once(monkeypatch, kind):
    # bracha's ACCs share one payload object. The second instance repeats
    # the first one's payload, equal bytes that the hashing memo still
    # holds, so it costs no second run. ec-crb's ACCs carry the digest its
    # decoders computed: the simulator records each as it is and hashes none.
    n = 19
    book = _Bookkeeping(monkeypatch)
    world = build_world(kind, n, 6 if kind is ProtocolKind.BRACHA else 9,
                        net=NetParams(base_delay=1.0, jitter=0.5), seed=19)
    payload = random.Random(19).randbytes(64 * 1024)
    world.broadcast(0, payload, 1)
    world.broadcast(3, payload, 1, at=100.0)
    stats = world.run()
    assert check_broadcast_properties(world) == []
    accs = [msg for _, msg in book.sent if msg.kind is MsgKind.ACC]
    assert len(accs) == 2 * n * n
    if kind is ProtocolKind.BRACHA:
        assert all(msg.payload == payload for msg in accs)
        assert len({id(msg.payload) for msg in accs}) == 1
        assert book.sim_digests == 1
    else:
        assert all(msg.payload is None and msg.digest == _sha256(payload) for msg in accs)
        assert book.sim_digests == 0
    assert stats.acc_digests == book.acc_digests_by_rehashing()
    assert stats.acc_digests == {key: {i: {_sha256(payload)} for i in range(n)}
                                 for key in [(0, 1), (3, 1)]}


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_an_honest_bulk_world_codes_and_hashes_its_payload_once(monkeypatch, kind):
    # The source's encode is the one GF product: every decoder holds shards
    # of the codeword they carry, and every node that hashes the payload
    # hashes equal bytes, so all nodes deliver the source's payload object.
    n = 19
    f = min(6, (n - 1) // RESILIENCE[kind])
    world = build_world(kind, n, f, net=NetParams(base_delay=1.0, jitter=0.5), seed=19)
    products = 0
    real_matmul = codec.gf_matmul

    def matmul(a, b):
        nonlocal products
        products += 1
        return real_matmul(a, b)

    monkeypatch.setattr(codec, "gf_matmul", matmul)
    sha256 = count_sha256_runs(monkeypatch)
    payload = random.Random(19).randbytes(64 * 1024)
    world.broadcast(3, payload, 1)
    world.run()
    assert check_broadcast_properties(world) == []
    assert products == (0 if world.automata[0].params is None else 1)
    assert sha256.runs <= 1
    delivered = [rec.payload for rec in world.stats.delivers.values()]
    assert len(delivered) == n and all(m is payload for m in delivered)


def test_a_reflood_is_sized_once_per_multicast(monkeypatch):
    # crb-flood re-multicasts the very MSG object it received: each of the
    # n refloods is one emit, sized once like any other.
    config = bench.load_config(CONFIGS / "crb-flood-fat-tree-42mbit.ini")
    config.broadcasts = 200
    book = _Bookkeeping(monkeypatch)
    row, world = bench.run_experiment(config)
    assert row["error"] == "" and check_broadcast_properties(world) == []
    assert len(book.emits) == 200 * (1 + config.n)
    assert len(book.sizers) == len(book.emits)


def test_acc_digests_survive_distinct_equal_and_corrupted_payloads(monkeypatch):
    # Every ec-crb decoder multicasts its own ACC object, with the digest of
    # what it rebuilt; a corrupt relay makes two decoders rebuild wrong
    # payloads.
    book = _Bookkeeping(monkeypatch)
    world = build_world(ProtocolKind.EC_CRB, 7, 2, seed=5,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    world.attach_adversary(6, CorruptRelay(seed=5))
    payload = random.Random(5).randbytes(700)
    world.broadcast(0, payload, 1)
    stats = world.run()
    assert stats.acc_digests == book.acc_digests_by_rehashing()
    good = _sha256(payload)
    assert sorted(i for i, ds in stats.acc_digests[(0, 1)].items() if ds == {good}) \
        == [1, 2, 3, 4, 6]
    assert check_acc_consistency(world) == [
        "acc-consistency: nodes 0 and 1 vouched for different digests of (0, 1)",
        "acc-consistency: nodes 0 and 5 vouched for different digests of (0, 1)",
    ]
    # The ACCs carry digests, so the simulator hashes none of them.
    assert book.sim_digests == 0
    assert set(book.sizers) == {"_emit"}
    assert len(book.sizers) == len(book.emits)    # once per emitted message
    assert book.distinct_sent() < len(book.sent)


def test_acc_consistency_reports_each_disagreement_once():
    d1, d2 = _sha256(b"one"), _sha256(b"two")
    # The first honest voter vouches for two digests: one report, not a
    # second that pairs the node with itself.
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.stats.vouch(0, 1, 0, d1)
    world.stats.vouch(0, 1, 0, d2)
    assert check_acc_consistency(world) == [
        "acc-consistency: node 0 vouched for 2 digests of (0, 1)",
    ]
    # Two nodes, one digest each.
    pair = build_world(ProtocolKind.BRACHA, 4, 1)
    pair.stats.vouch(0, 1, 0, d1)
    pair.stats.vouch(0, 1, 1, d2)
    assert check_acc_consistency(pair) == [
        "acc-consistency: nodes 0 and 1 vouched for different digests of (0, 1)",
    ]
    # A later voter that vouches for a digest no earlier voter did is
    # reported once against an earlier one, whatever else it vouched for.
    world.stats.vouch(0, 1, 1, d1)
    world.stats.vouch(0, 1, 2, d2)
    world.stats.vouch(0, 1, 3, _sha256(b"three"))
    world.stats.vouch(0, 1, 3, _sha256(b"four"))
    assert check_acc_consistency(world) == [
        "acc-consistency: node 0 vouched for 2 digests of (0, 1)",
        "acc-consistency: node 3 vouched for 2 digests of (0, 1)",
        "acc-consistency: nodes 0 and 3 vouched for different digests of (0, 1)",
    ]


class _Unhashable(bytes):
    __hash__ = None


def test_agreement_check_hashes_payloads_only_to_count_a_disagreement():
    # The corrupt-relay ec-crb world above: nodes 0 and 5 rebuild two
    # different wrong payloads, and the other honest nodes deliver the
    # source's payload object.
    world = build_world(ProtocolKind.EC_CRB, 7, 2, seed=5,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    world.attach_adversary(6, CorruptRelay(seed=5))
    payload = random.Random(5).randbytes(700)
    world.broadcast(0, payload, 1)
    world.run()
    delivers = world.stats.delivers
    wrong = {i: delivers[(i, 0, 1)].payload for i in (0, 5)}
    assert len({payload, *wrong.values()}) == 3
    assert check_broadcast_properties(world) == [
        "validity: node 0 delivered a different payload for (0, 1)",
        "validity: node 5 delivered a different payload for (0, 1)",
        "agreement: honest nodes delivered 3 payloads for (0, 1)",
    ]
    delivers[(5, 0, 1)].payload = bytes(bytearray(wrong[0]))
    assert check_broadcast_properties(world)[-1] == \
        "agreement: honest nodes delivered 2 payloads for (0, 1)"
    # Equal payloads that are distinct objects, and that cannot be hashed.
    for i in world.honest:
        delivers[(i, 0, 1)].payload = _Unhashable(payload)
    assert len({id(delivers[(i, 0, 1)].payload) for i in world.honest}) == 6
    assert check_broadcast_properties(world) == []


def test_nested_multicast_is_tunneled_once(monkeypatch):
    # ec-brb-4f1 wraps each nested-broadcast multicast in HASH_RB envelopes:
    # one encoding and one object per multicast, not one per copy.
    n = 13
    book = _Bookkeeping(monkeypatch)
    encoded = []
    real_encode = ecbrb.encode_envelope

    def encode(msg):
        encoded.append(msg.kind)
        return real_encode(msg)

    monkeypatch.setattr(ecbrb, "encode_envelope", encode)
    world = build_world(ProtocolKind.EC_BRB_4F1, n, 3, seed=13,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    world.broadcast(0, random.Random(13).randbytes(4096), 1)
    world.run()
    assert check_broadcast_properties(world) == []
    assert len(encoded) <= 1 + 2 * n              # one MSG, then one ECHO and one ACC per node
    tunneled = [(frm, recipients) for frm, recipients, msg in book.emits
                if msg.kind is MsgKind.HASH_RB]
    assert len(tunneled) == len(encoded)          # one outer multicast per encoding
    assert all(recipients == tuple(range(n)) for _, recipients in tunneled)
    # Equal copies are one object, so they are sized once.
    assert len(book.sizers) == len(book.emits) == book.distinct_sent()


def test_each_distinct_tunneled_envelope_is_parsed_once_per_node(monkeypatch):
    # Of an honest broadcast's 1 + 2n tunneled multicasts a node receives
    # three distinct envelopes: the nested MSG and the ECHO and ACC of its
    # digest. Parsing every copy would cost 1 + 2n = 11 per node.
    n = 5
    world = build_world(ProtocolKind.EC_BRB_4F1, n, 1, seed=5,
                        net=NetParams(base_delay=1.0, jitter=0.5))
    current, parses = [None], [0] * n
    for node, automaton in enumerate(world.automata):
        def step(event, node=node, real=automaton.step):
            current[0] = node
            return real(event)
        automaton.step = step
    real_decode = ecbrb.decode_envelope

    def decode(buf):
        parses[current[0]] += 1
        return real_decode(buf)

    monkeypatch.setattr(ecbrb, "decode_envelope", decode)
    world.broadcast(0, random.Random(5).randbytes(1024), 1)
    world.run()
    assert check_broadcast_properties(world) == []
    assert sum(c[MsgKind.HASH_RB] for c in world.stats.recv_count) == n * (1 + 2 * n)
    assert max(parses) <= 3, parses
    # Every node closed the instance; no parse is kept on its record.
    assert all(type(a.instances[(0, 1)]) is Closed for a in world.automata)


@pytest.mark.parametrize("faulty", [(), (0, 3, 5)])
def test_copies_of_a_multicast_share_one_receive_event(faulty):
    # A corrupt relay expands its node's multicasts to one Send per
    # recipient; in bracha it finds no element to corrupt, so its Sends
    # still go out as one message.
    n = 7
    world = build_world(ProtocolKind.BRACHA, n, 2, net=NetParams(base_delay=1.0, jitter=0.5))
    for node in faulty:
        world.attach_adversary(node, CorruptRelay(), allow_overfault=True)
    received = []  # (recipient, event) for every step the simulator runs
    for node, automaton in enumerate(world.automata):
        def step(event, node=node, real=automaton.step):
            received.append((node, event))
            return real(event)
        automaton.step = step
    world.broadcast(0, b"shared", 1)
    world.run()
    assert check_broadcast_properties(world) == []
    by_msg = {}
    for node, event in received:
        if isinstance(event, Receive):
            by_msg.setdefault(id(event.msg), []).append((node, event))
    assert len(by_msg) == 1 + 2 * n                # one message object per multicast
    for copies in by_msg.values():
        assert sorted(node for node, _ in copies) == list(range(n))
        assert len({id(event) for _, event in copies}) == 1


@pytest.mark.parametrize("kind, n", [(ProtocolKind.H_BRB_3F1, 4), (ProtocolKind.EC_BRB_4F1, 5)])
def test_a_req_fan_out_is_one_emit(kind, n):
    # The source's link to node 1 is slow, so node 1 learns the digest from
    # votes first and asks their senders for the payload: one REQ message,
    # emitted once to all of them.
    world = build_world(kind, n, 1, net=NetParams(base_delay=1.0))
    stretch_link(world, 0, 1)
    emits = []  # (sender, recipients, message) per emit
    real_emit = world._emit

    def emit(frm, recipients, msg, depth, forced_delay=None):
        emits.append((frm, list(recipients), msg))
        real_emit(frm, recipients, msg, depth, forced_delay)

    world._emit = emit
    world.broadcast(0, bytes(range(100)), 1)
    stats = world.run()
    assert check_broadcast_properties(world) == []
    backers = 2 if kind is ProtocolKind.H_BRB_3F1 else n - 1   # f+1, or the n-f ACCs
    assert [(frm, len(recipients)) for frm, recipients, msg in emits
            if msg.kind is MsgKind.REQ] == [(1, backers)]
    assert stats.total_sent_count(MsgKind.REQ) == backers
