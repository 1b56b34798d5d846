"""Discrete-event network: topologies, delay model, stats, determinism."""
import gc
import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import stretch_link
from rblab import bench, hashing, simnet
from rblab.adversary import CorruptRelay, build_world
from rblab.core import Closed, MsgKind, Receive, WireMessage
from rblab.protocols import ProtocolKind, ecbrb
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
    run,
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
    topo = Topology(TopologyKind.TREE, depth=3, fanout=2)
    assert topo.hop(0, 1) == 2   # same leaf switch
    assert topo.hop(0, 2) == 4   # one level up
    assert topo.hop(0, 7) == 6   # through the root
    with pytest.raises(InvalidTopology):
        topo.validate(9)            # 2^3 hosts max
    with pytest.raises(InvalidTopology):
        Topology(TopologyKind.TREE, depth=0, fanout=2).validate(1)


def test_fat_tree_hops():
    topo = Topology(TopologyKind.FAT_TREE, fanout=2)
    assert topo.hop(0, 1) == 2   # same edge switch
    assert topo.hop(0, 2) == 4   # across the spine
    solo = Topology(TopologyKind.FAT_TREE, fanout=1)
    assert all(solo.hop(i, j) == 4 for i in range(4) for j in range(4)
               if i != j)
    with pytest.raises(InvalidTopology):
        Topology(TopologyKind.FAT_TREE, fanout=0).validate(2)


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
        return [row.as_tuple() for row in world.trace]

    assert trace_for(7) == trace_for(7)
    assert trace_for(7) != trace_for(8)


# -- bookkeeping -----------------------------------------------------------------

def test_conservation_and_loopback_accounting():
    world = build_world(ProtocolKind.CRB_FLOOD, 1, 0)
    world.broadcast(0, b"self", 1)
    stats = world.run()
    assert stats.total_sent_bytes() == stats.total_recv_bytes()
    assert stats.total_sent_count() == stats.total_recv_count()
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
    assert [row.as_tuple() for row in capped.trace] \
        == [row.as_tuple() for row in uncapped.trace]
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
    stats = run(world, [(0.0, 0, b"one hop", 1)])
    for node in range(3):
        assert causal_depth(stats, 0, 1, node) == 1
    assert {(s, h) for (i, s, h) in stats.delivers if i == 2} == {(0, 1)}
    with pytest.raises(NotDelivered):
        causal_depth(stats, 0, 99, 0)


def test_module_level_run_issues_workload():
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    stats = run(world, [(0.0, 0, b"a", 1), (0.5, 1, b"b", 1)])
    assert len(stats.delivers) == 8
    assert check_broadcast_properties(world) == []
    assert world.quiescent()


def test_trace_field_order_is_stable():
    assert TraceRow.FIELDS == ("index", "time", "event", "node", "frm",
                               "kind", "source", "h", "size", "depth")
    world = build_world(ProtocolKind.CRB_FLOOD, 2, 0, record_trace=True)
    world.broadcast(0, b"t", 1)
    world.run()
    first = world.trace[0]
    assert first.event == "bcast" and first.index == 0
    assert len(first.as_tuple()) == len(TraceRow.FIELDS)


def test_truncated_run_reports_termination_violations():
    world = build_world(ProtocolKind.BRACHA, 4, 1)
    world.broadcast(0, b"cut short", 1)
    world.run(until=0.05)
    violations = check_broadcast_properties(world)
    assert any(v.startswith("termination") for v in violations)

CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "tables"


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class _Bookkeeping:
    """Counts the simulator's own sizing and hashing during a run, and
    records every emitted message with its recipients to recompute the ACC
    digests from scratch."""

    def __init__(self, monkeypatch):
        self.sizers: list[str] = []
        self.sim_digests = 0
        self.emits: list[tuple[int, tuple[int, ...], WireMessage]] = []
        real_size, real_digest, real_emit = simnet.envelope_size, hashing.digest, SimWorld._emit

        def size(msg):
            self.sizers.append(sys._getframe(1).f_code.co_name)
            return real_size(msg)

        def digest(data):
            if sys._getframe(1).f_code.co_filename == simnet.__file__:
                self.sim_digests += 1
            return real_digest(data)

        def emit(world, frm, recipients, msg, *args, **kwargs):
            self.emits.append((frm, tuple(recipients), msg))
            return real_emit(world, frm, recipients, msg, *args, **kwargs)

        monkeypatch.setattr(simnet, "envelope_size", size)
        monkeypatch.setattr(hashing, "digest", digest)
        monkeypatch.setattr(SimWorld, "_emit", emit)

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
    receives = stats.total_recv_count()
    assert receives == len(book.sent) == n + 2 * n * n
    assert set(book.sizers) == {"_emit"}          # never at receive
    assert len(book.sizers) == len(book.emits)    # once per emitted message
    assert len(book.emits) == book.distinct_sent() == 1 + 2 * n  # one per multicast
    assert all(recipients == tuple(range(n)) for _, recipients, _ in book.emits)
    assert book.sim_digests <= n                  # the ACC wave alone was n * n
    assert stats.acc_digests == book.acc_digests_by_rehashing()
    assert stats.acc_digests == {(0, 1): {i: {_sha256(payload)} for i in range(n)}}


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
    # Every ec-crb decoder multicasts its own ACC object, so equal payloads
    # arrive as distinct objects; a corrupt relay makes two decoders rebuild
    # wrong payloads.
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
    assert book.sim_digests == 7
    assert set(book.sizers) == {"_emit"}
    assert len(book.sizers) == len(book.emits) <= book.distinct_sent() < len(book.sent)


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
    assert world.stats.total_recv_count(MsgKind.HASH_RB) == n * (1 + 2 * n)
    assert max(parses) <= 3, parses
    # Every node closed the instance, and its parses went with the open record.
    assert all(type(a.instances[(0, 1)]) is Closed for a in world.automata)


def test_copies_of_a_multicast_share_one_receive_event():
    n = 7
    world = build_world(ProtocolKind.BRACHA, n, 2, net=NetParams(base_delay=1.0, jitter=0.5))
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
