"""Memory: finished worlds are freed by refcount, live ones stay small.

With the cyclic garbage collector off, dropping a world after its run must
leave nothing for ``gc.collect()`` to find. A reference cycle through an
automaton would keep every shard and decoded payload of the world alive
until a full collection happens to run, so memory would grow with the
number of finished worlds rather than stay flat.

A world that is still alive holds per-broadcast state in every automaton
and in the simulator's records; its size per broadcast is budgeted, and it
stays the same per broadcast as the stream grows, since each node closes
an instance once it is done with it and keeps only a few open.

A faulty node that repeats a message with fresh payloads must not grow what
an honest node holds, nor make it hash each copy. Its requests for
instances a node has no record of make none, nor do tunneled envelopes
that a node rejects.
"""
import dataclasses
import functools
import gc
import os
import platform
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import tracemalloc

import pytest

import rblab
from rblab import bench, hashing
from rblab.core import Instance, MsgKind, Receive, Send, WireMessage, encode_envelope
from rblab.protocols import RESILIENCE, ProtocolConfig, ProtocolKind, make_automaton
from rblab.simnet import NetParams, SimWorld, check_broadcast_properties
from test_acceptance import FAULT_MATRIX, _fault_injected_violations


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_bulk(kind: ProtocolKind) -> list[str]:
    """One honest 64 KiB broadcast at n=19 and the largest f up to 6."""
    n = 19
    f = min(6, (n - 1) // RESILIENCE[kind])
    world = SimWorld([make_automaton(ProtocolConfig(kind, n, f, node=i)) for i in range(n)],
                     net=NetParams(base_delay=1.0, jitter=0.5), seed=19)
    world.broadcast(3, random.Random(19).randbytes(64 * 1024), 1)
    world.run()
    return check_broadcast_properties(world)


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
def test_bulk_world_is_freed_by_refcount(kind):
    with collector_off():
        assert run_bulk(kind) == []
        assert gc.collect() == 0


@pytest.mark.parametrize("strategy", ["silent", "crash", "equivocate", "corrupt-relay"])
def test_fault_matrix_worlds_are_freed_by_refcount(strategy):
    left = {}
    with collector_off():
        for kind, strategies in FAULT_MATRIX:
            if strategy not in strategies:
                continue
            for f in (1, 2):
                assert _fault_injected_violations(kind, f, strategy, 0) == []
                left[(kind.value, f)] = gc.collect()
    assert left and set(left.values()) == {0}, left


def test_a_world_dropped_with_queued_calls_is_freed_by_refcount():
    # A queued broadcast or injection holds an unbound method and its
    # arguments, not the world it will run in.
    n = 4
    with collector_off():
        world = SimWorld([make_automaton(ProtocolConfig(ProtocolKind.BRACHA, n, 1, node=i))
                          for i in range(n)])
        world.broadcast(0, b"early", 1)
        world.broadcast(1, b"late", 1, at=5.0)
        world.inject(6.0, 2, 3, WireMessage(MsgKind.ECHO, 1, 1, payload=b"late"))
        world.run(until=1.0)
        assert len(world._queue) == 2
        del world
        assert gc.collect() == 0


# Bytes a finished world holds per broadcast beyond its schedule
# (tracemalloc), for the five stream configs at 300 x 1 KiB broadcasts:
# 1.25x a measured 1.55 KiB (crb-flood), 1.71 (bracha), 2.28 (h-brb-3f1),
# 2.22 (ec-brb-3f1) and 2.46 (ec-brb-4f1), rounded up. Before nodes closed
# their instances, the same reading was 3.07, 7.09, 7.09, 17.49 and 23.94
# KiB; before coded nodes delivered the payload of the codeword their
# elements carry, each decoding its own copy, ec-brb-3f1 read 7.75 and
# ec-brb-4f1 8.48; the budgets were then 1.25x 2.05, 2.25, 2.66, 2.59 and
# 2.84; before the simulator kept one causal-depth row per instance in
# place of an entry per node and instance, it read 1.93, 2.08, 2.66, 2.59
# and 2.84. What is left is mostly the run's output: delivery records, the
# depth row per instance, and a closed record per node and instance. In an
# honest run every node delivers the source's payload object.
HELD_BUDGET_KIB = {"crb-flood": 2.0, "bracha": 2.2, "h-brb-3f1": 2.9,
                   "ec-brb-3f1": 2.8, "ec-brb-4f1": 3.1}
# The most instances open at one node when a broadcast starts: the shipped
# configs peak at 7 (bracha, h-brb-3f1, ec-brb-3f1), 0 (crb-flood) and 16
# (ec-brb-4f1: 9 plus 7 nested). An instance that never closed would pile
# up past this.
OPEN_BOUND = 20
CONFIGS = Path(__file__).resolve().parent.parent / "configs" / "tables"


def _open_records(automaton) -> int:
    count = sum(type(rec) is Instance for rec in automaton.instances.values())
    inner = getattr(automaton, "inner", None)
    return count if inner is None else count + _open_records(inner)


def _stream_world(kind: str, broadcasts: int):
    """A stream world of ``broadcasts`` x 1 KiB, scheduled but not run."""
    config = dataclasses.replace(bench.load_config(CONFIGS / f"{kind}-fat-tree-42mbit.ini"),
                                 broadcasts=broadcasts)
    world = bench.build_experiment(config)
    schedule = bench._workload(config)
    for at, source, payload, h in schedule:
        world.broadcast(source, payload, h, at=at)
    return world, [at for at, *_ in schedule]


@functools.cache
def stream_reading(kind: str, broadcasts: int) -> tuple[float, int]:
    """KiB a stream world of ``broadcasts`` x 1 KiB holds per broadcast once
    run, beyond its schedule, and the most instances open at one node at
    any tenth broadcast's start. A short run first pays one-time costs,
    and a full collection before each reading empties the interpreter's
    free lists, whose blocks tracemalloc would count as held."""
    _stream_world(kind, 10)[0].run()
    world, schedule = _stream_world(kind, broadcasts)
    peak = 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for at in schedule[::10]:
            world.run(until=at)
            peak = max(peak, max(map(_open_records, world.automata)))
        world.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not any(map(_open_records, world.automata))  # every instance closed
    assert check_broadcast_properties(world) == []
    assert len(world.stats.delivers) == broadcasts * world.n
    return held / broadcasts / 1024, peak


@pytest.mark.parametrize("kind", sorted(HELD_BUDGET_KIB))
def test_held_state_per_broadcast_is_within_budget(kind):
    assert stream_reading(kind, 300)[0] < HELD_BUDGET_KIB[kind]


@pytest.mark.parametrize("kind", sorted(HELD_BUDGET_KIB))
def test_long_stream_holds_the_same_per_broadcast_and_few_open_instances(kind):
    short, _ = stream_reading(kind, 300)
    long, peak = stream_reading(kind, 1200)
    assert abs(long / short - 1) <= 0.10, (short, long)
    assert peak <= OPEN_BOUND


HEAP_CHURN = """
import resource
import rblab.simnet

def churn():
    blocks = [bytearray(900_000) for _ in range(4)]
    del blocks

big = bytearray(1 << 20)  # lifts glibc's sliding mmap threshold to 1 MiB
del big
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_freed_heap_is_reused_not_refaulted():
    # Four 0.9 MB blocks freed together leave 3.6 MB at the top of the
    # heap, past glibc's sliding trim threshold; were it given back to the
    # OS, each of the five rounds would fault over 600 pages in again.
    src = str(Path(rblab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", HEAP_CHURN], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 200


# Each case: the protocol, the messages node 0 takes first, the faulty
# sender, and the message it then repeats with a fresh 1 KiB payload each
# time (instance (3, 1), n=9, f=2). Only the first vote or MSG may count.
# In the "-fwd" cases node 6 was never asked for a payload, so its FWDs are
# unsolicited; in the "-asked" cases node 0 asks node 6 for the payload of
# HONEST_DIGEST, and only node 6's first FWD may be hashed. h-brb-3f1 asks at
# f+1 ACCs; ec-brb-4f1 asks at n-f ACCs for the digest its nested broadcast
# endorsed, here with n-f nested ACCs. The ec-brb-4f1 FWDs also name the
# digest, a field no honest FWD carries and the receiver does not read.
HONEST_MSG = (3, WireMessage(MsgKind.MSG, 3, 1, payload=b"honest"))
HONEST_DIGEST = hashing.digest(b"honest")
HONEST_ACCS = [(j, WireMessage(MsgKind.ACC, 3, 1, digest=HONEST_DIGEST)) for j in range(7)]
NESTED_ACC = WireMessage(MsgKind.HASH_RB, 3, 1, payload=encode_envelope(
    WireMessage(MsgKind.ACC, 3, 1, payload=HONEST_DIGEST, instance="hash-rb")))


def _fwd_naming_digest(m):
    return WireMessage(MsgKind.FWD, 3, 1, payload=m, digest=HONEST_DIGEST)


FLOODS = {
    "bracha-echo": (ProtocolKind.BRACHA, [HONEST_MSG], 6,
                    lambda m: WireMessage(MsgKind.ECHO, 3, 1, payload=m)),
    "bracha-acc": (ProtocolKind.BRACHA, [HONEST_MSG], 6,
                   lambda m: WireMessage(MsgKind.ACC, 3, 1, payload=m)),
    "bracha-msg": (ProtocolKind.BRACHA, [], 3,
                   lambda m: WireMessage(MsgKind.MSG, 3, 1, payload=m)),
    "h-brb-3f1-msg": (ProtocolKind.H_BRB_3F1, [], 3,
                      lambda m: WireMessage(MsgKind.MSG, 3, 1, payload=m)),
    "h-brb-3f1-fwd": (ProtocolKind.H_BRB_3F1, [HONEST_MSG], 6,
                      lambda m: WireMessage(MsgKind.FWD, 3, 1, payload=m)),
    "h-brb-3f1-asked": (ProtocolKind.H_BRB_3F1, HONEST_ACCS[4:7], 6,
                        lambda m: WireMessage(MsgKind.FWD, 3, 1, payload=m)),
    "ec-brb-4f1-fwd": (ProtocolKind.EC_BRB_4F1, HONEST_ACCS[1:2], 6, _fwd_naming_digest),
    "ec-brb-4f1-asked": (ProtocolKind.EC_BRB_4F1,
                         [(j, NESTED_ACC) for j in range(7)] + HONEST_ACCS, 6, _fwd_naming_digest),
}


@pytest.mark.parametrize("case", sorted(FLOODS))
def test_repeated_byzantine_messages_are_neither_held_nor_hashed(case, monkeypatch):
    kind, prime, frm, make = FLOODS[case]
    hashed = []
    real_digest = hashing.digest

    def counting_digest(data):
        hashed.append(len(data))
        return real_digest(data)

    monkeypatch.setattr(hashing, "digest", counting_digest)
    held = {}
    for count in (1_000, 10_000):
        node = make_automaton(ProtocolConfig(kind, 9, 2, node=0))
        hashed.clear()
        sent = []
        for j, msg in prime:
            sent += node.step(Receive(j, msg))
        if case.endswith("-asked"):
            assert Send(frm, WireMessage(MsgKind.REQ, 3, 1, digest=HONEST_DIGEST)) in sent
        rng = random.Random(count)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(count):
                node.step(Receive(frm, make(rng.randbytes(1024))))
            held[count] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(hashed) <= 1, (count, len(hashed))
    # Ten times the messages hold no more: at most the first one's state.
    assert held[10_000] - held[1_000] < 1024 and held[1_000] < 4096, held


# Tunneled envelopes that ec-brb-4f1 rejects, for fresh instance (3, h):
# garbage, a nested envelope one byte too long, one without the nested
# broadcast's tag, and one for another (s, h).
BAD_TUNNELS = [
    lambda rng, h: rng.randbytes(1024),
    lambda rng, h: encode_envelope(WireMessage(MsgKind.MSG, 3, h, payload=rng.randbytes(33),
                                               instance="hash-rb")),
    lambda rng, h: encode_envelope(WireMessage(MsgKind.MSG, 3, h, payload=rng.randbytes(32))),
    lambda rng, h: encode_envelope(WireMessage(MsgKind.ECHO, 2, h + 1, payload=rng.randbytes(32),
                                               instance="hash-rb")),
]


def test_rejected_tunneled_envelopes_make_no_records():
    held = {}
    for count in (1_000, 10_000):
        node = make_automaton(ProtocolConfig(ProtocolKind.EC_BRB_4F1, 9, 2, node=0))
        rng = random.Random(count)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for h in range(1, count + 1):
                envelope = BAD_TUNNELS[h % len(BAD_TUNNELS)](rng, h)
                msg = WireMessage(MsgKind.HASH_RB, 3, h, payload=envelope)
                assert node.step(Receive(6, msg)) == []
            held[count] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert node.instances == {} and node.inner.instances == {}
    # Ten times the envelopes hold no more: at most a full parse cache.
    assert held[10_000] - held[1_000] < 1024 and held[1_000] < 32 * 1024, held


def test_tunneled_messages_the_nested_broadcast_drops_make_no_records():
    # Each envelope parses, but its nested MSG of source 4 comes from node 2,
    # so the nested broadcast drops it.
    node = make_automaton(ProtocolConfig(ProtocolKind.EC_BRB_4F1, 5, 1, node=0))
    rng = random.Random(5)
    for h in range(1, 10_001):
        nested = WireMessage(MsgKind.MSG, 4, h, payload=rng.randbytes(32), instance="hash-rb")
        msg = WireMessage(MsgKind.HASH_RB, 4, h, payload=encode_envelope(nested))
        assert node.step(Receive(2, msg)) == []
    assert node.instances == {} and node.inner.instances == {}


@pytest.mark.parametrize("kind", [ProtocolKind.H_BRB_3F1, ProtocolKind.EC_BRB_4F1],
                         ids=lambda kind: kind.value)
def test_requests_for_unknown_instances_make_no_records(kind):
    node = make_automaton(ProtocolConfig(kind, 9, 2, node=0))
    for h in range(1, 10_001):
        assert node.step(Receive(6, WireMessage(MsgKind.REQ, 3, h, digest=HONEST_DIGEST))) == []
    assert node.instances == {}
